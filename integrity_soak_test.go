package repro_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// TestServerIntegritySoak drives the whole silent-corruption defense
// end to end, one episode per corruption fault site:
//
//	integrity.corrupt.plan    — a bit flip inside an executor-plan value
//	                            slab (SpMM and SDDMM episodes)
//	integrity.corrupt.gather  — an in-range misrouted pair in a cached
//	                            plan's value-gather maps, activated by a
//	                            value-only re-skin
//	integrity.corrupt.overlay — a flipped output value on the overlay
//	                            serving path, activated by a structural
//	                            mutation
//
// Every corruption is in-range and structurally valid, so the pre-swap
// invariant gates cannot catch it — only shadow verification can. Each
// episode must (1) detect the corruption and open a quarantine, (2)
// keep every client request succeeding throughout (the in-request retry
// re-routes through the reference path), (3) serve bit-identically to
// the reference kernel on the current matrix while quarantined, and
// (4) heal: the kicked rebuild swaps fresh plans in, probation passes
// clean, and the tenant reinstates. The final ledgers must reconcile
// exactly.
//
// Requests are served sequentially on purpose: the plan-corruption site
// flips values in live plan slabs, which is only safe with no
// concurrent reader of the same plan.
func TestServerIntegritySoak(t *testing.T) {
	m := freshScrambled(t, 9001)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	cfg := repro.DefaultConfig()
	cfg.Workers = 4
	cfg.PreprocessBudget = time.Hour
	s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{
		DefaultDeadline: 10 * time.Second,
		ShardNNZ:        m.NNZ() / 3,
		VerifyFraction:  1.0,
		// Recompute every output row: a single corrupted value anywhere
		// must be caught on the first verified request.
		VerifyRows:        -1,
		ProbationRequests: 4,
		MaxAttempts:       3,
		// Large enough that nothing is evicted during the soak, so the
		// quarantine/reinstate event ledger reconciles exactly.
		EventRing: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	if sh := s.Sharded(); sh == nil || sh.Panels() < 2 {
		t.Fatalf("matrix did not shard (ShardNNZ=%d, NNZ=%d)", m.NNZ()/3, m.NNZ())
	}

	ctx := context.Background()
	live := s.Live()
	rng := rand.New(rand.NewSource(5))
	x := repro.NewRandomDense(m.Cols, 8, 41)
	y := repro.NewDense(m.Rows, 8)
	xs := repro.NewRandomDense(m.Cols, 6, 42)
	ys := repro.NewRandomDense(m.Rows, 6, 43)

	integ := func() integrity.Stats {
		ts, ok := s.TenantStats(repro.DefaultTenant)
		if !ok {
			t.Fatal("default tenant stats missing")
		}
		return ts.Integrity
	}
	serveSpMM := func() {
		t.Helper()
		if err := s.SpMMInto(ctx, y, x); err != nil {
			t.Fatalf("SpMMInto failed (quarantine re-route should absorb mismatches): %v", err)
		}
	}
	serveSDDMM := func() {
		t.Helper()
		out, err := s.SDDMM(ctx, xs, ys)
		if err != nil {
			t.Fatalf("SDDMM failed (quarantine re-route should absorb mismatches): %v", err)
		}
		_ = out
	}
	// valueMutation rewrites one existing nonzero: a value-only mutation
	// on a clean base re-skins every panel through the plan cache — the
	// path the gather corruption site lives on.
	valueMutation := func() {
		t.Helper()
		cur := live.Matrix()
		for {
			r := rng.Intn(cur.Rows)
			if cols := cur.RowCols(r); len(cols) > 0 {
				mu := repro.Mutation{UpdateValues: []repro.ValueUpdate{{
					Row: r, Col: int(cols[rng.Intn(len(cols))]), Val: rng.Float32()*2 - 1,
				}}}
				if err := s.Mutate(ctx, mu); err != nil {
					t.Fatalf("value mutation: %v", err)
				}
				return
			}
		}
	}
	// identityReplace re-posts one row's current content as a structural
	// replacement: served values never change, but the row joins the
	// overlay — the path the overlay corruption site lives on.
	identityReplace := func() {
		t.Helper()
		cur := live.Matrix()
		r := rng.Intn(cur.Rows)
		mu := repro.Mutation{ReplaceRows: []repro.RowUpdate{{Row: r, Def: repro.RowDef{
			Cols: append([]int32(nil), cur.RowCols(r)...),
			Vals: append([]float32(nil), cur.RowVals(r)...),
		}}}}
		if err := s.Mutate(ctx, mu); err != nil {
			t.Fatalf("identity replace: %v", err)
		}
	}

	episodes := []struct {
		name  string
		site  string
		sddmm bool
		// trigger arms the corruption's activation path each detection
		// attempt (nil: the serve itself activates the site).
		trigger func()
	}{
		{name: "plan-spmm", site: "integrity.corrupt.plan"},
		{name: "gather-reskin", site: "integrity.corrupt.gather", trigger: valueMutation},
		{name: "overlay-serve", site: "integrity.corrupt.overlay", trigger: identityReplace},
		{name: "plan-sddmm", site: "integrity.corrupt.plan", sddmm: true},
	}
	if testing.Short() {
		// PR-CI budget: one live-plan episode and one cache-poisoning
		// episode still cover detection, two-tier eviction, bit-correct
		// fallback, and healing; the nightly run keeps all four.
		episodes = episodes[:2]
	}

	for _, ep := range episodes {
		pre := integ()
		if pre.State != integrity.Healthy {
			t.Fatalf("episode %s: tenant not healthy at start: %+v", ep.name, pre)
		}
		preInjected := integrity.InjectedCount()

		// Hold every rebuild at its start until a request has been
		// compared inside the quarantine below: the healing swap then
		// cannot close the quarantine window first, however fast
		// preprocessing is. A rebuild left over from the previous
		// episode finishes first.
		if err := live.WaitRebuilt(ctx); err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		unhold := faultinject.Set("live.rebuild.start", func() error { <-gate; return nil })
		var releaseOnce sync.Once
		release := func() { releaseOnce.Do(func() { unhold(); close(gate) }) }
		t.Cleanup(release) // runs before the server's Close cleanup

		// Detect: arm the site and serve until the quarantine opens.
		// Triggered sites re-fire their activation path only if the
		// previous one was consumed without an injection landing (e.g.
		// the background rebuild drained the overlay first).
		restore := faultinject.CorruptAt(ep.site)
		deadline := time.Now().Add(60 * time.Second)
		for integ().Quarantines == pre.Quarantines {
			if time.Now().After(deadline) {
				restore()
				t.Fatalf("episode %s: corruption never detected: %+v", ep.name, integ())
			}
			if ep.trigger != nil && integrity.InjectedCount() == preInjected {
				ep.trigger()
			}
			if ep.sddmm {
				serveSDDMM()
			} else {
				serveSpMM()
			}
		}
		restore()
		if integrity.InjectedCount() == preInjected {
			t.Fatalf("episode %s: quarantine opened but no corruption was injected", ep.name)
		}

		// Quarantined serving must be bit-identical to the reference
		// kernel on the current matrix — the healing rebuild is held at
		// its start, so there is a real window here. A comparison only
		// counts when the request provably ran entirely inside
		// quarantine: state Quarantined before and after, and no plan
		// swap or re-skin in between (baseGen pinned).
		compared := false
		for i := 0; i < 50 && !compared; i++ {
			ig0, lst0 := integ(), live.Stats()
			if ig0.State != integrity.Quarantined {
				break
			}
			cur := live.Matrix()
			if ep.sddmm {
				want, err := repro.SDDMM(cur, xs, ys)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.SDDMM(ctx, xs, ys)
				if err != nil {
					t.Fatalf("episode %s: quarantined SDDMM: %v", ep.name, err)
				}
				ig1, lst1 := integ(), live.Stats()
				if ig1.State == integrity.Quarantined && lst1.Swaps == lst0.Swaps && lst1.Reskins == lst0.Reskins {
					for j := range want.Val {
						if got.Val[j] != want.Val[j] {
							t.Fatalf("episode %s: quarantined SDDMM differs from reference at nnz %d: %v != %v",
								ep.name, j, got.Val[j], want.Val[j])
						}
					}
					compared = true
				}
			} else {
				want, err := repro.SpMM(cur, x)
				if err != nil {
					t.Fatal(err)
				}
				serveSpMM()
				ig1, lst1 := integ(), live.Stats()
				if ig1.State == integrity.Quarantined && lst1.Swaps == lst0.Swaps && lst1.Reskins == lst0.Reskins {
					for j := range want.Data {
						if y.Data[j] != want.Data[j] {
							t.Fatalf("episode %s: quarantined SpMM differs from reference at %d: %v != %v",
								ep.name, j, y.Data[j], want.Data[j])
						}
					}
					compared = true
				}
				repro.PutDense(want)
			}
		}
		if !compared {
			t.Fatalf("episode %s: no request landed fully inside quarantine (rebuild swapped too fast?)", ep.name)
		}
		release()

		// Heal: keep serving; once the rebuild swaps fresh plans in, the
		// monitor moves to probation and the clean window reinstates.
		deadline = time.Now().Add(60 * time.Second)
		for integ().StillQuarantined != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("episode %s: never reinstated: %+v, live %+v", ep.name, integ(), live.Stats())
			}
			if ep.sddmm {
				serveSDDMM()
			} else {
				serveSpMM()
			}
		}
		post := integ()
		if post.Reinstated != pre.Reinstated+1 {
			t.Fatalf("episode %s: reinstated %d, want %d", ep.name, post.Reinstated, pre.Reinstated+1)
		}
		t.Logf("episode %s: detected, quarantined, served verified-correct fallback, healed (%+v)", ep.name, post)
	}

	// Ledger reconciliation: every injected corruption was detected
	// exactly once, every quarantine healed, nothing is still open.
	fin := integ()
	n := int64(len(episodes))
	if fin.Detected != n || fin.Quarantines != n {
		t.Fatalf("detected %d, quarantines %d, want %d each", fin.Detected, fin.Quarantines, n)
	}
	if fin.Reinstated+fin.StillQuarantined != fin.Quarantines || fin.StillQuarantined != 0 {
		t.Fatalf("Reinstated %d + StillQuarantined %d != Quarantines %d",
			fin.Reinstated, fin.StillQuarantined, fin.Quarantines)
	}
	if fin.ChecksMismatch != n || fin.ProbationFailures != 0 {
		t.Fatalf("mismatches %d (want %d), probation failures %d (want 0)", fin.ChecksMismatch, n, fin.ProbationFailures)
	}
	if inj := integrity.InjectedCount(); inj < n {
		t.Fatalf("injected-corruption counter %d, want >= %d", inj, n)
	}
	if fin.ChecksClean < int64(len(episodes))*4 {
		t.Fatalf("clean checks %d, want >= %d (4 probation passes per episode)", fin.ChecksClean, n*4)
	}

	// Decision-event ledger: every quarantine and reinstatement in the
	// integrity counters must have left a matching ring event, carrying
	// the tenant it happened to.
	ring := s.Events()
	if ring.Emitted() > uint64(ring.Cap()) {
		t.Fatalf("event ring overflowed (%d emitted, cap %d): ledger no longer exact", ring.Emitted(), ring.Cap())
	}
	var quarantines, reinstates int64
	for _, e := range ring.Snapshot() {
		switch e.Type {
		case obs.EventQuarantine:
			quarantines++
		case obs.EventReinstate:
			reinstates++
		default:
			continue
		}
		if e.Tenant != repro.DefaultTenant {
			t.Fatalf("integrity event on wrong tenant: %+v", e)
		}
		if e.Type == obs.EventQuarantine && e.Detail == "" {
			t.Fatalf("quarantine event missing its cause: %+v", e)
		}
	}
	if quarantines != fin.Quarantines+fin.ProbationFailures {
		t.Fatalf("quarantine events %d != quarantines %d + probation failures %d",
			quarantines, fin.Quarantines, fin.ProbationFailures)
	}
	if reinstates != fin.Reinstated {
		t.Fatalf("reinstate events %d != reinstated %d", reinstates, fin.Reinstated)
	}
}

// TestServerVerifyPathAllocOverhead pins the allocation cost of the
// integrity machinery on the serving path. The server's request
// envelope (trace, retry closure, admission) has a small fixed
// allocation baseline that predates verification; the contract here is
// that integrity routing adds NOTHING on top of it — the healthy-route
// check is one atomic load, the sampler an atomic add and a compare,
// and even a fully verified request reuses pooled float64 scratch. The
// unsampled path at any realistic VerifyFraction is bounded by the
// VerifyFraction=1.0 measurement, so pinning fraction 0 == fraction 1
// pins the whole range.
func TestServerVerifyPathAllocOverhead(t *testing.T) {
	m := freshScrambled(t, 9003)
	warmKernelPool(t, m)
	defer testutil.CheckNoGoroutineLeak(t)()

	measure := func(fraction float64) float64 {
		cfg := repro.DefaultConfig()
		cfg.PreprocessBudget = time.Hour
		s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{
			// No DefaultDeadline: context.WithTimeout would allocate per
			// request and mask what this test pins.
			VerifyFraction: fraction,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		if err := s.Pipeline().WaitPreprocessed(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		x := repro.NewRandomDense(m.Cols, 4, 17)
		y := repro.NewDense(m.Rows, 4)
		for i := 0; i < 5; i++ {
			if err := s.SpMMInto(ctx, y, x); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(30, func() {
			if err := s.SpMMInto(ctx, y, x); err != nil {
				t.Fatal(err)
			}
		})
	}

	base := measure(0)
	verified := measure(1.0)
	if base > 10 {
		t.Fatalf("serving-path allocation baseline is %v objects per request, want <= 10 (envelope only)", base)
	}
	limit := base
	if raceDetectorEnabled {
		// The race detector randomly drops sync.Pool puts, so the
		// pooled verify scratch shows spurious reallocation.
		limit = base + 2
	}
	if verified > limit {
		t.Fatalf("verified request allocates %v objects, baseline %v: integrity path must add zero steady-state allocations",
			verified, base)
	}
}
