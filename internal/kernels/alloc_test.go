package kernels

import (
	"context"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
)

// TestIntoZeroAllocsAfterWarmup pins every kernel entry point, and the
// batched pass, to exactly zero steady-state allocations under a
// cancellable context — the serving path's shape — and is the
// regression test behind the BENCH_kernels.json numbers. The earlier
// lenient bound (< 2) let the bench harness's missing warmup masquerade
// as a hot-path leak: with -benchtime 1x the merge kernel reported 10
// allocs/op that were all first-call pool misses (job struct, merge
// chunk and carry slabs). After a warmup the contract is exact;
// assertZeroAllocsAfterWarmup retries a couple of times so a GC
// emptying the sync.Pools mid-measurement cannot flake the pin.
func TestIntoZeroAllocsAfterWarmup(t *testing.T) {
	m := hubMatrix(t)
	tl, err := aspt.Build(m, aspt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	x := dense.NewRandom(m.Cols, 16, 1)
	y := dense.New(m.Rows, 16)
	out := m.Clone()
	yd := dense.NewRandom(m.Rows, 16, 2)
	ops := []BatchOp{
		{Y: dense.New(m.Rows, 2), X: dense.NewRandom(m.Cols, 2, 3)},
		{Y: dense.New(m.Rows, 3), X: dense.NewRandom(m.Cols, 3, 4)},
	}
	for name, call := range map[string]func() error{
		"SpMMRowWiseIntoCtx":  func() error { return SpMMRowWiseIntoCtx(ctx, y, m, x) },
		"SpMMMergeIntoCtx":    func() error { return SpMMMergeIntoCtx(ctx, y, m, x) },
		"SpMMHybridIntoCtx":   func() error { return SpMMHybridIntoCtx(ctx, y, hyb, x) },
		"SpMMASpTIntoCtx":     func() error { return SpMMASpTIntoCtx(ctx, y, tl, x) },
		"SDDMMRowWiseIntoCtx": func() error { return SDDMMRowWiseIntoCtx(ctx, out, m, x, yd) },
		"SDDMMASpTIntoCtx":    func() error { return SDDMMASpTIntoCtx(ctx, out, tl, x, yd) },
		"SpMMBatchIntoCtx":    func() error { return SpMMBatchIntoCtx(ctx, rowWisePass{m}, ops) },
	} {
		call := call
		assertZeroAllocsAfterWarmup(t, name, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
