package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/integrity"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/pairheap"
	"repro/internal/reorder"
)

// span is one timed call, recorded by the benchmark around a call into
// a layer. Spans of one request or one ladder round share Trace.
type span struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Trace   int64          `json:"trace"`
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextID int64
	trace  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newTrace() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace++
	return t.trace
}

// newID reserves a span id, so a parent can be named before it ends.
func (t *tracer) newID() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// add records a finished span under id (0: a fresh one).
func (t *tracer) add(id, trace, parent int64, name string, start, end time.Time, attrs map[string]any) {
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		StartUs: start.Sub(t.t0).Seconds() * 1e6,
		DurUs:   end.Sub(start).Seconds() * 1e6,
		Attrs:   attrs,
	})
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(trace, parent int64, name string, attrs map[string]any, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	if err != nil {
		if attrs == nil {
			attrs = map[string]any{}
		}
		attrs["error"] = err.Error()
	}
	t.add(0, trace, parent, name, start, end, attrs)
	return end.Sub(start), err
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Rung names of the layer ladder, bottom up. Adjacent differences are
// layer self times.
const (
	rungKernel   = "kernel"
	rungPipeline = "pipeline"
	rungOnline   = "online"
	rungLive     = "live"
	rungOverlay  = "live_overlay"
	rungServer   = "server"
	// Timed in the same rounds, outside the ladder proper.
	callSDDMM  = "kernel.sddmm"
	callVerify = "integrity.verify"
)

const (
	ladderMinRounds = 15
	ladderMaxRounds = 400
	ladderBudget    = 1500 * time.Millisecond // per request shape
	overlayRowsMax  = 256
	probeReps       = 3
	stageReps       = 3
	verifyRows      = 8 // the server's default VerifyRows
)

// ladder is one family's stack of entry points, each deciding the
// same plan (reordered or not) so rungs differ only by their layer.
type ladder struct {
	m      *repro.Matrix
	online *repro.OnlinePipeline
	pipe   *repro.Pipeline
	hyb    *ellpack.Hybrid
	live   *repro.LivePipeline
	liveOv *repro.LivePipeline
	srv    *repro.Server
	// retries counts objects rebuilt because their own trial decided
	// differently from the online rung's.
	retries int
}

// decideAs builds objects until one's trial lands on reordered (at
// most a few attempts), discarding the others, and returns the last.
func decideAs[T any](reordered bool, tries *int, build func() (T, *repro.OnlinePipeline, error), discard func(T)) (T, error) {
	for attempt := 0; ; attempt++ {
		v, o, err := build()
		if err != nil {
			return v, err
		}
		if _, rr := o.Decided(); rr == reordered || attempt == 4 {
			return v, nil
		}
		*tries++
		discard(v)
	}
}

func firstCall(ctx context.Context, o *repro.OnlinePipeline, k int) error {
	if err := o.WaitPreprocessed(ctx); err != nil {
		return err
	}
	x := repro.NewRandomDense(o.Matrix().Cols, k, 7)
	y := repro.NewDense(o.Matrix().Rows, k)
	return o.SpMMIntoCtx(ctx, y, x)
}

func buildLadder(ctx context.Context, m *repro.Matrix, scfg repro.ServerConfig, k int) (*ladder, error) {
	cfg := repro.DefaultConfig()
	l := &ladder{m: m}
	var err error
	if l.online, err = repro.NewOnlinePipelineCtx(ctx, m, cfg); err != nil {
		return nil, err
	}
	if err := firstCall(ctx, l.online, k); err != nil {
		return nil, err
	}
	_, rr := l.online.Decided()
	l.pipe = l.online.Pipeline()
	if plan := l.pipe.Plan(); plan.Kernel == reorder.KernelELLHybrid {
		if l.hyb, err = ellpack.FromCSRHybrid(plan.Reordered, 0); err != nil {
			return nil, err
		}
	}
	newLive := func(lcfg repro.LiveConfig) func() (*repro.LivePipeline, *repro.OnlinePipeline, error) {
		return func() (*repro.LivePipeline, *repro.OnlinePipeline, error) {
			lp, err := repro.NewLivePipelineCtx(ctx, m, cfg, lcfg)
			if err != nil {
				return nil, nil, err
			}
			return lp, lp.Online(), firstCall(ctx, lp.Online(), k)
		}
	}
	quiesce := func(lp *repro.LivePipeline) { lp.Quiesce(ctx) }
	if l.live, err = decideAs(rr, &l.retries, newLive(repro.LiveConfig{}), quiesce); err != nil {
		return nil, err
	}
	if l.liveOv, err = decideAs(rr, &l.retries, newLive(repro.LiveConfig{RebuildDisabled: true}), quiesce); err != nil {
		return nil, err
	}
	// The overlay rewrites N rows with their own contents: the result is
	// unchanged and the rows are served through the overlay.
	n := min(overlayRowsMax, m.Rows/8)
	var mu repro.Mutation
	for j := 0; j < n; j++ {
		r := j * (m.Rows / n)
		mu.ReplaceRows = append(mu.ReplaceRows, repro.RowUpdate{Row: r, Def: repro.RowDef{
			Cols: append([]int32(nil), m.RowCols(r)...),
			Vals: append([]float32(nil), m.RowVals(r)...),
		}})
	}
	if err := l.liveOv.Mutate(ctx, mu); err != nil {
		return nil, err
	}
	// The server rung serves the whole matrix unsharded so it stacks on
	// the same plan as the rungs below it.
	scfg.ShardNNZ = 0
	l.srv, err = decideAs(rr, &l.retries, func() (*repro.Server, *repro.OnlinePipeline, error) {
		srv, err := repro.NewServer(ctx, m, cfg, scfg)
		if err != nil {
			return nil, nil, err
		}
		if err := firstCall(ctx, srv.Pipeline(), k); err != nil {
			return nil, nil, err
		}
		return srv, srv.Pipeline(), nil
	}, func(srv *repro.Server) { srv.Close(ctx) })
	return l, err
}

func (l *ladder) close(ctx context.Context) {
	if l.srv != nil {
		l.srv.Close(ctx)
	}
	for _, lp := range []*repro.LivePipeline{l.live, l.liveOv} {
		if lp != nil {
			lp.Quiesce(ctx)
		}
	}
}

// runKernel calls the raw kernel the plan serves with.
func runKernel(ctx context.Context, plan *repro.Plan, kern repro.Kernel, hyb *ellpack.Hybrid, yre, x *repro.Dense) error {
	switch kern {
	case reorder.KernelRowWise:
		return kernels.SpMMRowWiseIntoCtx(ctx, yre, plan.Reordered, x)
	case reorder.KernelMerge:
		return kernels.SpMMMergeIntoCtx(ctx, yre, plan.Reordered, x)
	case reorder.KernelELLHybrid:
		return kernels.SpMMHybridIntoCtx(ctx, yre, hyb, x)
	default:
		return kernels.SpMMASpTIntoCtx(ctx, yre, plan.Tiled, x)
	}
}

// shapeTimes is one request shape's per-call medians.
type shapeTimes struct {
	k    int
	nnz  int
	rows int
	med  map[string]time.Duration
	gap  float64
}

// rounds calls every fn once per round, rotating which goes first, for
// at least minRounds and then until budget runs out, recording a span
// per call under one round span. It returns each name's median.
func rounds(tr *tracer, layer string, attrs map[string]any, names []string, fns map[string]func() error) (map[string]time.Duration, error) {
	times := map[string][]float64{}
	start := time.Now()
	for r := 0; r < ladderMaxRounds; r++ {
		if r >= ladderMinRounds && time.Since(start) > ladderBudget {
			break
		}
		trace, round := tr.newTrace(), tr.newID()
		rs := time.Now()
		for j := range names {
			name := names[(r+j)%len(names)]
			d, err := tr.timed(trace, round, name, attrs, fns[name])
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", layer, name, err)
			}
			times[name] = append(times[name], float64(d))
		}
		tr.add(round, trace, 0, layer+".round", rs, time.Now(), attrs)
	}
	out := map[string]time.Duration{}
	for n, ts := range times {
		out[n] = time.Duration(median(ts))
	}
	return out, nil
}

// ladderShape times every rung at width k on one family.
func ladderShape(ctx context.Context, tr *tracer, l *ladder, fam string, k int, seed int64) (shapeTimes, error) {
	m := l.m
	plan := l.pipe.Plan()
	x := repro.NewRandomDense(m.Cols, k, seed)
	yop := repro.NewRandomDense(m.Rows, k, seed+1)
	y := repro.NewDense(m.Rows, k)
	yre := repro.NewDense(m.Rows, k)
	yv := repro.NewDense(m.Rows, k)
	if err := l.pipe.SpMMIntoCtx(ctx, yv, x); err != nil {
		return shapeTimes{}, err
	}
	ore := plan.Tiled.Src.Clone()
	fns := map[string]func() error{
		rungKernel:   func() error { return runKernel(ctx, plan, plan.Kernel, l.hyb, yre, x) },
		rungPipeline: func() error { return l.pipe.SpMMIntoCtx(ctx, y, x) },
		rungOnline:   func() error { return l.online.SpMMIntoCtx(ctx, y, x) },
		rungLive:     func() error { return l.live.SpMMIntoCtx(ctx, y, x) },
		rungOverlay:  func() error { return l.liveOv.SpMMIntoCtx(ctx, y, x) },
		rungServer:   func() error { return l.srv.SpMMInto(ctx, y, x) },
		callSDDMM:    func() error { return kernels.SDDMMASpTIntoCtx(ctx, ore, plan.Tiled, x, yop) },
		callVerify: func() error {
			return integrity.CheckSpMMRows(m, x, yv, verifyRows, uint64(seed), integrity.DefaultRelTol, integrity.DefaultAbsTol)
		},
	}
	names := []string{rungKernel, rungPipeline, rungOnline, rungLive, rungOverlay, rungServer, callSDDMM, callVerify}
	attrs := map[string]any{"family": fam, "k": k, "kernel": plan.Kernel.String(), "rebuilt": l.retries}
	med, err := rounds(tr, "ladder", attrs, names, fns)
	if err != nil {
		return shapeTimes{}, err
	}
	// The served result must match the reference at every rung.
	for _, name := range []string{rungPipeline, rungOverlay, rungServer} {
		if err := fns[name](); err != nil {
			return shapeTimes{}, err
		}
		if err := integrity.CheckSpMMRows(m, x, y, checkRows, 1, integrity.DefaultRelTol, integrity.DefaultAbsTol); err != nil {
			return shapeTimes{}, fmt.Errorf("%s rung output: %w", name, err)
		}
	}
	gap, err := oracleGap(ctx, tr, l, fam, k, x)
	if err != nil {
		return shapeTimes{}, err
	}
	return shapeTimes{k: k, nnz: m.NNZ(), rows: m.Rows, med: med, gap: gap}, nil
}

// oracleGap is the served pipeline's time per call over the fastest of
// {reordered, not reordered} x {rowwise, merge, ellhybrid, aspt}, each
// timed as its raw kernel plus the output permutation, interleaved.
func oracleGap(ctx context.Context, tr *tracer, l *ladder, fam string, k int, x *repro.Dense) (float64, error) {
	cfg := repro.DefaultConfig()
	rrPipe, err := repro.NewPipelineCtx(ctx, l.m, cfg)
	if err != nil {
		return 0, err
	}
	nrPipe, err := repro.NewPipelineNRCtx(ctx, l.m, cfg)
	if err != nil {
		return 0, err
	}
	y := repro.NewDense(l.m.Rows, k)
	yre := repro.NewDense(l.m.Rows, k)
	fns := map[string]func() error{"served": func() error { return l.pipe.SpMMIntoCtx(ctx, y, x) }}
	names := []string{"served"}
	for _, c := range []struct {
		name string
		plan *repro.Plan
	}{{"rr", rrPipe.Plan()}, {"nr", nrPipe.Plan()}} {
		hyb, err := ellpack.FromCSRHybrid(c.plan.Reordered, 0)
		if err != nil {
			return 0, err
		}
		for _, kern := range []repro.Kernel{reorder.KernelRowWise, reorder.KernelMerge, reorder.KernelELLHybrid, reorder.KernelASpT} {
			plan, kern := c.plan, kern
			name := c.name + "." + kern.String()
			names = append(names, name)
			fns[name] = func() error {
				if err := runKernel(ctx, plan, kern, hyb, yre, x); err != nil {
					return err
				}
				return dense.PermuteRowsInto(y, yre, plan.InvRowPerm)
			}
		}
	}
	med, err := rounds(tr, "oracle", map[string]any{"family": fam, "k": k}, names, fns)
	if err != nil {
		return 0, err
	}
	best := time.Duration(1<<63 - 1)
	for n, d := range med {
		if n != "served" && d < best {
			best = d
		}
	}
	return float64(med["served"]) / float64(best), nil
}

// stageTimes calls the preprocessing stages one at a time on m.
type stageTimes struct {
	sigMs, pairsMs, clusterMs, asptMs, preMs []float64
	allocs, mb                               []float64
}

func preprocessStages(ctx context.Context, tr *tracer, m *repro.Matrix, fam string) (stageTimes, error) {
	cfg := repro.DefaultConfig()
	var st stageTimes
	attrs := map[string]any{"family": fam}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	for r := 0; r < stageReps; r++ {
		trace := tr.newTrace()
		var sigs *lsh.Signatures
		d, err := tr.timed(trace, 0, "lsh.signatures", attrs, func() (err error) {
			sigs, err = lsh.ComputeSignaturesCtx(ctx, m, cfg.LSH)
			return err
		})
		if err != nil {
			return st, err
		}
		st.sigMs = append(st.sigMs, ms(d))
		var pairs []pairheap.Pair
		d, err = tr.timed(trace, 0, "lsh.pairs", attrs, func() (err error) {
			pairs, err = lsh.PairsFromSignaturesCtx(ctx, m, sigs, cfg.LSH)
			return err
		})
		if err != nil {
			return st, err
		}
		st.pairsMs = append(st.pairsMs, ms(d))
		d, err = tr.timed(trace, 0, "reorder.cluster", attrs, func() error {
			_, _, err := reorder.ClusterOrderedCtx(ctx, m, pairs, cfg.ThresholdSize, cfg.EmitMergeOrder)
			return err
		})
		if err != nil {
			return st, err
		}
		st.clusterMs = append(st.clusterMs, ms(d))
		d, err = tr.timed(trace, 0, "aspt.build", attrs, func() error {
			_, err := aspt.BuildCtx(ctx, m, cfg.ASpT)
			return err
		})
		if err != nil {
			return st, err
		}
		st.asptMs = append(st.asptMs, ms(d))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err = tr.timed(trace, 0, "reorder.preprocess", attrs, func() error {
			_, err := reorder.PreprocessCtx(ctx, m, cfg)
			return err
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return st, err
		}
		st.preMs = append(st.preMs, ms(d))
		st.allocs = append(st.allocs, float64(after.Mallocs-before.Mallocs))
		st.mb = append(st.mb, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	return st, nil
}
