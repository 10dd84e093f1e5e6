package repro

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plancache"
)

// OnlinePipeline implements the paper's §4 *online* trial-and-error
// strategy: "perform row-reordering in the first iteration and do SpMM
// on both the reordered matrix and the original matrix. If the
// reordered matrix is faster, keep the row-reordering for the rest of
// iterations; otherwise, discard [it]". The trial runs as part of the
// build, never on a serving call: one untimed warm-up of each plan to
// strip the cold-cache penalty, then one timed run of each, on a fixed
// deterministic operand of width trialK. The winner serves every call.
//
// Built with NewOnlinePipelineCtx, the pipeline is additionally
// *degradation-hardened*: only the cheap no-reorder (ASpT-NR) plan is
// built before the constructor returns, while the expensive reordered
// plan builds — and the trial runs — in the background under
// cfg.PreprocessBudget. Until that settles, calls serve the NR plan
// immediately; if the build or its trial runs over budget, is
// cancelled, or fails, the pipeline permanently settles on NR and
// records why (see Degraded). Serving is therefore never blocked on —
// and never crashes because of — preprocessing.
//
// OnlinePipeline is safe for concurrent use: every call loads the
// serving plan through one atomic pointer and executes without taking
// any lock, so N goroutines get N-way parallel SpMM/SDDMM.
type OnlinePipeline struct {
	nr *Pipeline

	// serving is the plan every call executes on: nr until the build
	// settles, then the trial winner (nr again when degraded).
	serving atomic.Pointer[Pipeline]

	// buildDone closes when the build has settled, for better or
	// worse. The fields below are written once before it closes and
	// read only after it.
	buildDone      chan struct{}
	rrTime, nrTime time.Duration
	planFP         string
	degraded       error // why the reordered build was abandoned

	// sink receives the trial_winner event (nil: no event ring).
	sink *eventSink
}

// eventSink binds a decision-event ring to the tenant label its events
// carry. Shared by OnlinePipeline and LivePipeline.
type eventSink struct {
	ring   *obs.EventRing
	tenant string
}

func (s *eventSink) emit(e obs.Event) {
	if s != nil {
		e.Tenant = s.tenant
		s.ring.Emit(e)
	}
}

// trialK is the dense width the §4 trial measures at, and trialSeed
// seeds its operand, so the same matrix always trials the same work.
// Narrow widths are where row reordering matters most (one X row spans
// few cache lines, so row locality decides reuse); at K=32 the two
// orderings of the benchmark's scrambled matrices run within the
// single-shot trial's noise, so a trial there is a coin flip that
// hands narrow-K tenants the slower plan.
const (
	trialK    = 8
	trialSeed = 1
)

// closedChan is shared by every synchronously constructed pipeline.
var closedChan = func() chan struct{} { c := make(chan struct{}); close(c); return c }()

// NewOnlinePipeline preprocesses m both ways (with the §4 heuristics and
// without any reordering), runs the trial and returns a pipeline
// serving the winner. Both builds go through the process-wide plan
// cache, so an online pipeline over an already-seen sparsity structure
// (e.g. the same graph re-served with new values) starts in O(nnz)
// without any LSH, clustering, or tiling work.
//
// Everything runs synchronously: the constructor does not return until
// the trial has decided (or a build or the trial errors). For
// budgeted, non-blocking construction use NewOnlinePipelineCtx.
func NewOnlinePipeline(m *Matrix, cfg Config) (*OnlinePipeline, error) {
	rr, err := NewPipeline(m, cfg)
	if err != nil {
		return nil, err
	}
	nr, err := NewPipelineNR(m, cfg)
	if err != nil {
		return nil, err
	}
	o := &OnlinePipeline{nr: nr, buildDone: closedChan}
	o.serving.Store(nr)
	if err := o.trial(context.Background(), rr); err != nil {
		return nil, err
	}
	return o, nil
}

// NewOnlinePipelineCtx builds the serving-grade online pipeline: the
// cheap no-reorder plan is built synchronously (its error, if any, is
// the constructor's error), and the expensive reordered plan builds and
// trials in a background goroutine governed by ctx and, when positive,
// by cfg.PreprocessBudget of wall-clock time.
//
// The pipeline serves immediately: SpMM/SDDMM calls arriving before the
// trial has decided execute on the no-reorder plan without waiting.
// If the build or its trial exceeds the budget, observes ctx's
// cancellation, fails, or panics (surfaced as a *PanicError), the
// pipeline permanently degrades to the no-reorder plan — Decided then
// reports (true, false) and Degraded returns the recorded cause. A
// failed or cancelled build is never stored in the plan cache.
func NewOnlinePipelineCtx(ctx context.Context, m *Matrix, cfg Config) (*OnlinePipeline, error) {
	return newOnlinePipelineCtx(ctx, m, cfg, nil, nil)
}

// newOnlinePipelineCtx is NewOnlinePipelineCtx with an optional trace
// ring and event sink. When ring is non-nil, the background build runs
// under a "build_reordered" trace — carrying the preprocessing stage
// spans recorded inside reorder — which is pushed to the ring when the
// build settles. sink receives the trial_winner event. The Server
// passes its /debug/traces ring and the tenant's sink here.
func newOnlinePipelineCtx(ctx context.Context, m *Matrix, cfg Config, ring *obs.TraceRing, sink *eventSink) (*OnlinePipeline, error) {
	nr, err := NewPipelineNRCtx(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	o := &OnlinePipeline{nr: nr, buildDone: make(chan struct{}), sink: sink}
	o.serving.Store(nr)
	bctx, cancel := context.WithCancel(ctx)
	if cfg.PreprocessBudget > 0 {
		bctx, cancel = context.WithTimeout(ctx, cfg.PreprocessBudget)
	}
	go func() {
		defer close(o.buildDone)
		defer cancel()
		var tr *obs.Trace
		if ring != nil {
			tr = obs.NewTrace("build_reordered")
			bctx = obs.WithTrace(bctx, tr)
		}
		var rr *Pipeline
		// Guard the whole build: stage-internal panics already surface
		// as errors, and this converts any residual glue-code panic too
		// — a background goroutine must never crash the process.
		err := par.Guard(func() error {
			var err error
			if rr, err = NewPipelineCtx(bctx, m, cfg); err != nil {
				return err
			}
			return o.trial(bctx, rr)
		})
		if err != nil {
			o.degraded = err
			onlineDegraded.Inc()
			if tr != nil {
				tr.Annotate("outcome", "degraded")
				tr.Finish(err)
				ring.Push(tr)
			}
			return
		}
		if tr != nil {
			tr.Annotate("outcome", "ok")
			tr.Annotate("stages", rr.PlanStages().String())
			tr.Finish(nil)
			ring.Push(tr)
		}
	}()
	return o, nil
}

// Decided reports whether the pipeline has settled on a plan, and if so
// whether reordering won. Settling happens when the build's trial
// decides or — for budgeted pipelines — by degrading to the no-reorder
// plan (in which case reorderingWon is false; see Degraded for why).
func (o *OnlinePipeline) Decided() (done, reorderingWon bool) {
	if !o.Preprocessed() {
		return false, false
	}
	return true, o.serving.Load() != o.nr
}

// Degraded reports whether the reordered build was abandoned — budget
// exceeded, context cancelled, build or trial error, or panic — and the
// error that caused it. A degraded pipeline serves the no-reorder plan
// permanently.
func (o *OnlinePipeline) Degraded() (bool, error) {
	if !o.Preprocessed() {
		return false, nil
	}
	return o.degraded != nil, o.degraded
}

// WaitPreprocessed blocks until the build has settled (the trial
// decided, or the pipeline degraded) or ctx is cancelled. It returns
// ctx's error in the latter case and nil otherwise; check Degraded for
// the build's outcome. Pipelines built with NewOnlinePipeline return
// immediately.
func (o *OnlinePipeline) WaitPreprocessed(ctx context.Context) error {
	select {
	case <-o.buildDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TrialTimes returns the wall times the trial measured: (0, 0) until
// Decided reports done, and forever for a degraded pipeline.
func (o *OnlinePipeline) TrialTimes() (reordered, plain time.Duration) {
	if !o.Preprocessed() {
		return 0, 0
	}
	return o.rrTime, o.nrTime
}

// Pipeline returns the winning pipeline once decided (nil before).
func (o *OnlinePipeline) Pipeline() *Pipeline {
	if !o.Preprocessed() {
		return nil
	}
	return o.serving.Load()
}

// Matrix returns the original (unreordered) matrix.
func (o *OnlinePipeline) Matrix() *Matrix { return o.nr.Matrix() }

// Preprocessed reports, without blocking, whether the build has settled
// — the readiness signal a /readyz probe wants: once true, every
// serving decision the pipeline will ever make is already made.
func (o *OnlinePipeline) Preprocessed() bool {
	select {
	case <-o.buildDone:
		return true
	default:
		return false
	}
}

// PlanStages returns the preprocessing stage breakdown of the plan a
// call arriving now executes on.
func (o *OnlinePipeline) PlanStages() StageTimings { return o.serving.Load().PlanStages() }

// Kernel returns the SpMM kernel of the plan a call arriving now
// executes on.
func (o *OnlinePipeline) Kernel() Kernel { return o.serving.Load().Kernel() }

// PlanFingerprint returns the plan-cache fingerprint of the winning
// plan once the trial has decided ("" before, and "" for a degraded
// pipeline — no trial ever measured its plan).
func (o *OnlinePipeline) PlanFingerprint() string {
	if !o.Preprocessed() {
		return ""
	}
	return o.planFP
}

// SpMM computes Y = S·X on the serving plan. The output comes from the
// dense scratch pool (see Pipeline.SpMM).
func (o *OnlinePipeline) SpMM(x *Dense) (*Dense, error) {
	return allocInto(dense.Get(o.Matrix().Rows, x.Cols), dense.Put, func(y *Dense) error {
		return o.SpMMIntoCtx(context.Background(), y, x)
	})
}

// SpMMIntoCtx computes Y = S·X into the caller-provided y with
// cooperative cancellation between kernel chunks and panic isolation,
// delegating to the serving plan without locking or allocating.
func (o *OnlinePipeline) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	return o.serving.Load().SpMMIntoCtx(ctx, y, x)
}

// SpMMBatchIntoCtx computes every op's Y = S·X in one batched kernel
// pass (see Pipeline.SpMMBatchIntoCtx) on the serving plan.
func (o *OnlinePipeline) SpMMBatchIntoCtx(ctx context.Context, ops []BatchOp) error {
	return kernels.SpMMBatchIntoCtx(ctx, o, ops)
}

// SDDMM computes O = S ⊙ (Y·Xᵀ) on the serving plan: SDDMM follows
// the SpMM trial's decision.
func (o *OnlinePipeline) SDDMM(x, y *Dense) (*Matrix, error) {
	return allocInto(o.Matrix().Clone(), nil, func(out *Matrix) error {
		return o.SDDMMIntoCtx(context.Background(), out, x, y)
	})
}

// SDDMMIntoCtx computes O = S ⊙ (Y·Xᵀ) into out, which must have the
// matrix's sparsity structure, on the serving plan.
func (o *OnlinePipeline) SDDMMIntoCtx(ctx context.Context, out *Matrix, x, y *Dense) error {
	return o.serving.Load().SDDMMIntoCtx(ctx, out, x, y)
}

// trial runs the §4 trial on the build path, before the pipeline is
// published as decided. It warms up both plans untimed (so neither
// eats the cold-cache penalty the other is measured without), then
// times one run of each and publishes the winner. Any error —
// including ctx's cancellation mid-flight — aborts the trial without
// publishing a winner; the caller treats it as a failed build.
func (o *OnlinePipeline) trial(ctx context.Context, rr *Pipeline) error {
	m := o.Matrix()
	x := dense.NewRandom(m.Cols, trialK, trialSeed)
	y := dense.Get(m.Rows, trialK)
	defer dense.Put(y)
	plans := [2]*Pipeline{rr, o.nr}
	var times [2]time.Duration
	for pass := 0; pass < 2; pass++ { // pass 0 warms up, pass 1 is timed
		for i, p := range plans {
			t0 := time.Now()
			if err := p.SpMMIntoCtx(ctx, y, x); err != nil {
				return err
			}
			times[i] = time.Since(t0)
		}
	}
	o.decide(rr, times[0], times[1])
	return nil
}

// decide records the trial times and publishes the winner; ties keep
// the plain plan (no reordering to maintain).
func (o *OnlinePipeline) decide(rr *Pipeline, rrTime, nrTime time.Duration) {
	o.rrTime, o.nrTime = rrTime, nrTime
	w, won, lost, variant, detail := o.nr, nrTime, rrTime, plancache.NR, "plain"
	if rrTime < nrTime {
		w, won, lost, variant, detail = rr, rrTime, nrTime, plancache.Full, "reordered"
	}
	o.planFP = plancache.Fingerprint(o.nr.Matrix(), o.nr.plan.Cfg, variant)
	o.serving.Store(w)
	recordTrial(w == rr, rrTime, nrTime)
	speedup := 0.0
	if won > 0 {
		speedup = float64(lost) / float64(won)
	}
	o.sink.emit(obs.Event{
		Type:   obs.EventTrialWinner,
		PlanFP: o.planFP,
		Kernel: w.Kernel().String(),
		Detail: detail,
		Value:  speedup,
	})
}

// reskin rebuilds this online pipeline for a matrix with the *same
// sparsity structure* but new nonzero values — the value-only mutation
// path of a live matrix. Both plan-cache lookups hit on structure, so
// each rebuild is an O(nnz) value regather, not a re-preprocess.
//
// The trial decision carries over: structure is what the §4 trial
// measures, and the structure has not changed, so the new pipeline
// starts decided on the reskinned counterpart of the old winner — no
// re-trial, no window where serving would flap back to NR. A degraded
// pipeline reskins to a degraded one (NR-only, same recorded cause). A
// pipeline whose background build is still in flight is waited for
// first: reskinning a moving target would race the build's decision.
func (o *OnlinePipeline) reskin(ctx context.Context, m *Matrix) (liveBase, error) {
	if err := o.WaitPreprocessed(ctx); err != nil {
		return nil, err
	}
	cfg := o.nr.plan.Cfg
	nr, err := NewPipelineNRCtx(ctx, m, cfg)
	if err != nil {
		return nil, err
	}
	n := &OnlinePipeline{nr: nr, buildDone: closedChan, sink: o.sink,
		rrTime: o.rrTime, nrTime: o.nrTime, planFP: o.planFP, degraded: o.degraded}
	w := nr
	if _, won := o.Decided(); won {
		if w, err = NewPipelineCtx(ctx, m, cfg); err != nil {
			return nil, err
		}
	}
	n.serving.Store(w)
	return n, nil
}

// rebuild preprocesses m from scratch as a new online pipeline whose
// trial decides before rebuild returns, so no request after the swap
// pays for it. A degraded build is a failed rebuild.
func (o *OnlinePipeline) rebuild(ctx context.Context, m *Matrix, cfg Config, ring *obs.TraceRing, sink *eventSink) (liveBase, error) {
	n, err := newOnlinePipelineCtx(ctx, m, cfg, ring, sink)
	if err != nil {
		return nil, err
	}
	if err := n.WaitPreprocessed(ctx); err != nil {
		return nil, err
	}
	if d, derr := n.Degraded(); d {
		// The reordered build ran over budget or failed. %v (not %w): a
		// budget timeout carries context.DeadlineExceeded, which the
		// rebuild's retry loop must not mistake for its own context dying.
		return nil, fmt.Errorf("repro: rebuilt pipeline degraded: %v", derr)
	}
	return n, nil
}

// The rest of liveBase: the breaker falls back to the no-reorder plan,
// which the full path also runs until (and unless) reordering wins.

func (o *OnlinePipeline) fallback() baseExec             { return o.nr }
func (o *OnlinePipeline) reordered() bool                { return o.serving.Load() != o.nr }
func (o *OnlinePipeline) cfg() Config                    { return o.nr.plan.Cfg }
func (o *OnlinePipeline) lead() *Pipeline                { return o.serving.Load() }
func (o *OnlinePipeline) settled() bool                  { return o.Preprocessed() }
func (o *OnlinePipeline) wait(ctx context.Context) error { return o.WaitPreprocessed(ctx) }
func (o *OnlinePipeline) degradedErr() error             { _, err := o.Degraded(); return err }

func (o *OnlinePipeline) plans() []*Pipeline {
	if w := o.serving.Load(); w != o.nr {
		return []*Pipeline{o.nr, w}
	}
	return []*Pipeline{o.nr}
}
