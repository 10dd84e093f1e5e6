package repro

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/sparse"
)

// ShardedPipeline splits a large matrix into nnz-balanced row panels at
// preprocessing time and serves each panel through its own Pipeline —
// the 1-D row-tiling decomposition (Gale et al.) lifted to the serving
// layer. Because SpMM rows are independent, a panel's output is exactly
// the corresponding row range of the unsharded output: "merging" the
// panels is not a reduction, each panel writes straight into a
// zero-copy row-range view of the caller's Y.
//
// What sharding buys over one big pipeline:
//
//   - Preprocessing parallelism and bounded working sets: LSH,
//     clustering, and tiling run per panel (concurrently), and each
//     panel's plan is cached independently in the process-wide plan
//     cache, so growing a matrix reuses the untouched panels' plans.
//   - Panel-local kernel choice: the autotuner sees each panel's
//     structure in isolation, so a matrix whose top rows are hub-heavy
//     and whose tail is uniform can run merge on one panel and
//     ELL/hybrid on another, instead of one compromise kernel.
//
// A ShardedPipeline is immutable after construction and safe for
// concurrent use. It intentionally mirrors Pipeline's SpMM/SDDMM
// surface so the serving layer can treat the two interchangeably.
type ShardedPipeline struct {
	orig   *Matrix
	target int // panel nnz target; reskins and rebuilds re-split at it
	panels []shardPanel

	// views pools the per-call panel view structs (dense row-range
	// windows into Y, CSR value windows into SDDMM outputs) so serving
	// calls do not allocate per panel.
	views sync.Pool
}

// shardPanel is one row panel [lo, hi) of the original matrix. pipe
// executes the panel's sub-CSR, which shares ColIdx/Val backing arrays
// with the original matrix (only the rebased RowPtr is panel-owned).
type shardPanel struct {
	lo, hi int
	base   int // original RowPtr[lo]: offset of the panel's first nonzero
	pipe   *Pipeline
}

// shardViews is the pooled per-call scratch: one dense view and one CSR
// view per panel, re-pointed at the caller's operands on every call.
type shardViews struct {
	ys   []dense.Matrix
	outs []sparse.CSR
}

// panelBounds splits m's rows into nnz-balanced panels of roughly
// targetNNZ nonzeros each (the best any row-aligned partitioner can
// do; a single row heavier than targetNNZ gets a panel to itself).
func panelBounds(m *Matrix, targetNNZ int) [][2]int {
	nnz := m.NNZ()
	if targetNNZ <= 0 || nnz == 0 || m.Rows <= 1 {
		return [][2]int{{0, m.Rows}}
	}
	p := 1 + (nnz-1)/targetNNZ
	if p > m.Rows {
		p = m.Rows
	}
	if p <= 1 {
		return [][2]int{{0, m.Rows}}
	}
	mean := float64(nnz) / float64(p)
	bounds := make([][2]int, 0, p)
	lo, cur := 0, 0
	for i := 0; i < m.Rows; i++ {
		rl := m.RowLen(i)
		// Close the panel before this row once it met its target — unless
		// it would leave fewer rows than panels still owed.
		if cur > 0 && float64(cur)+float64(rl)/2 > mean && len(bounds) < p-1 &&
			m.Rows-i >= p-1-len(bounds) {
			bounds = append(bounds, [2]int{lo, i})
			lo, cur = i, 0
		}
		cur += rl
	}
	return append(bounds, [2]int{lo, m.Rows})
}

// NewShardedPipeline splits m into nnz-balanced row panels of roughly
// targetNNZ nonzeros each and preprocesses every panel (in parallel,
// through the process-wide plan cache). targetNNZ <= 0 or a matrix
// smaller than one panel yields a single-panel pipeline, which behaves
// exactly like a plain Pipeline.
func NewShardedPipeline(m *Matrix, cfg Config, targetNNZ int) (*ShardedPipeline, error) {
	return NewShardedPipelineCtx(context.Background(), m, cfg, targetNNZ)
}

// NewShardedPipelineCtx is NewShardedPipeline with cooperative
// cancellation of the per-panel preprocessing builds.
func NewShardedPipelineCtx(ctx context.Context, m *Matrix, cfg Config, targetNNZ int) (*ShardedPipeline, error) {
	s, err := newShardedPipeline(ctx, m, cfg, targetNNZ)
	if err != nil {
		return nil, err
	}
	recordShardPanels(len(s.panels))
	return s, nil
}

// newShardedPipeline builds the panels without recording them in the
// panel-count metric, which counts constructed pipelines only.
func newShardedPipeline(ctx context.Context, m *Matrix, cfg Config, targetNNZ int) (*ShardedPipeline, error) {
	bounds := panelBounds(m, targetNNZ)
	np := len(bounds)
	s := &ShardedPipeline{orig: m, target: targetNNZ, panels: make([]shardPanel, np)}
	err := par.DoCtx(ctx, np, func(w int) error {
		lo, hi := bounds[w][0], bounds[w][1]
		base, end := int(m.RowPtr[lo]), int(m.RowPtr[hi])
		rp := make([]int32, hi-lo+1)
		for i := range rp {
			rp[i] = m.RowPtr[lo+i] - int32(base)
		}
		sub := &sparse.CSR{
			Rows:   hi - lo,
			Cols:   m.Cols,
			RowPtr: rp,
			ColIdx: m.ColIdx[base:end:end],
			Val:    m.Val[base:end:end],
		}
		pipe, err := NewPipelineCtx(ctx, sub, cfg)
		if err != nil {
			return fmt.Errorf("repro: preprocessing panel %d (rows %d–%d): %w", w, lo, hi, err)
		}
		s.panels[w] = shardPanel{lo: lo, hi: hi, base: base, pipe: pipe}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.views.New = func() any {
		return &shardViews{
			ys:   make([]dense.Matrix, np),
			outs: make([]sparse.CSR, np),
		}
	}
	return s, nil
}

// Panels returns the number of row panels.
func (s *ShardedPipeline) Panels() int { return len(s.panels) }

// PanelRange returns panel i's original row range [lo, hi).
func (s *ShardedPipeline) PanelRange(i int) (lo, hi int) {
	return s.panels[i].lo, s.panels[i].hi
}

// PanelKernel returns the SpMM kernel the autotuner chose for panel i —
// panels of one matrix may legitimately run different kernels.
func (s *ShardedPipeline) PanelKernel(i int) Kernel { return s.panels[i].pipe.Kernel() }

// Matrix returns the original (unsharded, unreordered) matrix.
func (s *ShardedPipeline) Matrix() *Matrix { return s.orig }

// putViews drops the caller-operand references before pooling so a
// parked view can never keep a caller's Y or output matrix alive.
func (s *ShardedPipeline) putViews(v *shardViews) {
	for i := range v.ys {
		v.ys[i].Data = nil
		v.outs[i].Val = nil
	}
	s.views.Put(v)
}

// SpMM computes Y = S·X across all panels and returns Y in the original
// row order, from the process-wide dense scratch pool (see
// Pipeline.SpMM for the PutDense recycling contract).
func (s *ShardedPipeline) SpMM(x *Dense) (*Dense, error) {
	return allocInto(dense.Get(s.orig.Rows, x.Cols), dense.Put, func(y *Dense) error {
		return s.SpMMIntoCtx(context.Background(), y, x)
	})
}

// SpMMIntoCtx computes Y = S·X with every panel running concurrently,
// each writing its rows through a zero-copy row-range window into y —
// rows are independent in SpMM, so there is no merge step, and a
// failing or cancelled panel cannot corrupt another panel's rows (on
// error y's contents are unspecified, as with Pipeline). Cancellation
// is observed between kernel chunks inside every panel.
func (s *ShardedPipeline) SpMMIntoCtx(ctx context.Context, y *Dense, x *Dense) error {
	if err := checkSpMMOut(s.orig, y, x); err != nil {
		return err
	}
	v := s.views.Get().(*shardViews)
	defer s.putViews(v)
	return par.DoCtx(ctx, len(s.panels), func(w int) error {
		pn := s.panels[w]
		yv := &v.ys[w]
		yv.Rows, yv.Cols = pn.hi-pn.lo, y.Cols
		yv.Data = y.Data[pn.lo*y.Cols : pn.hi*y.Cols]
		return pn.pipe.SpMMIntoCtx(ctx, yv, x)
	})
}

// SpMMBatchIntoCtx computes every op's Y = S·X in one batched pass per
// panel: the operands are column-stacked once into pooled scratch, each
// panel's kernel runs at the combined width over its row range, and the
// stacked result is scattered back per operand. See
// Pipeline.SpMMBatchIntoCtx.
func (s *ShardedPipeline) SpMMBatchIntoCtx(ctx context.Context, ops []BatchOp) error {
	return kernels.SpMMBatchIntoCtx(ctx, s, ops)
}

// SDDMM computes O = S ⊙ (Y·Xᵀ) across all panels; O has the original
// matrix's structure.
func (s *ShardedPipeline) SDDMM(x, y *Dense) (*Matrix, error) {
	return allocInto(s.orig.Clone(), nil, func(out *Matrix) error {
		return s.SDDMMIntoCtx(context.Background(), out, x, y)
	})
}

// SDDMMIntoCtx computes O = S ⊙ (Y·Xᵀ) into out, which must have the
// original matrix's sparsity structure; only out.Val is written. It
// runs panel-parallel: each panel computes its rows through a CSR view
// sharing the panel's structure arrays whose Val window is the
// corresponding segment of out.Val, and a dense view of the matching Y
// rows. Like SpMM, panel outputs are disjoint by construction.
func (s *ShardedPipeline) SDDMMIntoCtx(ctx context.Context, out *Matrix, x, y *Dense) error {
	if err := checkSDDMMOut(s.orig, out); err != nil {
		return err
	}
	if y.Rows != s.orig.Rows {
		return fmt.Errorf("repro: SDDMM y has %d rows, want %d", y.Rows, s.orig.Rows)
	}
	v := s.views.Get().(*shardViews)
	defer s.putViews(v)
	return par.DoCtx(ctx, len(s.panels), func(w int) error {
		pn := s.panels[w]
		sub := pn.pipe.Matrix()
		ov := &v.outs[w]
		ov.Rows, ov.Cols = sub.Rows, sub.Cols
		ov.RowPtr, ov.ColIdx = sub.RowPtr, sub.ColIdx
		ov.Val = out.Val[pn.base : pn.base+sub.NNZ()]
		yv := &v.ys[w]
		yv.Rows, yv.Cols = pn.hi-pn.lo, y.Cols
		yv.Data = y.Data[pn.lo*y.Cols : pn.hi*y.Cols]
		return pn.pipe.SDDMMIntoCtx(ctx, ov, x, yv)
	})
}

// reskin rebuilds the sharded pipeline for a matrix with the *same
// sparsity structure* but new nonzero values — the value-only mutation
// path of a live sharded tenant. Panel bounds depend only on row
// lengths, so they come out unchanged, and every per-panel plan-cache
// lookup hits on structure: the whole rebuild is an O(nnz) value
// regather, with no LSH, clustering, or tiling.
func (s *ShardedPipeline) reskin(ctx context.Context, m *Matrix) (liveBase, error) {
	return asBase(newShardedPipeline(ctx, m, s.cfg(), s.target))
}

// rebuild preprocesses m from scratch into new panels at the same
// target.
func (s *ShardedPipeline) rebuild(ctx context.Context, m *Matrix, cfg Config, _ *obs.TraceRing, _ *eventSink) (liveBase, error) {
	return asBase(NewShardedPipelineCtx(ctx, m, cfg, s.target))
}

// The rest of liveBase: a sharded base builds synchronously with no
// matrix-wide reorder trial, so it is always settled, never degraded,
// and serves its own breaker fallback. Its first panel stands for it
// where one plan is asked for.

func (s *ShardedPipeline) fallback() baseExec         { return s }
func (s *ShardedPipeline) reordered() bool            { return false }
func (s *ShardedPipeline) cfg() Config                { return s.panels[0].pipe.plan.Cfg }
func (s *ShardedPipeline) lead() *Pipeline            { return s.panels[0].pipe }
func (s *ShardedPipeline) settled() bool              { return true }
func (s *ShardedPipeline) wait(context.Context) error { return nil }
func (s *ShardedPipeline) degradedErr() error         { return nil }

func (s *ShardedPipeline) plans() []*Pipeline {
	ps := make([]*Pipeline, len(s.panels))
	for i := range s.panels {
		ps[i] = s.panels[i].pipe
	}
	return ps
}
