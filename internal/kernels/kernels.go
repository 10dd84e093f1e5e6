// Package kernels provides the native (CPU, goroutine-parallel) SpMM and
// SDDMM implementations. They are the correctness ground truth for the GPU
// simulator and the executable backend of the examples: the row-wise
// variants implement Alg 1 and Alg 2 of the paper verbatim; the ASpT
// variants execute the tiled representation (dense tiles, then the
// leftover sparse part) and must produce bit-identical structure and
// numerically equal values.
//
// There is one entry point per kernel — SpMMRowWiseIntoCtx,
// SpMMASpTIntoCtx, SpMMMergeIntoCtx, SpMMHybridIntoCtx,
// SDDMMRowWiseIntoCtx and SDDMMASpTIntoCtx — plus the batched
// SpMMBatchIntoCtx. Each validates its operands and hands them to exec,
// which runs the kernel's spec on the shared executor (see executor.go):
// work is load-balanced by nonzero count, cancellation is observed
// between chunks, a kernel panic returns as a *par.PanicError, and every
// pass is traced, timed and attributed. Outputs are caller-provided and
// a steady-state call performs no heap allocations — the building blocks
// of the zero-allocation serving path exposed by the repro package. On
// error the output contents are unspecified.
package kernels

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// kernelSpec is one executor-backed kernel. Its label names the span
// kernel_<label>, the spmmrr_kernel_seconds{kernel=<label>} histogram
// and the attribution aggregate; run loads the kernel's chunk body into
// the job, dispatches it, and reports the nonzeros the pass processed.
type kernelSpec struct {
	label   string
	run     func(j *job) (nnz int, err error)
	span    string
	seconds *obs.Histogram
	attr    *kernelAttr
}

func newKernelSpec(label string, run func(j *job) (int, error)) *kernelSpec {
	return &kernelSpec{
		label: label,
		run:   run,
		span:  "kernel_" + label,
		seconds: obs.Default().Histogram("spmmrr_kernel_seconds",
			"Kernel execution latency by kernel variant.",
			obs.LatencyBuckets(), obs.L("kernel", label)),
		attr: newKernelAttr(label),
	}
}

// Indices into specs, one per kernel entry point.
const (
	spmmRowWise = iota
	spmmASpT
	spmmMerge
	spmmHybrid
	sddmmRowWise
	sddmmASpT
)

// specs is the kernel table.
var specs = [...]*kernelSpec{
	spmmRowWise: newKernelSpec("spmm_rowwise", func(j *job) (int, error) { return csrRows(j, runSpMMRowWise) }),
	spmmASpT:    newKernelSpec("spmm_aspt", func(j *job) (int, error) { return tileRows(j, runSpMMASpT) }),
	spmmMerge:   newKernelSpec("spmm_merge", mergePass),
	spmmHybrid: newKernelSpec("spmm_hyb", func(j *job) (int, error) {
		h := j.hyb
		j.run = runSpMMHybrid
		return int(h.CumWork(h.ELL.Rows)), j.dispatch(h.ELL.Rows, h.CumWork)
	}),
	sddmmRowWise: newKernelSpec("sddmm_rowwise", func(j *job) (int, error) { return csrRows(j, runSDDMMRowWise) }),
	sddmmASpT:    newKernelSpec("sddmm_aspt", func(j *job) (int, error) { return tileRows(j, runSDDMMASpT) }),
}

// exec runs one pass of kernel k over ops: span, pooled job, dispatch,
// attribution flush on success, job return and latency histogram.
func exec(ctx context.Context, k *kernelSpec, ops operands) error {
	start := time.Now()
	sp := obs.TraceFrom(ctx).StartSpan(k.span)
	j := getJob()
	j.ctx, j.attr, j.operands = ctx, k.attr, ops
	nnz, err := k.run(j)
	if err == nil {
		// y has one row per matrix row in every kernel: SpMM's output,
		// SDDMM's left dense operand.
		k.attr.recordPass(j, nnz, ops.y.Rows, ops.x.Cols)
	}
	putJob(j)
	sp.End()
	k.seconds.ObserveSince(start)
	return err
}

// csrRows dispatches body over the CSR operand's rows, balanced by
// nonzeros.
func csrRows(j *job, body func(j *job, lo, hi int)) (int, error) {
	s := j.csr
	j.run = body
	return s.NNZ(), j.dispatch(s.Rows, func(i int) int64 { return int64(s.RowPtr[i]) })
}

// tileRows dispatches body over the ASpT operand's rows, balanced by
// each row's combined tile+rest nonzero count.
func tileRows(j *job, body func(j *job, lo, hi int)) (int, error) {
	t := j.tile
	j.run = body
	return t.Src.NNZ(), j.dispatch(t.Src.Rows, t.CumWork)
}

// parallelRows runs fn over [0, rows) split into contiguous equal-row
// chunks across GOMAXPROCS workers — the seed engine, kept as the
// baseline for the load-balance tests and benchmarks. New code should
// go through job.dispatch, which balances by nonzeros.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// checkSpMM validates Y = S·X for a rows×cols sparse operand.
func checkSpMM(rows, cols int, x, y *dense.Matrix) error {
	if cols != x.Rows {
		return fmt.Errorf("kernels: SpMM shape mismatch: S is %dx%d, X is %dx%d",
			rows, cols, x.Rows, x.Cols)
	}
	if y.Rows != rows || y.Cols != x.Cols {
		return fmt.Errorf("kernels: SpMM output is %dx%d, want %dx%d",
			y.Rows, y.Cols, rows, x.Cols)
	}
	return nil
}

// SpMMRowWiseIntoCtx computes Y = S·X with the row-wise algorithm
// (Alg 1) into the caller-provided y (S.Rows × X.Cols), overwriting its
// contents.
func SpMMRowWiseIntoCtx(ctx context.Context, y *dense.Matrix, s *sparse.CSR, x *dense.Matrix) error {
	if err := checkSpMM(s.Rows, s.Cols, x, y); err != nil {
		return err
	}
	return exec(ctx, specs[spmmRowWise], operands{csr: s, x: x, y: y})
}

func runSpMMRowWise(j *job, lo, hi int) {
	s, x, y := j.csr, j.x, j.y
	for i := lo; i < hi; i++ {
		yi := y.Row(i)
		clear(yi)
		cols, vals := s.RowCols(i), s.RowVals(i)
		for jj := range cols {
			v := vals[jj]
			xr := x.Row(int(cols[jj]))
			for k := range yi {
				yi[k] += v * xr[k]
			}
		}
	}
}

// SpMMASpTIntoCtx computes Y = S·X from the ASpT representation into
// the caller-provided y, overwriting its contents: dense-tile nonzeros
// and leftover nonzeros are accumulated separately per row (the two GPU
// kernels of §2.3) — both traversals write the same output row, so a
// single pass per row suffices on the CPU.
func SpMMASpTIntoCtx(ctx context.Context, y *dense.Matrix, t *aspt.Matrix, x *dense.Matrix) error {
	if err := checkSpMM(t.Src.Rows, t.Src.Cols, x, y); err != nil {
		return err
	}
	return exec(ctx, specs[spmmASpT], operands{tile: t, x: x, y: y})
}

func runSpMMASpT(j *job, lo, hi int) {
	t, x, y := j.tile, j.x, j.y
	for i := lo; i < hi; i++ {
		yi := y.Row(i)
		clear(yi)
		// Dense-tile part.
		tcols, tvals := t.TileRowCols(i), t.TileRowVals(i)
		for jj := range tcols {
			v := tvals[jj]
			xr := x.Row(int(tcols[jj]))
			for k := range yi {
				yi[k] += v * xr[k]
			}
		}
		// Leftover sparse part.
		rcols, rvals := t.Rest.RowCols(i), t.Rest.RowVals(i)
		for jj := range rcols {
			v := rvals[jj]
			xr := x.Row(int(rcols[jj]))
			for k := range yi {
				yi[k] += v * xr[k]
			}
		}
	}
}

// checkSDDMM validates O = S ⊙ (Y·Xᵀ): the dense operands' shapes, and
// that out mirrors s's structure. The full pattern comparison is O(nnz)
// with no allocations — negligible next to the O(nnz·K) kernel.
func checkSDDMM(out, s *sparse.CSR, x, y *dense.Matrix) error {
	if x.Cols != y.Cols {
		return fmt.Errorf("kernels: SDDMM K mismatch: X has %d cols, Y has %d", x.Cols, y.Cols)
	}
	if y.Rows != s.Rows {
		return fmt.Errorf("kernels: SDDMM shape mismatch: Y has %d rows, S has %d", y.Rows, s.Rows)
	}
	if x.Rows != s.Cols {
		return fmt.Errorf("kernels: SDDMM shape mismatch: X has %d rows, S has %d cols", x.Rows, s.Cols)
	}
	// Writing values in place over the source is allowed.
	if out != s && !out.SameStructure(s) {
		return fmt.Errorf("kernels: SDDMM output structure differs from S (%s vs %s)", out, s)
	}
	return nil
}

// SDDMMRowWiseIntoCtx computes O = S ⊙ (Y·Xᵀ) with the row-wise
// algorithm (Alg 2), O[i][c] = S[i][c] · Σ_k Y[i][k]·X[c][k], into the
// caller-provided out, which must have S's sparsity structure (e.g.
// S.Clone(), a previous result, or S itself for in-place value
// rewriting). Only out.Val is written.
func SDDMMRowWiseIntoCtx(ctx context.Context, out, s *sparse.CSR, x, y *dense.Matrix) error {
	if err := checkSDDMM(out, s, x, y); err != nil {
		return err
	}
	return exec(ctx, specs[sddmmRowWise], operands{csr: s, x: x, y: y, out: out.Val})
}

func runSDDMMRowWise(j *job, lo, hi int) {
	s, x, y := j.csr, j.x, j.y
	for i := lo; i < hi; i++ {
		yi := y.Row(i)
		cols := s.RowCols(i)
		svals := s.RowVals(i)
		ovals := j.out[s.RowPtr[i]:s.RowPtr[i+1]]
		for jj := range cols {
			xr := x.Row(int(cols[jj]))
			dot := float32(0)
			for k := range yi {
				dot += yi[k] * xr[k]
			}
			ovals[jj] = dot * svals[jj]
		}
	}
}

// SDDMMASpTIntoCtx computes SDDMM from the ASpT representation into the
// caller-provided out, which must have the *source* matrix's CSR
// structure (ASpT preserves CSR compatibility, one of its selling
// points): tile and rest nonzeros are scattered back to their source
// positions. Only out.Val is written.
func SDDMMASpTIntoCtx(ctx context.Context, out *sparse.CSR, t *aspt.Matrix, x, y *dense.Matrix) error {
	if err := checkSDDMM(out, t.Src, x, y); err != nil {
		return err
	}
	return exec(ctx, specs[sddmmASpT], operands{tile: t, x: x, y: y, out: out.Val})
}

func runSDDMMASpT(j *job, lo, hi int) {
	t, x, y := j.tile, j.x, j.y
	s := t.Src
	// The tile/rest partition changes *where* each nonzero's X row is
	// read from on the GPU (shared memory vs global), not the arithmetic:
	// every nonzero is scaled by its own source value regardless of
	// partition. The partition-aware traffic accounting lives in gpusim;
	// here the two partitions are walked to mirror the execution order.
	for i := lo; i < hi; i++ {
		yi := y.Row(i)
		ovals := j.out[s.RowPtr[i]:s.RowPtr[i+1]]
		svals := s.RowVals(i)
		cols := s.RowCols(i)
		// Tile nonzeros first (the dense-tile kernel), then the rest
		// (the row-wise kernel); position within the source row is
		// recovered by column index, which is unique per row.
		for pass := 0; pass < 2; pass++ {
			var pcols []int32
			if pass == 0 {
				pcols = t.TileRowCols(i)
			} else {
				pcols = t.Rest.RowCols(i)
			}
			for _, c := range pcols {
				xr := x.Row(int(c))
				dot := float32(0)
				for k := range yi {
					dot += yi[k] * xr[k]
				}
				jj := searchInt32(cols, c)
				ovals[jj] = dot * svals[jj]
			}
		}
	}
}

// searchInt32 returns the index of c in the sorted slice cols. The caller
// guarantees presence (CSR rows have unique, sorted columns).
func searchInt32(cols []int32, c int32) int {
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Flops returns the floating-point operation count of an SpMM or SDDMM on
// a matrix with nnz nonzeros and K dense columns: 2·nnz·K (one multiply
// and one add per nonzero per column), the normalisation used for the
// paper's GFLOP/s plots.
func Flops(nnz, k int) float64 { return 2 * float64(nnz) * float64(k) }
