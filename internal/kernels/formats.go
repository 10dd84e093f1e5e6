package kernels

// HYB (ELL + COO spill) SpMM on the shared executor. ellpack's own SpMM
// methods are single-threaded reference loops; SpMMHybridIntoCtx gives
// the format the same contract as every other kernel entry point (see
// the package comment), so the pipeline can select it per matrix (see
// the kernel autotuner in internal/reorder). A spill-free HYB is plain
// ELLPACK-R.
//
// Each chunk computes its output rows one at a time and in full: the
// row's ELL slots 0..RowLen-1 in order (slot s of row i sits at
// Cols/Vals[s*rows+i]), then its spill entries, so every output row
// accumulates in the row's nonzero order while it stays in L1 — the
// per-row order of the ELL slab followed by the spill. Spill is
// row-major sorted and chunk row ranges tile [0, rows), so no two
// chunks write the same output row.

import (
	"context"

	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/sparse"
)

// SpMMHybridIntoCtx computes Y = H·X from the HYB representation into
// the caller-provided y (H.ELL.Rows × X.Cols), overwriting its contents.
func SpMMHybridIntoCtx(ctx context.Context, y *dense.Matrix, h *ellpack.Hybrid, x *dense.Matrix) error {
	if err := checkSpMM(h.ELL.Rows, h.ELL.NCols, x, y); err != nil {
		return err
	}
	return exec(ctx, specs[spmmHybrid], operands{hyb: h, x: x, y: y})
}

func runSpMMHybrid(j *job, lo, hi int) {
	e, spill, x, y := j.hyb.ELL, j.hyb.Spill, j.x, j.y
	stride := e.Rows
	sp := searchSpillRow(spill, int32(lo))
	for i := lo; i < hi; i++ {
		yi := y.Row(i)
		clear(yi)
		n, p, s := int(e.RowLen[i]), i, 0
		for ; s+4 <= n; s += 4 {
			p0, p1, p2, p3 := p, p+stride, p+2*stride, p+3*stride
			axpy4(yi, e.Vals[p0], e.Vals[p1], e.Vals[p2], e.Vals[p3],
				x.Row(int(e.Cols[p0])), x.Row(int(e.Cols[p1])), x.Row(int(e.Cols[p2])), x.Row(int(e.Cols[p3])))
			p += 4 * stride
		}
		for ; s < n; s++ {
			axpy1(yi, e.Vals[p], x.Row(int(e.Cols[p])))
			p += stride
		}
		end := sp
		for end < len(spill) && int(spill[end].Row) == i {
			end++
		}
		for ; sp+4 <= end; sp += 4 {
			q := spill[sp : sp+4]
			axpy4(yi, q[0].Val, q[1].Val, q[2].Val, q[3].Val,
				x.Row(int(q[0].Col)), x.Row(int(q[1].Col)), x.Row(int(q[2].Col)), x.Row(int(q[3].Col)))
		}
		for ; sp < end; sp++ {
			axpy1(yi, spill[sp].Val, x.Row(int(spill[sp].Col)))
		}
	}
}

// searchSpillRow returns the index of the first spill entry with
// Row >= r (spill is row-major sorted by construction).
func searchSpillRow(spill []sparse.Entry, r int32) int {
	lo, hi := 0, len(spill)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if spill[mid].Row < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
