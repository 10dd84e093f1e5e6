package kernels

// HYB (ELL + COO spill) SpMM on the shared executor. ellpack's own SpMM
// methods are single-threaded reference loops; SpMMHybridIntoCtx gives
// the format the same contract as every other kernel entry point (see
// the package comment), so the pipeline can select it per matrix (see
// the kernel autotuner in internal/reorder). A spill-free HYB is plain
// ELLPACK-R.
//
// The ELL part walks the slab column-major (slot-major), mirroring
// the coalesced GPU access pattern: within a chunk the slab reads at
// slot s are contiguous (Cols/Vals[s*rows+lo : s*rows+hi]) while the
// chunk's output rows stay cache-resident. The HYB kernel runs the ELL
// slab first, then folds in the spill entries whose rows fall inside
// the chunk — Spill is row-major sorted and chunk row ranges tile
// [0, rows), so no two chunks write the same output row.

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

func runSpMMELL(j *job, lo, hi int) {
	e, x, y := j.hyb.ELL, j.x, j.y
	for i := lo; i < hi; i++ {
		clear(y.Row(i))
	}
	rows := e.Rows
	for s := 0; s < e.Width; s++ {
		base := s * rows
		for i := lo; i < hi; i++ {
			if s >= int(e.RowLen[i]) {
				continue
			}
			v := e.Vals[base+i]
			xr := x.Row(int(e.Cols[base+i]))
			yi := y.Row(i)
			for k := range yi {
				yi[k] += v * xr[k]
			}
		}
	}
}

func runSpMMHybrid(j *job, lo, hi int) {
	runSpMMELL(j, lo, hi)
	h, x, y := j.hyb, j.x, j.y
	for i := searchSpillRow(h.Spill, int32(lo)); i < len(h.Spill); i++ {
		e := h.Spill[i]
		if int(e.Row) >= hi {
			break
		}
		xr := x.Row(int(e.Col))
		yr := y.Row(int(e.Row))
		for k := range yr {
			yr[k] += e.Val * xr[k]
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
