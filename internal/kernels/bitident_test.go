package kernels

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// The scalar loops below are the kernels as they were before the inner
// loops were register-blocked: one sweep of the output row per nonzero
// (SpMM), one serial dot product per nonzero (SDDMM), the ELL slab
// walked slot-major before the spill, and ASpT SDDMM locating each
// tile/rest nonzero in its source row by binary search. They are the
// reference TestKernelsBitIdenticalToScalar holds the blocked kernels
// to, bit for bit.

func scalarSpMMRowWise(y *dense.Matrix, s *sparse.CSR, x *dense.Matrix) {
	for i := 0; i < s.Rows; i++ {
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

func scalarSpMMASpT(y *dense.Matrix, t *aspt.Matrix, x *dense.Matrix) {
	for i := 0; i < t.Src.Rows; i++ {
		yi := y.Row(i)
		clear(yi)
		tcols, tvals := t.TileRowCols(i), t.TileRowVals(i)
		for jj := range tcols {
			v := tvals[jj]
			xr := x.Row(int(tcols[jj]))
			for k := range yi {
				yi[k] += v * xr[k]
			}
		}
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

func scalarSpMMHybrid(y *dense.Matrix, h *ellpack.Hybrid, x *dense.Matrix) {
	e := h.ELL
	for i := 0; i < e.Rows; i++ {
		clear(y.Row(i))
	}
	for s := 0; s < e.Width; s++ {
		base := s * e.Rows
		for i := 0; i < e.Rows; i++ {
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
	for _, en := range h.Spill {
		xr := x.Row(int(en.Col))
		yr := y.Row(int(en.Row))
		for k := range yr {
			yr[k] += en.Val * xr[k]
		}
	}
}

func scalarSDDMMRowWise(out []float32, s *sparse.CSR, x, y *dense.Matrix) {
	for i := 0; i < s.Rows; i++ {
		yi := y.Row(i)
		cols, svals := s.RowCols(i), s.RowVals(i)
		ovals := out[s.RowPtr[i]:s.RowPtr[i+1]]
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

func scalarSDDMMASpT(out []float32, t *aspt.Matrix, x, y *dense.Matrix) {
	s := t.Src
	for i := 0; i < s.Rows; i++ {
		yi := y.Row(i)
		ovals := out[s.RowPtr[i]:s.RowPtr[i+1]]
		svals, cols := s.RowVals(i), s.RowCols(i)
		for _, pcols := range [][]int32{t.TileRowCols(i), t.Rest.RowCols(i)} {
			for _, c := range pcols {
				xr := x.Row(int(c))
				dot := float32(0)
				for k := range yi {
					dot += yi[k] * xr[k]
				}
				jj := scalarSearchInt32(cols, c)
				ovals[jj] = dot * svals[jj]
			}
		}
	}
}

func scalarSearchInt32(cols []int32, c int32) int {
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

// lenResidues returns how many of the given per-row lengths fall in
// each residue class mod 4.
func lenResidues(rows int, rowLen func(i int) int) [4]int {
	var r [4]int
	for i := 0; i < rows; i++ {
		r[rowLen(i)%4]++
	}
	return r
}

// dropRowTails returns m with the last drop(i) nonzeros of each row i
// removed.
func dropRowTails(m *sparse.CSR, drop func(i int) int) *sparse.CSR {
	out := &sparse.CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int32, 1, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		n := max(m.RowLen(i)-drop(i), 0)
		out.ColIdx = append(out.ColIdx, m.RowCols(i)[:n]...)
		out.Val = append(out.Val, m.RowVals(i)[:n]...)
		out.RowPtr = append(out.RowPtr, int32(len(out.ColIdx)))
	}
	return out
}

func requireAllResidues(t *testing.T, what string, r [4]int) {
	t.Helper()
	for m, n := range r {
		if n == 0 {
			t.Fatalf("%s: no row length ≡ %d mod 4 (%v); the blocked loops' tails go untested", what, m, r)
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d is %v (%#08x), scalar loop gives %v (%#08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestKernelsBitIdenticalToScalar holds every SpMM and SDDMM kernel to
// the scalar loops above, bit for bit, on R-MAT, banded and scrambled
// matrices whose row lengths — whole rows, ASpT tile and rest parts,
// ELL slots and per-row HYB spill — cover every residue mod 4, at
// widths on both sides of the four-nonzero blocking and of common
// vector widths.
// GOMAXPROCS 4 forces multi-chunk dispatch, so chunk boundaries (the
// HYB spill cursor among them) fall inside the matrices.
func TestKernelsBitIdenticalToScalar(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	mats := []struct {
		name  string
		build func() (*sparse.CSR, error)
		// hybQ is the HYB slab quantile: narrow enough that the family
		// spills, wide enough that its ELL slots cover every residue.
		hybQ float64
	}{
		{"rmat", func() (*sparse.CSR, error) { return synth.RMAT(10, 8, 0.57, 0.19, 0.19, 5) }, 0.75},
		{"banded", func() (*sparse.CSR, error) {
			// Banded rows all hold nnzPerRow nonzeros; trimming row i by
			// i mod 12 spreads them over 3..14.
			m, err := synth.Banded(600, 700, 48, 14, 6)
			if err != nil {
				return nil, err
			}
			return dropRowTails(m, func(i int) int { return i % 12 }), nil
		}, 0.5},
		{"scrambled", func() (*sparse.CSR, error) {
			return synth.Clustered(synth.ClusterParams{
				Rows: 512, Cols: 1024, Clusters: 16, PrototypeNNZ: 24,
				Keep: 0.8, Noise: 2, Seed: 7, Scrambled: true,
			})
		}, 0.5},
	}
	ctx := context.Background()
	for _, mc := range mats {
		m, err := mc.build()
		if err != nil {
			t.Fatal(err)
		}
		tl, err := aspt.Build(m, aspt.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		hyb, err := ellpack.FromCSRHybrid(m, mc.hybQ)
		if err != nil {
			t.Fatal(err)
		}
		spill := make([]int, m.Rows)
		for _, e := range hyb.Spill {
			spill[e.Row]++
		}
		requireAllResidues(t, mc.name+" rows", lenResidues(m.Rows, m.RowLen))
		requireAllResidues(t, mc.name+" ASpT tile", lenResidues(m.Rows, func(i int) int { return len(tl.TileRowCols(i)) }))
		requireAllResidues(t, mc.name+" ASpT rest", lenResidues(m.Rows, tl.Rest.RowLen))
		requireAllResidues(t, mc.name+" ELL slots", lenResidues(m.Rows, func(i int) int { return int(hyb.ELL.RowLen[i]) }))
		requireAllResidues(t, mc.name+" HYB spill", lenResidues(m.Rows, func(i int) int { return spill[i] }))
		for _, k := range []int{1, 2, 3, 4, 5, 8, 31, 32, 33} {
			x := dense.NewRandom(m.Cols, k, int64(10+k))
			yd := dense.NewRandom(m.Rows, k, int64(20+k))
			want := dense.New(m.Rows, k)
			got := dense.NewRandom(m.Rows, k, 3) // stale contents must be overwritten
			tag := func(kernel string) string { return fmt.Sprintf("%s/K=%d/%s", mc.name, k, kernel) }

			scalarSpMMRowWise(want, m, x)
			if err := SpMMRowWiseIntoCtx(ctx, got, m, x); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, tag("spmm_rowwise"), got.Data, want.Data)

			scalarSpMMASpT(want, tl, x)
			if err := SpMMASpTIntoCtx(ctx, got, tl, x); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, tag("spmm_aspt"), got.Data, want.Data)

			scalarSpMMHybrid(want, hyb, x)
			if err := SpMMHybridIntoCtx(ctx, got, hyb, x); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, tag("spmm_hyb"), got.Data, want.Data)

			wantS, gotS := make([]float32, m.NNZ()), m.Clone()
			scalarSDDMMRowWise(wantS, m, x, yd)
			if err := SDDMMRowWiseIntoCtx(ctx, gotS, m, x, yd); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, tag("sddmm_rowwise"), gotS.Val, wantS)

			scalarSDDMMASpT(wantS, tl, x, yd)
			gotS = m.Clone()
			if err := SDDMMASpTIntoCtx(ctx, gotS, tl, x, yd); err != nil {
				t.Fatal(err)
			}
			requireSameBits(t, tag("sddmm_aspt"), gotS.Val, wantS)
		}
	}
}
