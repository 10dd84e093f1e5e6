package eigen

import (
	"context"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/sparse"
)

type plainOp struct{ s *sparse.CSR }

func (o plainOp) SpMM(x *dense.Matrix) (*dense.Matrix, error) {
	y := dense.New(o.s.Rows, x.Cols)
	return y, kernels.SpMMRowWiseIntoCtx(context.Background(), y, o.s, x)
}

// diagMatrix builds a diagonal matrix with the given entries.
func diagMatrix(t *testing.T, d []float32) *sparse.CSR {
	t.Helper()
	sets := make([][]int32, len(d))
	vals := make([][]float32, len(d))
	for i := range d {
		sets[i] = []int32{int32(i)}
		vals[i] = []float32{d[i]}
	}
	m, err := sparse.FromRows(len(d), len(d), sets, vals)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDiagonalEigenvalues(t *testing.T) {
	// Diagonal operator: eigenvalues are the diagonal entries; the block
	// converges onto the largest ones.
	d := make([]float32, 50)
	for i := range d {
		d[i] = float32(i + 1) // eigenvalues 1..50
	}
	m := diagMatrix(t, d)
	res, err := BlockPowerIteration(plainOp{m}, 50, 3, 500, 1e-10, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{50, 49, 48}
	got := append([]float64(nil), res.Values...)
	// The block spans the top-3 invariant subspace; the Rayleigh
	// quotients converge to the top eigenvalues (any column order).
	for _, w := range want {
		found := false
		for _, g := range got {
			if math.Abs(g-w) < 0.05 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("eigenvalue %v not found in %v (iters %d)", w, got, res.Iterations)
		}
	}
}

func TestEigenvectorsOrthonormal(t *testing.T) {
	d := make([]float32, 30)
	for i := range d {
		d[i] = float32(30 - i)
	}
	m := diagMatrix(t, d)
	res, err := BlockPowerIteration(plainOp{m}, 30, 4, 300, 1e-9, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Vectors
	for a := 0; a < v.Cols; a++ {
		for b := 0; b < v.Cols; b++ {
			var dot float64
			for i := 0; i < v.Rows; i++ {
				dot += float64(v.At(i, a)) * float64(v.At(i, b))
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-4 {
				t.Fatalf("vᵀv[%d][%d] = %v, want %v", a, b, dot, want)
			}
		}
	}
}

func TestResidualSmall(t *testing.T) {
	// ‖A·v − λ·v‖ should be small for the dominant pair.
	d := []float32{10, 3, 2, 1, 0.5, 0.1}
	m := diagMatrix(t, d)
	res, err := BlockPowerIteration(plainOp{m}, 6, 1, 400, 1e-12, 3)
	if err != nil {
		t.Fatal(err)
	}
	av, err := plainOp{m}.SpMM(res.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	lambda := res.Values[0]
	var resid float64
	for i := 0; i < 6; i++ {
		r := float64(av.At(i, 0)) - lambda*float64(res.Vectors.At(i, 0))
		resid += r * r
	}
	if math.Sqrt(resid) > 1e-3 {
		t.Fatalf("residual %v too large (λ=%v)", math.Sqrt(resid), lambda)
	}
}

func TestValidation(t *testing.T) {
	m := diagMatrix(t, []float32{1, 2})
	if _, err := BlockPowerIteration(plainOp{m}, 2, 0, 10, 1e-6, 1); err == nil {
		t.Fatalf("block 0 accepted")
	}
	if _, err := BlockPowerIteration(plainOp{m}, 2, 3, 10, 1e-6, 1); err == nil {
		t.Fatalf("block > n accepted")
	}
	if _, err := BlockPowerIteration(plainOp{m}, 2, 1, 0, 1e-6, 1); err == nil {
		t.Fatalf("maxIter 0 accepted")
	}
}

func TestOrthonormalizeCollapse(t *testing.T) {
	// Two identical columns collapse in MGS.
	x := dense.New(3, 2)
	for i := 0; i < 3; i++ {
		x.Set(i, 0, 1)
		x.Set(i, 1, 1)
	}
	if err := orthonormalize(x); err == nil {
		t.Fatalf("collapsed column accepted")
	}
}
