package gcn

import (
	"context"
	"math"
	"testing"

	"repro/internal/dense"
	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// plainAgg adapts the row-wise kernel to the SpMMer interface.
type plainAgg struct{ s *sparse.CSR }

func (a plainAgg) SpMM(x *dense.Matrix) (*dense.Matrix, error) {
	y := dense.New(a.s.Rows, x.Cols)
	return y, kernels.SpMMRowWiseIntoCtx(context.Background(), y, a.s, x)
}

func testGraph(t *testing.T, n int) (SpMMer, SpMMer, *sparse.CSR) {
	t.Helper()
	adj, err := synth.RMAT(6, 4, 0.57, 0.19, 0.19, 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	return plainAgg{adj}, plainAgg{sparse.Transpose(adj)}, adj
}

func TestNewValidation(t *testing.T) {
	a, at, _ := testGraph(t, 64)
	if _, err := New(a, at, []int{8}, 1); err == nil {
		t.Fatalf("single width accepted")
	}
	m, err := New(a, at, []int{8, 16, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Weights) != 2 || m.Weights[0].Rows != 8 || m.Weights[1].Cols != 4 {
		t.Fatalf("weights shaped wrong")
	}
}

func TestForwardShapes(t *testing.T) {
	a, at, adj := testGraph(t, 64)
	m, err := New(a, at, []int{8, 16, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(adj.Rows, 8, 2)
	out, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != adj.Rows || out.Cols != 4 {
		t.Fatalf("output %v", out)
	}
}

// TestGradientCheck verifies backprop against numerical differentiation
// on a small model: the definitive correctness test for the backward
// pass through the SpMM aggregation.
func TestGradientCheck(t *testing.T) {
	a, at, adj := testGraph(t, 64)
	model, err := New(a, at, []int{4, 6, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(adj.Rows, 4, 6)
	target := dense.NewRandom(adj.Rows, 3, 7)

	grads, _, err := model.Gradients(x, target)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-3
	for l, w := range model.Weights {
		// Spot-check a handful of entries per layer.
		for _, idx := range []int{0, 1, len(w.Data) / 2, len(w.Data) - 1} {
			orig := w.Data[idx]
			w.Data[idx] = orig + eps
			lp, err := model.Loss(x, target)
			if err != nil {
				t.Fatal(err)
			}
			w.Data[idx] = orig - eps
			lm, err := model.Loss(x, target)
			if err != nil {
				t.Fatal(err)
			}
			w.Data[idx] = orig
			numeric := (lp - lm) / (2 * eps)
			analytic := float64(grads[l].Data[idx])
			denom := math.Max(1e-6, math.Abs(numeric)+math.Abs(analytic))
			if rel := math.Abs(numeric-analytic) / denom; rel > 0.05 {
				t.Fatalf("layer %d entry %d: numeric %v vs analytic %v (rel %v)",
					l, idx, numeric, analytic, rel)
			}
		}
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	a, at, adj := testGraph(t, 64)
	model, err := New(a, at, []int{4, 8, 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(adj.Rows, 4, 10)
	target := dense.NewRandom(adj.Rows, 2, 11)
	first, err := model.Loss(x, target)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	prev := first
	for i := 0; i < 300; i++ {
		last, err = model.Step(x, target, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if last > prev*1.5 {
			t.Fatalf("training diverged at step %d: %v -> %v", i, prev, last)
		}
		prev = last
	}
	if last >= first*0.9 {
		t.Fatalf("training did not reduce loss: %v -> %v", first, last)
	}
}
