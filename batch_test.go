package repro_test

import (
	"context"
	"math"
	"testing"

	"repro"
)

// TestPipelineSpMMBatchMatchesInto checks the batched entry point on a
// decided (reordered) pipeline against per-operand SpMMIntoCtx calls.
// Stacking only rearranges which columns a pass computes — the
// per-column arithmetic and the row permutation are unchanged — so the
// comparison is bit-exact, operand by operand, across mixed widths.
func TestPipelineSpMMBatchMatchesInto(t *testing.T) {
	m := scrambled(t)
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ops := make([]repro.BatchOp, 5)
	wants := make([]*repro.Dense, len(ops))
	for i := range ops {
		k := 1 + i%3
		x := repro.NewRandomDense(m.Cols, k, int64(100+i))
		ops[i] = repro.BatchOp{Y: repro.NewDense(m.Rows, k), X: x}
		w := repro.NewDense(m.Rows, k)
		if err := p.SpMMIntoCtx(ctx, w, x); err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	if err := p.SpMMBatchIntoCtx(ctx, ops); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		for j := range wants[i].Data {
			if ops[i].Y.Data[j] != wants[i].Data[j] {
				t.Fatalf("op %d diverges from its independent pass at %d", i, j)
			}
		}
	}
}

// TestOnlinePipelineSpMMBatch runs a batch through a freshly built
// online pipeline: the construction already decided the §4 trial, the
// single pass at the combined width runs on the winner and scatters
// each operand's columns back correctly, and the batch leaves the
// decision untouched.
func TestOnlinePipelineSpMMBatch(t *testing.T) {
	m := scrambled(t)
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x1 := repro.NewRandomDense(m.Cols, 2, 1)
	x2 := repro.NewRandomDense(m.Cols, 3, 2)
	want1, err := repro.SpMM(m, x1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := repro.SpMM(m, x2)
	if err != nil {
		t.Fatal(err)
	}
	ops := []repro.BatchOp{
		{Y: repro.NewDense(m.Rows, 2), X: x1},
		{Y: repro.NewDense(m.Rows, 3), X: x2},
	}
	if done, _ := o.Decided(); !done {
		t.Fatalf("not decided after construction")
	}
	rrT, nrT := o.TrialTimes()
	if err := o.SpMMBatchIntoCtx(context.Background(), ops); err != nil {
		t.Fatal(err)
	}
	if rr2, nr2 := o.TrialTimes(); rr2 != rrT || nr2 != nrT {
		t.Fatalf("batched call re-ran the trial")
	}
	for i, want := range []*repro.Dense{want1, want2} {
		got := ops[i].Y
		for j := range want.Data {
			if d := math.Abs(float64(want.Data[j] - got.Data[j])); d > 1e-4 {
				t.Fatalf("op %d diverges from baseline at %d by %v", i, j, d)
			}
		}
	}
}

// TestPipelineSpMMPooledOutput pins the pooled-output contract of
// Pipeline.SpMM: the returned matrix may be recycled scratch
// with arbitrary prior contents, so the pipeline must fully overwrite
// it. Seed the pool with a poisoned matrix of exactly the result shape
// and check the values still match the SpMMIntoCtx path.
func TestPipelineSpMMPooledOutput(t *testing.T) {
	m := scrambled(t)
	p, err := repro.NewPipeline(m, repro.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 8, 3)
	want := repro.NewDense(m.Rows, 8)
	if err := p.SpMMIntoCtx(context.Background(), want, x); err != nil {
		t.Fatal(err)
	}
	poison := repro.GetDense(m.Rows, 8)
	for i := range poison.Data {
		poison.Data[i] = float32(math.NaN())
	}
	repro.PutDense(poison)
	y, err := p.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	defer repro.PutDense(y)
	if y.Rows != m.Rows || y.Cols != 8 {
		t.Fatalf("pooled output has shape %dx%d, want %dx%d", y.Rows, y.Cols, m.Rows, 8)
	}
	for i := range want.Data {
		if y.Data[i] != want.Data[i] {
			t.Fatalf("pooled SpMM output diverges at %d (stale scratch leaked through?)", i)
		}
	}
}
