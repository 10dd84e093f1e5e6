package kernels

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// approxEqual compares two dense outputs with a floating-point
// tolerance: the merge kernel sums a split row's fragments in a
// different association order than the row-wise kernel, so bit equality
// is not guaranteed (or expected).
func approxEqual(t *testing.T, name string, got, want *dense.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		g := got.Data[i]
		tol := 1e-3 * math.Max(1, math.Abs(float64(w)))
		if math.Abs(float64(g-w)) > tol {
			t.Fatalf("%s: element %d = %v, want %v", name, i, g, w)
		}
	}
}

// edgeMatrices are the hand-built shapes ISSUE calls out: empty rows in
// every position, a matrix with no rows, an all-empty matrix, and a hub
// row holding >50% of all nonzeros (the row-wise straggler case).
func edgeMatrices(t *testing.T) map[string]*sparse.CSR {
	t.Helper()
	build := func(rows, cols int, sets [][]int32) *sparse.CSR {
		m, err := sparse.FromRows(rows, cols, sets, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	hub := make([]int32, 40) // row 2 holds 40 of 76 nonzeros
	for i := range hub {
		hub[i] = int32(i)
	}
	sets := make([][]int32, 64)
	sets[2] = hub
	for i := 4; i < 40; i++ {
		sets[i] = []int32{int32(i % 41)}
	}
	return map[string]*sparse.CSR{
		"zero-rows":      build(0, 8, nil),
		"all-empty":      build(16, 8, make([][]int32, 16)),
		"leading-empty":  build(6, 8, [][]int32{{}, {}, {0, 3}, {1}, {}, {2, 5, 7}}),
		"trailing-empty": build(6, 8, [][]int32{{0, 3}, {1}, {2, 5, 7}, {}, {}, {}}),
		"hub-majority":   build(64, 41, sets),
		"single-row":     build(1, 8, [][]int32{{0, 2, 4, 6}}),
		"single-nonzero": build(5, 5, [][]int32{{}, {}, {3}, {}, {}}),
		"dense-tiny":     build(3, 3, [][]int32{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}),
	}
}

// spillFreeHybrid builds m as a HYB whose slab is as wide as its
// longest row (the quantile-1 width), so nothing spills and the hybrid
// kernel runs the pure ELL path.
func spillFreeHybrid(t *testing.T, m *sparse.CSR) *ellpack.Hybrid {
	t.Helper()
	h, err := ellpack.FromCSRHybrid(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Spill) != 0 {
		t.Fatalf("quantile-1 HYB spilled %d entries", len(h.Spill))
	}
	return h
}

// TestKernelsAgreeAcrossCorpus is the cross-kernel property test: ELL
// (a spill-free HYB), HYB, merge, and row-wise SpMM must produce
// identical output (within float tolerance) on every synth corpus
// family and on the edge shapes above.
func TestKernelsAgreeAcrossCorpus(t *testing.T) {
	mats := edgeMatrices(t)
	entries, err := synth.Corpus(synth.Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		mats["corpus/"+e.Name] = e.M
	}
	for name, m := range mats {
		for _, k := range []int{1, 8} {
			x := dense.NewRandom(m.Cols, k, 7)
			want, err := newSpMMRowWise(m, x)
			if err != nil {
				t.Fatalf("%s: rowwise: %v", name, err)
			}

			got, err := newSpMMMerge(m, x)
			if err != nil {
				t.Fatalf("%s: merge: %v", name, err)
			}
			approxEqual(t, name+"/merge", got, want)

			got, err = newSpMMHybrid(spillFreeHybrid(t, m), x)
			if err != nil {
				t.Fatalf("%s: ell: %v", name, err)
			}
			approxEqual(t, name+"/ell", got, want)

			hyb, err := ellpack.FromCSRHybrid(m, 0)
			if err != nil {
				t.Fatalf("%s: FromCSRHybrid: %v", name, err)
			}
			got, err = newSpMMHybrid(hyb, x)
			if err != nil {
				t.Fatalf("%s: hyb: %v", name, err)
			}
			approxEqual(t, name+"/hyb", got, want)
		}
	}
}

// TestMergeManyChunksOneRow forces far more chunks than rows so a
// single row is split across many carry slots — the pure carry path.
func TestMergeManyChunksOneRow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cols := 4096
	set := make([]int32, cols)
	for i := range set {
		set[i] = int32(i)
	}
	m, err := sparse.FromRows(1, cols, [][]int32{set}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(cols, 8, 3)
	want, err := newSpMMRowWise(m, x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newSpMMMerge(m, x)
	if err != nil {
		t.Fatal(err)
	}
	approxEqual(t, "one-row", got, want)
}

func TestFormatShapeErrors(t *testing.T) {
	m := hubMatrix(t)
	hyb, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	badX := dense.New(m.Cols+1, 4)
	if _, err := newSpMMMerge(m, badX); err == nil {
		t.Fatal("merge accepted mismatched X")
	}
	if _, err := newSpMMHybrid(hyb, badX); err == nil {
		t.Fatal("HYB accepted mismatched X")
	}
	x := dense.New(m.Cols, 4)
	badY := dense.New(m.Rows+1, 4)
	if err := SpMMMergeIntoCtx(context.Background(), badY, m, x); err == nil {
		t.Fatal("merge accepted mismatched Y")
	}
	if err := SpMMHybridIntoCtx(context.Background(), badY, hyb, x); err == nil {
		t.Fatal("HYB accepted mismatched Y")
	}
}

// TestNewIntoSteadyStateAllocations extends the zero-allocation
// contract to the merge, ELL, and HYB paths.
func TestNewIntoSteadyStateAllocations(t *testing.T) {
	m := hubMatrix(t)
	ell := spillFreeHybrid(t, m)
	hyb, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(m.Cols, 16, 1)
	y := dense.New(m.Rows, 16)
	for name, call := range map[string]func() error{
		"merge": func() error { return SpMMMergeIntoCtx(context.Background(), y, m, x) },
		"ell":   func() error { return SpMMHybridIntoCtx(context.Background(), y, ell, x) },
		"hyb":   func() error { return SpMMHybridIntoCtx(context.Background(), y, hyb, x) },
	} {
		assertZeroAllocsAfterWarmup(t, name, func() {
			if err := call(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNewKernelHardening checks the fault-injection and cancellation
// contract on the merge, ELL, and HYB paths.
func TestNewKernelHardening(t *testing.T) {
	m := hubMatrix(t)
	ell := spillFreeHybrid(t, m)
	hyb, err := ellpack.FromCSRHybrid(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(m.Cols, 8, 1)
	y := dense.New(m.Rows, 8)
	calls := map[string]func(context.Context) error{
		"merge": func(ctx context.Context) error { return SpMMMergeIntoCtx(ctx, y, m, x) },
		"ell":   func(ctx context.Context) error { return SpMMHybridIntoCtx(ctx, y, ell, x) },
		"hyb":   func(ctx context.Context) error { return SpMMHybridIntoCtx(ctx, y, hyb, x) },
	}
	for name, call := range calls {
		undo := faultinject.ErrorAt("kernels.exec")
		if err := call(context.Background()); !errors.Is(err, faultinject.Err) {
			t.Fatalf("%s with fault = %v, want faultinject.Err", name, err)
		}
		undo()
		faultinject.Reset()

		undo = faultinject.PanicAt("kernels.exec")
		err := call(context.Background())
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("%s panic surfaced as %v, want *par.PanicError", name, err)
		}
		undo()
		faultinject.Reset()

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := call(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled %s = %v, want context.Canceled", name, err)
		}

		if err := call(context.Background()); err != nil {
			t.Fatalf("clean %s after faults: %v", name, err)
		}
	}
}
