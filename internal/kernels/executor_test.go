package kernels

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// TestBalancedChunksTile checks the partitioning invariant: for any
// non-decreasing prefix-sum function, the chunks tile [0, rows) exactly
// — no gaps, no overlaps, in order.
func TestBalancedChunksTile(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(200)
		// Random per-row work, including long zero stretches and hubs.
		prefix := make([]int64, rows+1)
		for i := 0; i < rows; i++ {
			w := int64(0)
			switch rng.Intn(4) {
			case 0: // empty row
			case 1:
				w = int64(rng.Intn(5))
			default:
				w = int64(rng.Intn(1000))
			}
			prefix[i+1] = prefix[i] + w
		}
		nchunks := 1 + rng.Intn(40)
		chunks := appendBalancedChunks(nil, rows, func(i int) int64 { return prefix[i] }, nchunks)
		if len(chunks) == 0 || len(chunks) > nchunks {
			return false
		}
		next := 0
		for _, c := range chunks {
			if c.lo != next || c.hi <= c.lo || c.hi > rows {
				return false
			}
			next = c.hi
		}
		return next == rows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBalancedChunksBalance checks that on a skewed distribution no
// chunk (other than one forced by a single giant row) carries more than
// a couple of equal shares of the total work.
func TestBalancedChunksBalance(t *testing.T) {
	rows := 1000
	prefix := make([]int64, rows+1)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < rows; i++ {
		w := int64(1 + rng.Intn(4))
		if i%97 == 0 {
			w = 500 // hubs
		}
		prefix[i+1] = prefix[i] + w
	}
	nchunks := 16
	chunks := appendBalancedChunks(nil, rows, func(i int) int64 { return prefix[i] }, nchunks)
	total := prefix[rows]
	share := total / int64(nchunks)
	maxRowWork := int64(500)
	for _, c := range chunks {
		work := prefix[c.hi] - prefix[c.lo]
		if work > share+maxRowWork {
			t.Fatalf("chunk [%d,%d) carries %d work, share is %d (max row %d)",
				c.lo, c.hi, work, share, maxRowWork)
		}
	}
}

// hubMatrix builds a power-law-style matrix: most rows tiny, a few hub
// rows holding a large share of the nonzeros — the regime where
// equal-row chunking collapses to one worker doing most of the work.
func hubMatrix(t testing.TB) *sparse.CSR {
	t.Helper()
	m, err := synth.RMAT(11, 16, 0.57, 0.19, 0.19, 99)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSkewedSpMMMatchesNaive pins the nnz-balanced engine's results on
// a power-law matrix against the naive dense reference and against the
// seed's equal-row chunking — identical outputs, any partitioning.
func TestSkewedSpMMMatchesNaive(t *testing.T) {
	m := hubMatrix(t)
	x := dense.NewRandom(m.Cols, 8, 1)
	got, err := newSpMMRowWise(m, x)
	if err != nil {
		t.Fatal(err)
	}
	// Seed engine: contiguous equal-row chunks.
	old := dense.New(m.Rows, x.Cols)
	parallelRows(m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			yi := old.Row(i)
			cols, vals := m.RowCols(i), m.RowVals(i)
			for j := range cols {
				v := vals[j]
				xr := x.Row(int(cols[j]))
				for k := range yi {
					yi[k] += v * xr[k]
				}
			}
		}
	})
	// Bitwise identical: both engines accumulate each row sequentially
	// in the same order, only the row->worker assignment differs.
	for i := range got.Data {
		if got.Data[i] != old.Data[i] {
			t.Fatalf("balanced vs equal-row chunking diverge at %d: %v vs %v",
				i, got.Data[i], old.Data[i])
		}
	}
	if d := dense.MaxAbsDiff(got, naiveSpMM(m, x)); d > 1e-3 {
		t.Fatalf("balanced SpMM differs from naive by %v", d)
	}
}

// TestSkewedASpTMatches runs the ASpT kernels on the same power-law
// matrix: tile+rest balanced execution must equal row-wise execution.
func TestSkewedASpTMatches(t *testing.T) {
	m := hubMatrix(t)
	tl, err := aspt.Build(m, aspt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(m.Cols, 8, 2)
	y := dense.NewRandom(m.Rows, 8, 3)
	ya, err := newSpMMASpT(tl, x)
	if err != nil {
		t.Fatal(err)
	}
	yr, err := newSpMMRowWise(m, x)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(ya, yr); d > 1e-3 {
		t.Fatalf("ASpT SpMM differs from row-wise by %v on skewed matrix", d)
	}
	oa, err := newSDDMMASpT(tl, x, y)
	if err != nil {
		t.Fatal(err)
	}
	or, err := newSDDMMRowWise(m, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !oa.SameStructure(or) {
		t.Fatalf("SDDMM structure diverges on skewed matrix")
	}
	for j := range oa.Val {
		d := float64(oa.Val[j] - or.Val[j])
		if d > 1e-3 || d < -1e-3 {
			t.Fatalf("SDDMM values diverge at %d", j)
		}
	}
}

// TestIntoVariantsMatchAllocating checks each kernel writing into a
// reused destination against the same kernel writing into a freshly
// allocated one: stale contents must be overwritten.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomMatrix(rng, 64, 48, 8)
	tl, err := aspt.Build(m, aspt.Params{PanelSize: 8, DenseThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(m.Cols, 8, 4)
	yin := dense.NewRandom(m.Rows, 8, 5)

	y := dense.New(m.Rows, 8)
	y.Fill(123) // stale garbage must not leak into results
	if err := SpMMRowWiseIntoCtx(context.Background(), y, m, x); err != nil {
		t.Fatal(err)
	}
	want, _ := newSpMMRowWise(m, x)
	if d := dense.MaxAbsDiff(y, want); d != 0 {
		t.Fatalf("SpMMRowWiseIntoCtx differs by %v", d)
	}

	y.Fill(-7)
	if err := SpMMASpTIntoCtx(context.Background(), y, tl, x); err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(y, want); d > 1e-4 {
		t.Fatalf("SpMMASpTIntoCtx differs by %v", d)
	}

	wantO, _ := newSDDMMRowWise(m, x, yin)
	out := m.Clone()
	for j := range out.Val {
		out.Val[j] = 99
	}
	if err := SDDMMRowWiseIntoCtx(context.Background(), out, m, x, yin); err != nil {
		t.Fatal(err)
	}
	for j := range out.Val {
		if out.Val[j] != wantO.Val[j] {
			t.Fatalf("SDDMMRowWiseIntoCtx differs at %d", j)
		}
	}
	out2 := m.Clone()
	if err := SDDMMASpTIntoCtx(context.Background(), out2, tl, x, yin); err != nil {
		t.Fatal(err)
	}
	for j := range out2.Val {
		d := float64(out2.Val[j] - wantO.Val[j])
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("SDDMMASpTIntoCtx differs at %d", j)
		}
	}
}

// TestIntoValidation checks the entry points reject bad outputs.
func TestIntoValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := randomMatrix(rng, 20, 20, 5)
	tl, _ := aspt.Build(m, aspt.DefaultParams())
	x := dense.NewRandom(m.Cols, 4, 1)
	yin := dense.NewRandom(m.Rows, 4, 2)

	if err := SpMMRowWiseIntoCtx(context.Background(), dense.New(m.Rows+1, 4), m, x); err == nil {
		t.Fatalf("accepted wrong output rows")
	}
	if err := SpMMRowWiseIntoCtx(context.Background(), dense.New(m.Rows, 5), m, x); err == nil {
		t.Fatalf("accepted wrong output cols")
	}
	if err := SpMMASpTIntoCtx(context.Background(), dense.New(m.Rows, 5), tl, x); err == nil {
		t.Fatalf("ASpT accepted wrong output cols")
	}
	other := randomMatrix(rng, 20, 20, 5)
	if other.SameStructure(m) {
		t.Skip("random matrices collided")
	}
	if err := SDDMMRowWiseIntoCtx(context.Background(), other, m, x, yin); err == nil {
		t.Fatalf("accepted structurally different SDDMM output")
	}
	if err := SDDMMASpTIntoCtx(context.Background(), other, tl, x, yin); err == nil {
		t.Fatalf("ASpT accepted structurally different SDDMM output")
	}
	// In-place over the source is explicitly allowed.
	inPlace := m.Clone()
	tl2, _ := aspt.Build(inPlace, aspt.DefaultParams())
	if err := SDDMMASpTIntoCtx(context.Background(), inPlace, tl2, x, yin); err != nil {
		t.Fatalf("rejected in-place SDDMM: %v", err)
	}
}

// TestIntoSteadyStateAllocations checks the zero-allocation contract of
// the ASpT entry point under a background context.
func TestIntoSteadyStateAllocations(t *testing.T) {
	m := hubMatrix(t)
	tl, err := aspt.Build(m, aspt.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(m.Cols, 16, 1)
	y := dense.New(m.Rows, 16)
	assertZeroAllocsAfterWarmup(t, "SpMMASpTIntoCtx", func() {
		if err := SpMMASpTIntoCtx(context.Background(), y, tl, x); err != nil {
			t.Fatal(err)
		}
	})
}

// parallelRows runs fn over [0, rows) split into contiguous equal-row
// chunks across GOMAXPROCS workers — the seed engine, kept as the
// baseline for the load-balance tests and benchmarks.
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
