package ellpack_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/synth"
)

func mustCSR(t *testing.T, rows, cols int, sets [][]int32) *sparse.CSR {
	t.Helper()
	m, err := sparse.FromRows(rows, cols, sets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFromCSRLayout(t *testing.T) {
	m := mustCSR(t, 3, 5, [][]int32{{0, 4}, {2}, {1, 3, 4}})
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Width != 3 || e.Rows != 3 || e.NCols != 5 {
		t.Fatalf("layout %+v", e)
	}
	if e.NNZ() != 6 {
		t.Fatalf("NNZ = %d", e.NNZ())
	}
	// Column-major: slab slot (s=0, i=1) holds row 1's first entry.
	if e.Cols[0*3+1] != 2 {
		t.Fatalf("slab[0][1] = %d, want 2", e.Cols[0*3+1])
	}
	// Padding slot for row 1, s=1.
	if e.Cols[1*3+1] != -1 || e.Vals[1*3+1] != 0 {
		t.Fatalf("padding not marked")
	}
	if got := e.PaddingRatio(); math.Abs(got-(1-6.0/9.0)) > 1e-12 {
		t.Fatalf("PaddingRatio = %v", got)
	}
}

func TestFromCSRWidthCap(t *testing.T) {
	m := mustCSR(t, 2, 8, [][]int32{{0, 1, 2, 3, 4}, {0}})
	if _, err := ellpack.FromCSR(m, 4); err == nil {
		t.Fatalf("width cap not enforced")
	}
	if _, err := ellpack.FromCSR(m, 5); err != nil {
		t.Fatalf("width cap rejected exact fit: %v", err)
	}
}

func TestRoundTrip(t *testing.T) {
	m := mustCSR(t, 4, 6, [][]int32{{0, 5}, {}, {1, 2, 3}, {4}})
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	back, err := e.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(m) {
		t.Fatalf("round trip changed the matrix")
	}
}

func TestSpMMMatchesCSR(t *testing.T) {
	m, err := synth.Uniform(200, 150, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := dense.NewRandom(m.Cols, 16, 1)
	want := dense.New(m.Rows, x.Cols)
	if err := kernels.SpMMRowWiseIntoCtx(context.Background(), want, m, x); err != nil {
		t.Fatal(err)
	}
	got, err := e.SpMM(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := dense.MaxAbsDiff(got, want); d > 1e-4 {
		t.Fatalf("ELL SpMM differs by %v", d)
	}
}

func TestSpMMShapeError(t *testing.T) {
	m := mustCSR(t, 2, 3, [][]int32{{0}, {1}})
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SpMM(dense.New(5, 4)); err == nil {
		t.Fatalf("shape mismatch accepted")
	}
}

func TestSimulatePaddingPenalty(t *testing.T) {
	// A power-law matrix: one huge row makes ELL's slab mostly padding,
	// so simulated ELL must be slower than simulated CSR row-wise.
	sets := make([][]int32, 256)
	for c := int32(0); c < 200; c++ {
		sets[0] = append(sets[0], c)
	}
	for i := 1; i < 256; i++ {
		sets[i] = []int32{int32(i % 256)}
	}
	m := mustCSR(t, 256, 256, sets)
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.PaddingRatio() < 0.9 {
		t.Fatalf("fixture not skewed enough: padding %v", e.PaddingRatio())
	}
	dev := gpusim.P100()
	ell, err := ellpack.SimulateSpMM(dev, e, 256)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := gpusim.SpMMRowWise(dev, m, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ell.StructBytes <= csr.StructBytes {
		t.Fatalf("padding traffic not charged: %v <= %v", ell.StructBytes, csr.StructBytes)
	}
	if ell.Time < csr.Time {
		t.Fatalf("ELL should not beat CSR on skewed input: %v < %v", ell.Time, csr.Time)
	}
}

func TestSimulateUniformCompetitive(t *testing.T) {
	// Near-uniform row lengths: padding is negligible and ELL's traffic
	// matches CSR's within the RowLen/RowPtr delta.
	m, err := synth.Uniform(1024, 1024, 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.P100()
	ell, err := ellpack.SimulateSpMM(dev, e, 256)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := gpusim.SpMMRowWise(dev, m, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ell.DRAMBytes > csr.DRAMBytes*1.5 {
		t.Fatalf("uniform ELL traffic blown up: %v vs %v", ell.DRAMBytes, csr.DRAMBytes)
	}
}

// Property: CSR -> ELL -> CSR is the identity, and ELL SpMM matches the
// CSR kernel.
func TestPropertyELLRoundTripAndSpMM(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(30)
		sets := make([][]int32, rows)
		for i := range sets {
			n := rng.Intn(6)
			if n > cols {
				n = cols
			}
			seen := map[int32]bool{}
			for len(seen) < n {
				seen[int32(rng.Intn(cols))] = true
			}
			for c := range seen {
				sets[i] = append(sets[i], c)
			}
		}
		m, err := sparse.FromRows(rows, cols, sets, nil)
		if err != nil {
			return false
		}
		e, err := ellpack.FromCSR(m, 0)
		if err != nil {
			return false
		}
		back, err := e.ToCSR()
		if err != nil || !back.Equal(m) {
			return false
		}
		x := dense.NewRandom(cols, 4, seed)
		a, err := e.SpMM(x)
		if err != nil {
			return false
		}
		b := dense.New(m.Rows, x.Cols)
		if err := kernels.SpMMRowWiseIntoCtx(context.Background(), b, m, x); err != nil {
			return false
		}
		return dense.MaxAbsDiff(a, b) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateUniformNotCredited(t *testing.T) {
	// Regression: on an exactly uniform matrix the padded slab equals the
	// compact nonzeros, and the per-row structure arrays differ (RowLen
	// is one read per row, RowPtr two) — the old accounting pushed that
	// negative delta into the traffic totals, crediting ELL with *less*
	// DRAM traffic than the slab it streams. ELL must never be charged
	// below the CSR baseline.
	sets := make([][]int32, 512)
	for i := range sets {
		for c := int32(0); c < 4; c++ {
			sets[i] = append(sets[i], (int32(i)+c*7)%512)
		}
	}
	m := mustCSR(t, 512, 512, sets)
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.PaddingRatio() != 0 {
		t.Fatalf("fixture not uniform: padding %v", e.PaddingRatio())
	}
	dev := gpusim.P100()
	ell, err := ellpack.SimulateSpMM(dev, e, 64)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := gpusim.SpMMRowWise(dev, m, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ell.DRAMBytes < csr.DRAMBytes {
		t.Fatalf("uniform ELL credited below CSR: %v < %v DRAM bytes", ell.DRAMBytes, csr.DRAMBytes)
	}
	if ell.StructBytes < csr.StructBytes {
		t.Fatalf("uniform ELL structure credited below CSR: %v < %v", ell.StructBytes, csr.StructBytes)
	}
}

func TestELLCumWork(t *testing.T) {
	m := mustCSR(t, 4, 8, [][]int32{{0, 1}, {}, {2}, {0, 1, 2, 3}})
	e, err := ellpack.FromCSR(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= m.Rows; i++ {
		if got, want := e.CumWork(i), int64(m.RowPtr[i]); got != want {
			t.Fatalf("CumWork(%d) = %d, want %d", i, got, want)
		}
	}
}
