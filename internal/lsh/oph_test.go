package lsh

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

func TestOPHIdenticalRowsCollide(t *testing.T) {
	m := mustMatrix(t, 3, 64, [][]int32{{3, 17, 40}, {3, 17, 40}, {5, 22}})
	sigs, err := ComputeSignaturesOPH(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := sigs.EstimateJaccard(0, 1); got != 1 {
		t.Fatalf("identical rows estimate %v, want 1", got)
	}
	if got := sigs.EstimateJaccard(0, 2); got > 0.2 {
		t.Fatalf("disjoint rows estimate too high: %v", got)
	}
}

func TestOPHEmptyRowAllMax(t *testing.T) {
	m := mustMatrix(t, 2, 8, [][]int32{{}, {1}})
	sigs, err := ComputeSignaturesOPH(m, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sigs.Row(0) {
		if v != math.MaxUint32 {
			t.Fatalf("empty row signature filled: %v", v)
		}
	}
	// The non-empty row must be fully densified (no empty bins).
	for _, v := range sigs.Row(1) {
		if v == math.MaxUint32 {
			t.Fatalf("non-empty row has undensified bin")
		}
	}
}

func TestOPHValidatesParams(t *testing.T) {
	m := mustMatrix(t, 1, 4, [][]int32{{0}})
	if _, err := ComputeSignaturesOPH(m, Params{SigLen: 7, BandSize: 2}); err == nil {
		t.Fatalf("invalid params accepted")
	}
}

func TestOPHEstimateTracksJaccard(t *testing.T) {
	// Rows with true Jaccard 0.5: the OPH estimate should land within
	// ±0.2 at siglen 256 (OPH has a slightly higher variance than plain
	// MinHash at equal length).
	a := make([]int32, 0, 16)
	b := make([]int32, 0, 16)
	for i := int32(0); i < 8; i++ {
		a = append(a, i*13)
		b = append(b, i*13)
	}
	for i := int32(0); i < 4; i++ {
		a = append(a, 500+i)
		b = append(b, 600+i)
	}
	m := mustMatrix(t, 2, 1024, [][]int32{a, b})
	truth := sparse.RowJaccard(m, 0, 1)
	p := Params{SigLen: 256, BandSize: 2, Seed: 5}
	sigs, err := ComputeSignaturesOPH(m, p)
	if err != nil {
		t.Fatal(err)
	}
	if est := sigs.EstimateJaccard(0, 1); math.Abs(est-truth) > 0.2 {
		t.Fatalf("estimate %v too far from %v", est, truth)
	}
}

func TestOPHWorksWithBanding(t *testing.T) {
	// The OPH signature matrix feeds the same banding code and must find
	// the similar pair and not the dissimilar one.
	m := mustMatrix(t, 4, 256, [][]int32{
		{1, 20, 40, 60, 80}, {1, 20, 40, 60, 81}, {100, 120}, {140, 160},
	})
	p := DefaultParams()
	sigs, err := ComputeSignaturesOPH(m, p)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := PairsFromSignatures(m, sigs, p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, pr := range pairs {
		if pr.I == 0 && pr.J == 1 {
			found = true
		}
		if int(pr.I) >= 2 || int(pr.J) >= 2 {
			// Pairs touching rows 2/3 must at least not involve row 0/1.
			if pr.I < 2 {
				t.Fatalf("spurious pair %+v", pr)
			}
		}
	}
	if !found {
		t.Fatalf("similar pair not found; pairs=%v", pairs)
	}
}

func TestDensify(t *testing.T) {
	// One scratch buffer serves every call, as in
	// ComputeSignaturesOPHCtx: stale contents must not leak through.
	src := make([]uint32, 4)
	row := []uint32{5, math.MaxUint32, math.MaxUint32, 9}
	densify(row, src)
	for k, v := range row {
		if v == math.MaxUint32 {
			t.Fatalf("bin %d left empty", k)
		}
	}
	// Donors unchanged.
	if row[0] != 5 || row[3] != 9 {
		t.Fatalf("donor bins modified: %v", row)
	}
	// Equal rows densify identically.
	a := []uint32{5, math.MaxUint32, 7, math.MaxUint32}
	b := []uint32{5, math.MaxUint32, 7, math.MaxUint32}
	densify(a, src)
	densify(b, src)
	for k := range a {
		if a[k] != b[k] {
			t.Fatalf("densify not deterministic at %d", k)
		}
	}
	// All-empty rows stay empty.
	e := []uint32{math.MaxUint32, math.MaxUint32}
	densify(e, src[:2])
	if e[0] != math.MaxUint32 {
		t.Fatalf("all-empty row densified")
	}
}
