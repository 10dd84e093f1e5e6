package lsh

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synth"
)

// refBandKeys is the straightforward banding of one band: a map from
// band hash to its rows (ascending), every pair of a bucket expanded, or
// consecutive members only above maxBucket, then sorted and compacted.
func refBandKeys(m *sparse.CSR, sigs *Signatures, lo, n, maxBucket int) []uint64 {
	buckets := map[uint64][]int32{}
	for i := 0; i < m.Rows; i++ {
		if m.RowLen(i) == 0 {
			continue
		}
		h := uint64(0xcbf29ce484222325)
		for _, v := range sigs.Row(i)[lo : lo+n] {
			h ^= uint64(v)
			h *= 0x100000001b3
		}
		buckets[h] = append(buckets[h], int32(i))
	}
	var keys []uint64
	key := func(i, j int32) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }
	for _, rows := range buckets {
		if len(rows) > maxBucket {
			for k := 0; k+1 < len(rows); k++ {
				keys = append(keys, key(rows[k], rows[k+1]))
			}
			continue
		}
		for a := range rows {
			for b := a + 1; b < len(rows); b++ {
				keys = append(keys, key(rows[a], rows[b]))
			}
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// TestBandKeysMatchReference pins that the counting-sort banding emits,
// for every band, exactly the sorted unique key set of the map-of-rows
// reference — including the MaxBucket chaining and empty-row skipping —
// with one scratch reused across bands and matrices of different sizes.
func TestBandKeysMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		rows := 1 + rng.Intn(200)
		sets := make([][]int32, rows)
		for i := range sets {
			if rng.Intn(8) != 0 { // leave some rows empty
				sets[i] = []int32{int32(rng.Intn(16))}
			}
		}
		m, err := sparse.FromRows(rows, 16, sets, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Few distinct signature values: buckets of every size, some
		// above maxBucket.
		const sigLen, bandSize = 8, 2
		sigs := &Signatures{SigLen: sigLen, Rows: rows, Sig: make([]uint32, rows*sigLen)}
		spread := 1 + rng.Intn(6)
		for k := range sigs.Sig {
			sigs.Sig[k] = uint32(rng.Intn(spread))
		}
		maxBucket := 1 + rng.Intn(12)
		var bk bandBuckets // fresh per matrix: its arrays are sized by m.Rows
		for lo := 0; lo < sigLen; lo += bandSize {
			bk.fill(m, sigs, lo, bandSize)
			got := bk.appendKeys(nil, maxBucket)
			want := refBandKeys(m, sigs, lo, bandSize, maxBucket)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d band %d: %d keys, reference %d\ngot  %v\nwant %v",
					trial, lo/bandSize, len(got), len(want), got, want)
			}
		}
	}
}

// TestCandidatePairsAllocsScaleSublinearly pins that LSH candidate
// generation does no per-row or per-(row, band) allocation: doubling
// the rows of a clustered matrix may grow the allocation count by at
// most half, with plain MinHash and with OPH signatures.
func TestCandidatePairsAllocsScaleSublinearly(t *testing.T) {
	gen := func(rows int) *sparse.CSR {
		m, err := synth.Clustered(synth.ClusterParams{
			Rows: rows, Cols: rows, Clusters: rows / 8, PrototypeNNZ: 20,
			Keep: 0.8, Noise: 2, Seed: 1, Scrambled: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	small, large := gen(4096), gen(8192)
	for _, oph := range []bool{false, true} {
		p := DefaultParams()
		p.Workers = 2
		p.OPH = oph
		allocs := func(m *sparse.CSR) float64 {
			return testing.AllocsPerRun(1, func() {
				if _, err := CandidatePairs(m, p); err != nil {
					t.Fatal(err)
				}
			})
		}
		a4, a8 := allocs(small), allocs(large)
		t.Logf("oph=%v: %v allocs at 4096 rows, %v at 8192", oph, a4, a8)
		if a8 > 1.5*a4 {
			t.Errorf("oph=%v: %v allocs at 8192 rows > 1.5 × %v at 4096", oph, a8, a4)
		}
	}
}
