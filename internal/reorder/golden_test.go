package reorder

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synth"
)

// planFingerprint is an FNV-64a hash over the parts of a plan that the
// LSH and clustering stages decide: the row permutation, the leftover
// processing order, the kernel choice and both rounds' clustering
// statistics.
func planFingerprint(p *Plan) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putPerm := func(perm []int32) {
		put(uint64(len(perm)))
		for _, r := range perm {
			put(uint64(uint32(r)))
		}
	}
	putStats := func(s ClusterStats) {
		for _, v := range []int{s.CandidatePairs, s.Merges, s.Requeues, s.Retired, s.Clusters} {
			put(uint64(v))
		}
	}
	putPerm(p.RowPerm)
	putPerm(p.RestOrder)
	put(uint64(p.Kernel))
	putStats(p.Round1Stats)
	putStats(p.Round2Stats)
	return h.Sum64()
}

// TestPreprocessPlanGolden pins the plans Preprocess builds for the
// benchmark's three matrix families (scrambled clusters, R-MAT and
// banded, at the benchmark's short sizes) against fingerprints recorded
// before the allocation-free LSH banding and the sorted-run Alg 3 queue
// were introduced. The determinism tests only compare worker counts
// within one build; this test catches any change to the plans
// themselves. Any intended change to the plan a matrix gets must
// re-record these values and say why.
func TestPreprocessPlanGolden(t *testing.T) {
	scrambled := func() (*sparse.CSR, error) {
		return synth.Clustered(synth.ClusterParams{
			Rows: 1024, Cols: 4096, Clusters: 32,
			PrototypeNNZ: 24, Keep: 0.8, Noise: 2, Seed: 1, Scrambled: true,
		})
	}
	cases := []struct {
		name string
		gen  func() (*sparse.CSR, error)
		oph  bool
		// want holds the fingerprints under DefaultConfig and with
		// Force set: at these sizes the heuristics skip round 1 for
		// every family, so only Force exercises it.
		want [2]uint64
	}{
		{"scrambled", scrambled, false, [2]uint64{0xdb8845bc2eb4fc7f, 0xbaefeee260f4e6e4}},
		{"scrambled-oph", scrambled, true, [2]uint64{0x94c94a5b61958221, 0x51d685834aa18df8}},
		{"rmat", func() (*sparse.CSR, error) {
			return synth.RMAT(12, 16, 0.57, 0.19, 0.19, 2)
		}, false, [2]uint64{0x00148f579dfcdf29, 0x8cd0c3828fbd0571}},
		{"banded", func() (*sparse.CSR, error) {
			return synth.Banded(1024, 1024, 64, 16, 3)
		}, false, [2]uint64{0xd33268e9a98e8041, 0x40bd9f5c7aed17f7}},
	}
	for _, tc := range cases {
		m, err := tc.gen()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for fi, force := range []bool{false, true} {
			for _, w := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("%s/force=%v/w=%d", tc.name, force, w), func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Workers = w
					cfg.Force = force
					cfg.LSH.OPH = tc.oph
					p, err := Preprocess(m, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := planFingerprint(p); got != tc.want[fi] {
						t.Errorf("plan fingerprint = %#016x, want %#016x (round1=%v %+v, round2=%v %+v, kernel=%v)",
							got, tc.want[fi], p.Round1Applied, p.Round1Stats, p.Round2Applied, p.Round2Stats, p.Kernel)
					}
				})
			}
		}
	}
}
