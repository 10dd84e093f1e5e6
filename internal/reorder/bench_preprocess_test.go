package reorder

import (
	"fmt"
	"testing"

	"repro/internal/sparse"
	"repro/internal/synth"
)

// benchRMAT returns the scaling-study input: a scale-free R-MAT graph
// around one million nonzeros (the regime where the paper reports
// preprocessing cost, Fig 12). Short mode shrinks it so CI smoke runs
// stay in milliseconds.
func benchRMAT(b *testing.B) *sparse.CSR {
	b.Helper()
	scale := 17 // 2^17 rows × edgeFactor 8 ≈ 1M nnz
	if testing.Short() {
		scale = 11
	}
	m, err := synth.RMAT(scale, 8, 0.57, 0.19, 0.19, 42)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// reportStages attaches the per-stage wall-clock breakdown of the last
// plan to the benchmark, so `make bench-preprocess` captures where the
// time goes (and which stages a plan-cache hit eliminates).
func reportStages(b *testing.B, p *Plan) {
	b.Helper()
	b.ReportMetric(float64(p.Stages.Signatures.Nanoseconds()), "sig-ns/op")
	b.ReportMetric(float64(p.Stages.Banding.Nanoseconds()), "band-ns/op")
	b.ReportMetric(float64(p.Stages.Scoring.Nanoseconds()), "score-ns/op")
	b.ReportMetric(float64(p.Stages.Clustering.Nanoseconds()), "cluster-ns/op")
	b.ReportMetric(float64(p.Stages.Tiling.Nanoseconds()), "tile-ns/op")
	b.ReportMetric(float64(p.Stages.Permute.Nanoseconds()), "permute-ns/op")
	b.ReportMetric(float64(p.Stages.Heuristics.Nanoseconds()), "heur-ns/op")
}

// BenchmarkPreprocessWorkers is the parallel-preprocessing scaling
// study: the full Fig 5 workflow on a ~1M-nnz R-MAT graph at 1, 2, 4,
// and 8 workers. On a multi-core machine the ns/op ratio between w=1
// and w=8 is the engine's speedup; per-stage metrics expose which
// stages scale.
func BenchmarkPreprocessWorkers(b *testing.B) {
	m := benchRMAT(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = w
			var last *Plan
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := Preprocess(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			b.StopTimer()
			reportStages(b, last)
		})
	}
}

// BenchmarkTilingWorkers isolates the parallel two-pass ASpT build.
func BenchmarkTilingWorkers(b *testing.B) {
	m := benchRMAT(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = w
			cfg.Disable = true // tiling only (ASpT-NR)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Preprocess(m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreprocessFamilies is a cold Preprocess of each matrix shape
// the repo benchmark (perfbench) serves, generated from the same seeds
// as its default run: the three tenants-steady families, the
// small-k-burst matrix and the live-mutate matrix. -short shrinks them
// to perfbench's --short sizes. Per-stage metrics and allocs/op show
// where each family's setup time goes.
func BenchmarkPreprocessFamilies(b *testing.B) {
	short := testing.Short()
	pick := func(full, small int) int {
		if short {
			return small
		}
		return full
	}
	scrambled := func(rows, cols int) func() (*sparse.CSR, error) {
		return func() (*sparse.CSR, error) {
			return synth.Clustered(synth.ClusterParams{
				Rows: rows, Cols: cols, Clusters: rows / 32,
				PrototypeNNZ: 24, Keep: 0.8, Noise: 2, Seed: 1, Scrambled: true,
			})
		}
	}
	families := []struct {
		name string
		gen  func() (*sparse.CSR, error)
	}{
		{"tenants-scrambled", scrambled(pick(4096, 1024), pick(24576, 4096))},
		{"tenants-rmat", func() (*sparse.CSR, error) {
			return synth.RMAT(pick(14, 12), 16, 0.57, 0.19, 0.19, 2)
		}},
		{"tenants-banded", func() (*sparse.CSR, error) {
			return synth.Banded(pick(6144, 1024), pick(12288, 1024), 64, 16, 3)
		}},
		{"small-k-burst", scrambled(pick(8192, 1024), pick(8192, 1024))},
		{"live-mutate", scrambled(pick(4096, 1024), pick(8192, 2048))},
	}
	for _, f := range families {
		m, err := f.gen()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			var last *Plan
			for i := 0; i < b.N; i++ {
				p, err := Preprocess(m, DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				last = p
			}
			b.StopTimer()
			reportStages(b, last)
		})
	}
}
