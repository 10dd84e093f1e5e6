package kernels

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/aspt"
	"repro/internal/dense"
	"repro/internal/ellpack"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// Kernel-corpus bench: every SpMM execution strategy on the three
// structural families the autotuner discriminates between — a skewed
// R-MAT (power-law rows, where nnz-split merge should win), a banded
// matrix (moderate, regular rows), and a uniform matrix (ELL-friendly,
// zero padding). `make bench-kernels` converts the output to
// BENCH_kernels.json. The autotuner thresholds in
// internal/reorder/autotune.go (DESIGN.md §12) were set against the
// scalar-loop kernels' numbers; register-blocking the inner loops moved
// every kernel, so the thresholds are due for re-calibration, not
// confirmed by the current output.
//
// Wall-clock speedups from nnz-splitting only materialise with real
// parallelism; on a 1-CPU runner the per-kernel times converge. The
// "imb@32" metric is the hardware-independent signal: the nnz load
// imbalance of row-granular chunking at 32 chunks (max chunk nnz over
// mean). Merge's flat nnz split is 1.0 by construction, so imb@32 is
// the factor row-granular chunking loses on the critical path at 32
// workers — deterministic regardless of GOMAXPROCS.

// rowImbalance builds nchunks row-granular chunks targeting equal nnz
// (the best any row-aligned partitioner can do) and returns max chunk
// nnz over mean chunk nnz. A single row longer than nnz/nchunks forces
// imbalance > 1 no matter how rows are packed.
func rowImbalance(m *sparse.CSR, nchunks int) float64 {
	nnz := m.NNZ()
	if nnz == 0 || nchunks <= 0 {
		return 1
	}
	mean := float64(nnz) / float64(nchunks)
	maxChunk, cur := 0, 0
	for i := 0; i < m.Rows; i++ {
		rl := m.RowLen(i)
		// Close the chunk before this row once it met its target, so an
		// oversized row lands in a chunk by itself.
		if cur > 0 && float64(cur)+float64(rl)/2 > mean {
			if cur > maxChunk {
				maxChunk = cur
			}
			cur = 0
		}
		cur += rl
	}
	if cur > maxChunk {
		maxChunk = cur
	}
	return float64(maxChunk) / mean
}

type benchFamily struct {
	name  string
	build func(short bool) (*sparse.CSR, error)
}

var benchFamilies = []benchFamily{
	{"rmat", func(short bool) (*sparse.CSR, error) {
		if short {
			return synth.RMAT(10, 16, 0.57, 0.19, 0.19, 21)
		}
		return synth.RMAT(13, 24, 0.57, 0.19, 0.19, 21)
	}},
	{"banded", func(short bool) (*sparse.CSR, error) {
		if short {
			return synth.Banded(1024, 1024, 64, 16, 7)
		}
		return synth.Banded(8192, 8192, 64, 16, 7)
	}},
	{"uniform", func(short bool) (*sparse.CSR, error) {
		if short {
			return synth.Uniform(1024, 1024, 16, 11)
		}
		return synth.Uniform(8192, 8192, 16, 11)
	}},
}

func BenchmarkKernelCorpus(b *testing.B) {
	const k = 64
	for _, fam := range benchFamilies {
		m, err := fam.build(testing.Short())
		if err != nil {
			b.Fatal(err)
		}
		hyb, err := ellpack.FromCSRHybrid(m, 0)
		if err != nil {
			b.Fatal(err)
		}
		tl, err := aspt.Build(m, aspt.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		x := dense.NewRandom(m.Cols, k, 1)
		y := dense.New(m.Rows, k)
		imb := rowImbalance(m, 32)
		imbGPU := rowImbalance(m, 1024)
		run := func(name string, fn func() error) {
			b.Run(fam.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(Flops(m.NNZ(), k) / 2))
				b.ReportAllocs()
				// Warm the pooled state (job structs, merge carry slabs,
				// worker pool) before the clock starts: the kernels'
				// contract is zero allocations at *steady state*, and
				// without this warmup a -benchtime 1x smoke run reports
				// the first call's one-time pool misses as if the hot
				// path allocated (BENCH_kernels.json once showed the
				// merge kernel at 10 allocs/op this way).
				for i := 0; i < 2; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := fn(); err != nil {
						b.Fatal(err)
					}
				}
				// After the loop: ResetTimer deletes user metrics.
				b.ReportMetric(imb, "imb@32")
				b.ReportMetric(imbGPU, "imb@1k")
			})
		}
		run("rowwise", func() error { return SpMMRowWiseIntoCtx(context.Background(), y, m, x) })
		run("merge", func() error { return SpMMMergeIntoCtx(context.Background(), y, m, x) })
		run("hyb", func() error { return SpMMHybridIntoCtx(context.Background(), y, hyb, x) })
		run("aspt", func() error { return SpMMASpTIntoCtx(context.Background(), y, tl, x) })
	}
}

// BenchmarkKernelShapes times every kernel on the matrix shapes the
// benchmark serves (perfbench/workloads.go): the three tenants-steady
// families at K=32 and the small-k-burst matrix at K=1 and K=4, in
// natural row order (the served plan may reorder them). -short runs
// perfbench's --short sizes.
func BenchmarkKernelShapes(b *testing.B) {
	short := testing.Short()
	pick := func(full, small int) int {
		if short {
			return small
		}
		return full
	}
	scrambled := func(rows, cols int) (*sparse.CSR, error) {
		return synth.Clustered(synth.ClusterParams{
			Rows: rows, Cols: cols, Clusters: rows / 32,
			PrototypeNNZ: 24, Keep: 0.8, Noise: 2, Seed: 1, Scrambled: true,
		})
	}
	shapes := []struct {
		name string
		ks   []int
		gen  func() (*sparse.CSR, error)
	}{
		{"tenants-scrambled", []int{32}, func() (*sparse.CSR, error) {
			return scrambled(pick(4096, 1024), pick(24576, 4096))
		}},
		{"tenants-rmat", []int{32}, func() (*sparse.CSR, error) {
			return synth.RMAT(pick(14, 12), 16, 0.57, 0.19, 0.19, 2)
		}},
		{"tenants-banded", []int{32}, func() (*sparse.CSR, error) {
			return synth.Banded(pick(6144, 1024), pick(12288, 1024), 64, 16, 3)
		}},
		{"small-k-burst", []int{1, 4}, func() (*sparse.CSR, error) {
			return scrambled(pick(8192, 1024), pick(8192, 1024))
		}},
	}
	ctx := context.Background()
	for _, sh := range shapes {
		m, err := sh.gen()
		if err != nil {
			b.Fatal(err)
		}
		tl, err := aspt.Build(m, aspt.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		hyb, err := ellpack.FromCSRHybrid(m, 0)
		if err != nil {
			b.Fatal(err)
		}
		out := m.Clone()
		for _, k := range sh.ks {
			x := dense.NewRandom(m.Cols, k, 1)
			yd := dense.NewRandom(m.Rows, k, 2)
			y := dense.New(m.Rows, k)
			for _, kc := range []struct {
				name string
				call func() error
			}{
				{"spmm_rowwise", func() error { return SpMMRowWiseIntoCtx(ctx, y, m, x) }},
				{"spmm_aspt", func() error { return SpMMASpTIntoCtx(ctx, y, tl, x) }},
				{"spmm_hyb", func() error { return SpMMHybridIntoCtx(ctx, y, hyb, x) }},
				{"sddmm_rowwise", func() error { return SDDMMRowWiseIntoCtx(ctx, out, m, x, yd) }},
				{"sddmm_aspt", func() error { return SDDMMASpTIntoCtx(ctx, out, tl, x, yd) }},
			} {
				b.Run(fmt.Sprintf("%s/K=%d/%s", sh.name, k, kc.name), func(b *testing.B) {
					b.SetBytes(int64(Flops(m.NNZ(), k) / 2))
					b.ReportAllocs()
					for i := 0; i < 2; i++ { // warm the pooled job state
						if err := kc.call(); err != nil {
							b.Fatal(err)
						}
					}
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := kc.call(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
