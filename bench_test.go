package repro_test

// One benchmark per table and figure of the paper's evaluation (§5), as
// indexed in DESIGN.md §4. Each benchmark regenerates its artifact from a
// shared corpus evaluation (computed once per `go test -bench` process)
// and reports the headline aggregate the paper quotes as a custom metric,
// so `go test -bench=. -benchmem` reproduces the whole evaluation:
//
//	BenchmarkFig8SpMMSpeedups        geomean speedup of ASpT-RR vs cuSPARSE
//	BenchmarkTable1SpMM              geomean/max speedup vs best baseline
//	BenchmarkFig10SpMMThroughput     mean GFLOP/s per system
//	BenchmarkTable2SDDMM             geomean/max speedup vs ASpT-NR
//	BenchmarkFig11SDDMMThroughput    mean GFLOP/s per system
//	BenchmarkFig12Preprocessing      end-to-end preprocessing wall time
//	BenchmarkTable3 / Table4         median preprocess/compute ratios
//	BenchmarkFig9ReorderingEffect    forced-reorder quadrant counts
//	BenchmarkMetisBaseline           vertex reordering slowdown check
//	BenchmarkAblation*               design-choice sweeps (DESIGN.md §4)
//
// The corpus runs at a reduced scale with a proportionally reduced
// simulated device (DESIGN.md §5) so the whole suite finishes in minutes;
// `cmd/experiments` runs the same drivers at full scale.

import (
	"context"
	"sync"
	"testing"

	"repro"
	"repro/internal/aspt"
	"repro/internal/experiments"
	"repro/internal/lsh"
	"repro/internal/metrics"
	"repro/internal/reorder"
	"repro/internal/sparse"
	"repro/internal/synth"
)

// sparsePermute and asptDenseRatio are small adapters for the ablation
// benches.
func sparsePermute(m *repro.Matrix, order []int32) (*repro.Matrix, error) {
	return sparse.PermuteRows(m, order)
}

func asptDenseRatio(m *repro.Matrix) (float64, error) {
	return aspt.DenseRatioOf(m, aspt.DefaultParams())
}

var (
	benchOnce  sync.Once
	benchEvals []*experiments.MatrixEval
	benchErr   error
)

func benchOptions() experiments.Options {
	opts := experiments.DefaultOptions()
	opts.Ks = []int{512, 1024}
	opts.Corpus = synth.Options{Scale: 0.15}
	// Device scaled with the corpus (see DESIGN.md §5): 1/8 of the SMs
	// and L2 for ~1/7-scale matrices.
	opts.Device.NumSMs = 7
	opts.Device.L2Bytes = 512 << 10
	return opts
}

func corpusEvals(b *testing.B) []*experiments.MatrixEval {
	benchOnce.Do(func() {
		benchEvals, benchErr = experiments.EvaluateCorpus(benchOptions())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEvals
}

func BenchmarkFig8SpMMSpeedups(b *testing.B) {
	evals := corpusEvals(b)
	b.ResetTimer()
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8(evals, []int{512, 1024})
	}
	b.ReportMetric(metrics.GeoMean(r.Values["rr-k512"]), "geomean-rr-vs-cusparse-k512")
	b.ReportMetric(metrics.GeoMean(r.Values["nr-k512"]), "geomean-nr-vs-cusparse-k512")
	b.ReportMetric(metrics.GeoMean(r.Values["rr-k1024"]), "geomean-rr-vs-cusparse-k1024")
}

func BenchmarkTable1SpMM(b *testing.B) {
	evals := corpusEvals(b)
	b.ResetTimer()
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table1(evals, []int{512, 1024})
	}
	b.ReportMetric(metrics.GeoMean(r.Values["k512"]), "geomean-speedup-k512")
	b.ReportMetric(metrics.Max(r.Values["k512"]), "max-speedup-k512")
	b.ReportMetric(metrics.GeoMean(r.Values["k1024"]), "geomean-speedup-k1024")
	b.ReportMetric(metrics.Max(r.Values["k1024"]), "max-speedup-k1024")
}

func BenchmarkFig10SpMMThroughput(b *testing.B) {
	evals := corpusEvals(b)
	b.ResetTimer()
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Fig10(evals, 512)
	}
	b.ReportMetric(metrics.Mean(r.Values["cusparse"]), "mean-gflops-cusparse")
	b.ReportMetric(metrics.Mean(r.Values["aspt-nr"]), "mean-gflops-aspt-nr")
	b.ReportMetric(metrics.Mean(r.Values["aspt-rr"]), "mean-gflops-aspt-rr")
}

func BenchmarkTable2SDDMM(b *testing.B) {
	evals := corpusEvals(b)
	b.ResetTimer()
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table2(evals, []int{512, 1024})
	}
	b.ReportMetric(metrics.GeoMean(r.Values["k512"]), "geomean-speedup-k512")
	b.ReportMetric(metrics.Max(r.Values["k512"]), "max-speedup-k512")
	b.ReportMetric(metrics.GeoMean(r.Values["k1024"]), "geomean-speedup-k1024")
}

func BenchmarkFig11SDDMMThroughput(b *testing.B) {
	evals := corpusEvals(b)
	b.ResetTimer()
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Fig11(evals, 512)
	}
	b.ReportMetric(metrics.Mean(r.Values["aspt-nr"]), "mean-gflops-aspt-nr")
	b.ReportMetric(metrics.Mean(r.Values["aspt-rr"]), "mean-gflops-aspt-rr")
}

// BenchmarkFig12Preprocessing measures the real preprocessing pipeline
// end to end (LSH + clustering + tiling, both rounds) — the quantity of
// Fig 12 — on a representative scrambled-cluster matrix.
func BenchmarkFig12Preprocessing(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(8192, 8192, 1024, 3)
	if err != nil {
		b.Fatal(err)
	}
	cfg := repro.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.Preprocess(m, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3PreprocessRatioSpMM(b *testing.B) {
	evals := corpusEvals(b)
	b.ResetTimer()
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table3(evals, []int{512, 1024})
	}
	b.ReportMetric(metrics.Median(r.Values["k512"]), "median-ratio-k512")
	b.ReportMetric(metrics.Median(r.Values["k1024"]), "median-ratio-k1024")
}

func BenchmarkTable4PreprocessRatioSDDMM(b *testing.B) {
	evals := corpusEvals(b)
	b.ResetTimer()
	var r *experiments.Report
	for i := 0; i < b.N; i++ {
		r = experiments.Table4(evals, []int{512, 1024})
	}
	b.ReportMetric(metrics.Median(r.Values["k512"]), "median-ratio-k512")
	b.ReportMetric(metrics.Median(r.Values["k1024"]), "median-ratio-k1024")
}

// BenchmarkFig9ReorderingEffect regenerates the Fig 9 scatter (forced
// reordering on a corpus slice) and reports how many matrices improved.
func BenchmarkFig9ReorderingEffect(b *testing.B) {
	evals := corpusEvals(b)
	slice := evals
	if len(slice) > 24 {
		slice = slice[:24]
	}
	b.ResetTimer()
	var improved, total int
	for i := 0; i < b.N; i++ {
		_, pts, err := experiments.Fig9(slice, 512, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		improved, total = 0, len(pts)
		for _, p := range pts {
			if p.SpeedupOverNR > 1 {
				improved++
			}
		}
	}
	b.ReportMetric(float64(improved), "matrices-improved")
	b.ReportMetric(float64(total), "matrices-total")
}

// BenchmarkMetisBaseline regenerates the §5.2 METIS comparison on a
// corpus slice and reports the fraction of matrices that slow down under
// vertex reordering (the paper: all of them).
func BenchmarkMetisBaseline(b *testing.B) {
	evals := corpusEvals(b)
	var square []*experiments.MatrixEval
	for _, ev := range evals {
		if ev.Entry.M.Rows == ev.Entry.M.Cols {
			square = append(square, ev)
		}
		if len(square) == 12 {
			break
		}
	}
	b.ResetTimer()
	var slow, total int
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9Metis(square, 512, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		slow, total = 0, len(r.Values["speedup"])
		for _, sp := range r.Values["speedup"] {
			if sp < 1 {
				slow++
			}
		}
	}
	b.ReportMetric(float64(slow), "slowed-down")
	b.ReportMetric(float64(total), "total")
}

// ---- Concurrent serving benches ----

func onlineBenchSetup(b *testing.B) (*repro.OnlinePipeline, *repro.Dense) {
	b.Helper()
	m, err := repro.GenerateScrambledClusters(4096, 4096, 512, 15)
	if err != nil {
		b.Fatal(err)
	}
	o, err := repro.NewOnlinePipeline(m, repro.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 64, 1)
	if _, err := o.SpMM(x); err != nil { // warm the pools
		b.Fatal(err)
	}
	return o, x
}

// BenchmarkOnlineSpMMSerialized emulates the seed's OnlinePipeline,
// which held one mutex across every call: concurrent callers are
// serialized behind a lock.
func BenchmarkOnlineSpMMSerialized(b *testing.B) {
	o, x := onlineBenchSetup(b)
	var mu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		y := repro.NewDense(o.Pipeline().Matrix().Rows, x.Cols)
		for pb.Next() {
			mu.Lock()
			err := o.SpMMIntoCtx(context.Background(), y, x)
			mu.Unlock()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkOnlineSpMMConcurrent measures the decided lock-free fast
// path: the same concurrent callers with no serialization. With
// per-goroutine output buffers the steady state performs no heap
// allocations.
func BenchmarkOnlineSpMMConcurrent(b *testing.B) {
	o, x := onlineBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		y := repro.NewDense(o.Pipeline().Matrix().Rows, x.Cols)
		for pb.Next() {
			if err := o.SpMMIntoCtx(context.Background(), y, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Ablation benches (DESIGN.md §4) ----

// BenchmarkAblationSigLen sweeps the LSH signature length: longer
// signatures find (slightly) better candidate pairs at higher cost.
func BenchmarkAblationSigLen(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(4096, 4096, 512, 5)
	if err != nil {
		b.Fatal(err)
	}
	for _, siglen := range []int{32, 64, 128, 256} {
		b.Run(sigName(siglen), func(b *testing.B) {
			p := lsh.DefaultParams()
			p.SigLen = siglen
			var pairs int
			for i := 0; i < b.N; i++ {
				ps, err := lsh.CandidatePairs(m, p)
				if err != nil {
					b.Fatal(err)
				}
				pairs = len(ps)
			}
			b.ReportMetric(float64(pairs), "candidate-pairs")
		})
	}
}

func sigName(n int) string {
	return "siglen" + string(rune('0'+n/100%10)) + string(rune('0'+n/10%10)) + string(rune('0'+n%10))
}

// BenchmarkAblationBandSize sweeps the LSH band size: smaller bands admit
// more (lower-similarity) candidates.
func BenchmarkAblationBandSize(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(4096, 4096, 512, 6)
	if err != nil {
		b.Fatal(err)
	}
	for _, bsize := range []int{1, 2, 4, 8} {
		b.Run("bsize"+string(rune('0'+bsize)), func(b *testing.B) {
			p := lsh.DefaultParams()
			p.BandSize = bsize
			var pairs int
			for i := 0; i < b.N; i++ {
				ps, err := lsh.CandidatePairs(m, p)
				if err != nil {
					b.Fatal(err)
				}
				pairs = len(ps)
			}
			b.ReportMetric(float64(pairs), "candidate-pairs")
		})
	}
}

// BenchmarkAblationThresholdSize sweeps the cluster emission threshold
// (paper fixes 256) and reports the resulting dense-tile ratio.
func BenchmarkAblationThresholdSize(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(4096, 4096, 512, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, threshold := range []int{32, 128, 256, 1024} {
		name := "t" + string(rune('0'+threshold/1000%10)) + string(rune('0'+threshold/100%10)) +
			string(rune('0'+threshold/10%10)) + string(rune('0'+threshold%10))
		b.Run(name, func(b *testing.B) {
			cfg := reorder.DefaultConfig()
			cfg.ThresholdSize = threshold
			cfg.Force = true
			var ratio float64
			for i := 0; i < b.N; i++ {
				plan, err := reorder.Preprocess(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ratio = plan.DenseRatioAfter
			}
			b.ReportMetric(ratio, "dense-ratio-after")
		})
	}
}

// BenchmarkAblationOrderingStrategy compares the paper's hierarchical
// clustering against the greedy similarity chain and (at this size) the
// exhaustive all-pairs clustering ceiling, by resulting dense-tile
// ratio.
func BenchmarkAblationOrderingStrategy(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(2048, 2048, 256, 9)
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := lsh.CandidatePairs(m, lsh.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	ratioOf := func(order []int32) float64 {
		pm, err := sparsePermute(m, order)
		if err != nil {
			b.Fatal(err)
		}
		r, err := asptDenseRatio(pm)
		if err != nil {
			b.Fatal(err)
		}
		return r
	}
	b.Run("cluster-lsh", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			order, _, err := reorder.Cluster(m, pairs, reorder.DefaultThresholdSize)
			if err != nil {
				b.Fatal(err)
			}
			ratio = ratioOf(order)
		}
		b.ReportMetric(ratio, "dense-ratio")
	})
	b.Run("greedy-chain", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			order, err := reorder.GreedyOrder(m, pairs)
			if err != nil {
				b.Fatal(err)
			}
			ratio = ratioOf(order)
		}
		b.ReportMetric(ratio, "dense-ratio")
	})
	b.Run("cluster-exact", func(b *testing.B) {
		var ratio float64
		for i := 0; i < b.N; i++ {
			order, _, err := reorder.ExactCluster(m, reorder.DefaultThresholdSize)
			if err != nil {
				b.Fatal(err)
			}
			ratio = ratioOf(order)
		}
		b.ReportMetric(ratio, "dense-ratio")
	})
}

// BenchmarkAblationEmitOrder compares the paper's ascending-index
// within-cluster emission against this reproduction's merge-order
// extension, end to end through the pipeline and simulator. The
// difference appears when weak LSH pairs chain latent clusters into
// threshold-sized blobs: ascending emission interleaves the blob's
// latent clusters, merge order keeps them adjacent.
func BenchmarkAblationEmitOrder(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(8192, 8192, 1024, 11)
	if err != nil {
		b.Fatal(err)
	}
	dev := benchOptions().Device
	for _, mergeOrder := range []bool{false, true} {
		name := "ascending-paper"
		if mergeOrder {
			name = "merge-order-ext"
		}
		b.Run(name, func(b *testing.B) {
			cfg := repro.DefaultConfig()
			cfg.EmitMergeOrder = mergeOrder
			var speedup float64
			for i := 0; i < b.N; i++ {
				pipe, err := repro.NewPipeline(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				base, err := repro.EstimateSpMMRowWise(dev, m, 512)
				if err != nil {
					b.Fatal(err)
				}
				st, err := pipe.EstimateSpMM(dev, 512)
				if err != nil {
					b.Fatal(err)
				}
				speedup = st.Speedup(base)
			}
			b.ReportMetric(speedup, "sim-speedup")
		})
	}
}

// BenchmarkDeviceSweep runs the headline SpMM comparison on both device
// models, showing how cache capacity and bandwidth shift the speedup.
func BenchmarkDeviceSweep(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(8192, 8192, 1024, 10)
	if err != nil {
		b.Fatal(err)
	}
	cfg := repro.DefaultConfig()
	pipe, err := repro.NewPipeline(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, dev := range []repro.Device{repro.P100(), repro.V100()} {
		b.Run(dev.Name, func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				base, err := repro.EstimateSpMMRowWise(dev, m, 512)
				if err != nil {
					b.Fatal(err)
				}
				st, err := pipe.EstimateSpMM(dev, 512)
				if err != nil {
					b.Fatal(err)
				}
				speedup = st.Speedup(base)
			}
			b.ReportMetric(speedup, "sim-speedup")
		})
	}
}

// BenchmarkAblationRounds compares round-1-only, round-2-only, and both
// (the Fig 5 workflow) by simulated SpMM time.
func BenchmarkAblationRounds(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(8192, 8192, 1024, 8)
	if err != nil {
		b.Fatal(err)
	}
	dev := benchOptions().Device
	cfg := repro.DefaultConfig()
	cfg.Force = true
	full, err := repro.Preprocess(m, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		run  func() (*repro.SimStats, error)
	}{
		{"none", func() (*repro.SimStats, error) {
			p, err := repro.NewPipelineNR(m, cfg)
			if err != nil {
				return nil, err
			}
			return p.EstimateSpMM(dev, 512)
		}},
		{"round1only", func() (*repro.SimStats, error) {
			return repro.EstimateSpMMASpTPlanNoRound2(dev, full, 512)
		}},
		{"both", func() (*repro.SimStats, error) {
			p, err := repro.NewPipeline(m, cfg)
			if err != nil {
				return nil, err
			}
			return p.EstimateSpMM(dev, 512)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var st *repro.SimStats
			for i := 0; i < b.N; i++ {
				var err error
				st, err = tc.run()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(st.Throughput, "sim-gflops")
		})
	}
}

// BenchmarkAblationScheme compares plain MinHash signatures (the paper's
// preprocessing) against one-permutation hashing (extension): OPH cuts
// the signature stage by ~SigLen× while finding a comparable pair set.
func BenchmarkAblationScheme(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(8192, 8192, 1024, 13)
	if err != nil {
		b.Fatal(err)
	}
	for _, oph := range []bool{false, true} {
		name := "minhash-paper"
		if oph {
			name = "oph-ext"
		}
		b.Run(name, func(b *testing.B) {
			p := lsh.DefaultParams()
			p.OPH = oph
			var pairs int
			for i := 0; i < b.N; i++ {
				ps, err := lsh.CandidatePairs(m, p)
				if err != nil {
					b.Fatal(err)
				}
				pairs = len(ps)
			}
			b.ReportMetric(float64(pairs), "candidate-pairs")
		})
	}
}

// BenchmarkAblationPanelAlign measures the panel-aligned cluster packing
// extension against the paper's plain concatenation, by simulated SpMM
// speedup over the row-wise baseline.
func BenchmarkAblationPanelAlign(b *testing.B) {
	m, err := repro.GenerateScrambledClusters(8192, 8192, 2048, 17)
	if err != nil {
		b.Fatal(err)
	}
	dev := benchOptions().Device
	for _, align := range []bool{false, true} {
		name := "concat-paper"
		if align {
			name = "panel-align-ext"
		}
		b.Run(name, func(b *testing.B) {
			cfg := repro.DefaultConfig()
			cfg.PanelAlign = align
			var speedup float64
			for i := 0; i < b.N; i++ {
				pipe, err := repro.NewPipeline(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				base, err := repro.EstimateSpMMRowWise(dev, m, 512)
				if err != nil {
					b.Fatal(err)
				}
				st, err := pipe.EstimateSpMM(dev, 512)
				if err != nil {
					b.Fatal(err)
				}
				speedup = st.Speedup(base)
			}
			b.ReportMetric(speedup, "sim-speedup")
		})
	}
}
