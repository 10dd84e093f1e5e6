package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro"
)

// runTraced is the separate per-layer run: one cold set-up, the
// workload's load with a span per request for half of the run's
// time, then the layer ladder, the
// oracle gap, the preprocessing stages and the trial and swap probes on
// each of the workload's matrices. Nothing in it is timed end to end.
func runTraced(ctx context.Context, w workload, o runOpts) (*result, *record, error) {
	e, err := newEnv(w, o)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	vals := map[string]float64{}

	setupStart := time.Now()
	if err := e.setUp(ctx); err != nil {
		return nil, nil, err
	}
	tr.add(0, tr.newTrace(), 0, "setup", setupStart, time.Now(), nil)
	if lookups := e.hits.Hits + e.hits.Misses; lookups > 0 {
		vals["plancache.hit_frac"] = float64(e.hits.Hits) / float64(lookups)
	} else {
		vals["plancache.hit_frac"] = 0
	}

	// The load replay runs for half the run's time; the ladder, oracle,
	// preprocessing and probes take about as long again.
	_, err = e.warmUp(ctx, o.seed)
	if err != nil {
		e.srv.Close(ctx)
		return nil, nil, err
	}
	ls, err := e.runLoad(ctx, o.seed, o.dur/2, func(i int, s reqSample) {
		attrs := map[string]any{"tenant": e.refs[i%len(e.refs)].id, "i": i}
		if s.err != nil {
			attrs["error"] = s.err.Error()
		}
		tr.add(0, tr.newTrace(), 0, "request", s.issue, s.end, attrs)
	})
	if err != nil {
		e.srv.Close(ctx)
		return nil, nil, err
	}
	var shed, swaps, leads, joins int64
	for _, ts := range e.srv.AllTenantStats() {
		shed += ts.Shed
		swaps += ts.Live.Swaps
		leads += ts.Coalesce.Leads
		joins += ts.Coalesce.Joins
	}
	vals["serve.shed"] = float64(shed)
	vals["serve.retries"] = float64(e.srv.Stats().Retries)
	vals["live.swaps"] = float64(swaps)
	vals["serve.coalesce_ops_per_batch"] = 1 // uncoalesced: one op per pass
	if leads > 0 {
		vals["serve.coalesce_ops_per_batch"] = float64(leads+joins) / float64(leads)
	}
	vals["loadgen.lag_p99_ms"] = quantile(ls.lagsMs(), 0.99)
	decs := e.decisions(0)
	var online, reordered float64
	for _, d := range decs {
		if !d.Sharded {
			online++
			if d.Reordered {
				reordered++
			}
		}
	}
	vals["online.reordered_frac"] = reordered / online
	rec := e.record(o, measureMachine(), ls, decs)
	if err := e.srv.Close(ctx); err != nil {
		return nil, nil, err
	}
	if err := e.layers(ctx, tr, o.seed, vals); err != nil {
		return nil, nil, err
	}

	rec.SpansFile = filepath.Join(o.spanDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
	if err := tr.write(rec.SpansFile, w.name, o.seed); err != nil {
		return nil, nil, err
	}
	ms, err := metricsFrom(vals, perLayerUnits)
	if err != nil {
		return nil, nil, err
	}
	return &result{
		Correct:   ls.mismatches == 0,
		Attempted: ls.attempted(),
		Failed:    ls.failed(),
		Metrics:   ms,
	}, rec, nil
}

// layers fills the ladder, oracle, preprocessing and probe metrics.
// Times are averaged over the workload's request shapes (family × K);
// kernel rates are flop-weighted; preprocessing sums over families.
func (e *env) layers(ctx context.Context, tr *tracer, seed int64, vals map[string]float64) error {
	var (
		permute, onlineSelf, liveSelf, overlay, serverSelf, verify, gaps []float64
		trial, swapLag, firstAfter                                       []float64
		spmmFlops, spmmNs, sddmmNs, bytes                                float64
		st                                                               stageTimes
	)
	us := func(a, b time.Duration) float64 { return (a - b).Seconds() * 1e6 }
	for fi, f := range e.fams {
		l, err := buildLadder(ctx, f.m, e.w.scfg(e.short), e.w.ks[0])
		if err != nil {
			return fmt.Errorf("%s ladder: %w", f.name, err)
		}
		for _, k := range e.w.ks {
			s, err := ladderShape(ctx, tr, l, f.name, k, seed+int64(fi*10+k))
			if err != nil {
				l.close(ctx)
				return fmt.Errorf("%s ladder K=%d: %w", f.name, k, err)
			}
			med := s.med
			flops := 2 * float64(s.nnz) * float64(k)
			spmmFlops += flops
			spmmNs += float64(med[rungKernel])
			sddmmNs += float64(med[callSDDMM])
			bytes += float64(int64(s.nnz)*int64(8+4*k) + int64(s.rows)*int64(4*k))
			permute = append(permute, us(med[rungPipeline], med[rungKernel]))
			onlineSelf = append(onlineSelf, us(med[rungOnline], med[rungPipeline]))
			liveSelf = append(liveSelf, us(med[rungLive], med[rungOnline]))
			overlay = append(overlay, us(med[rungOverlay], med[rungLive]))
			serverSelf = append(serverSelf, us(med[rungServer], med[rungLive]))
			verify = append(verify, us(med[callVerify], 0))
			gaps = append(gaps, s.gap)
		}
		l.close(ctx)

		t, err := trialProbe(ctx, tr, f, e.w.ks[len(e.w.ks)-1])
		if err != nil {
			return fmt.Errorf("%s trial probe: %w", f.name, err)
		}
		trial = append(trial, t)
		lag, first, err := swapProbe(ctx, tr, f, e.w.ks[len(e.w.ks)-1], seed)
		if err != nil {
			return fmt.Errorf("%s swap probe: %w", f.name, err)
		}
		swapLag, firstAfter = append(swapLag, lag), append(firstAfter, first)

		fs, err := preprocessStages(ctx, tr, f.m, f.name)
		if err != nil {
			return fmt.Errorf("%s preprocessing: %w", f.name, err)
		}
		st.sigMs = append(st.sigMs, median(fs.sigMs))
		st.pairsMs = append(st.pairsMs, median(fs.pairsMs))
		st.clusterMs = append(st.clusterMs, median(fs.clusterMs))
		st.asptMs = append(st.asptMs, median(fs.asptMs))
		st.preMs = append(st.preMs, median(fs.preMs))
		st.allocs = append(st.allocs, median(fs.allocs))
		st.mb = append(st.mb, median(fs.mb))
	}
	// SDDMM does the same 2·nnz·K flops per call as SpMM at each shape.
	vals["kernels.spmm_gflops"] = spmmFlops / spmmNs
	vals["kernels.sddmm_gflops"] = spmmFlops / sddmmNs
	vals["kernels.flops_per_byte"] = spmmFlops / bytes
	vals["kernels.gbps_computed"] = bytes / spmmNs
	vals["pipeline.permute_us"] = mean(permute)
	vals["online.self_us"] = mean(onlineSelf)
	vals["live.self_us"] = mean(liveSelf)
	vals["live.overlay_us"] = mean(overlay)
	vals["server.self_us"] = mean(serverSelf)
	vals["integrity.verify_us"] = mean(verify)
	vals["reorder.oracle_gap"] = mean(gaps)
	vals["online.trial_ms"] = mean(trial)
	vals["live.swap_lag_ms"] = mean(swapLag)
	vals["live.first_after_swap_ms"] = mean(firstAfter)
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	vals["lsh.signatures_ms"] = sum(st.sigMs)
	vals["lsh.pairs_ms"] = sum(st.pairsMs)
	vals["reorder.cluster_ms"] = sum(st.clusterMs)
	vals["aspt.build_ms"] = sum(st.asptMs)
	vals["reorder.preprocess_ms"] = sum(st.preMs)
	vals["reorder.preprocess_allocs"] = sum(st.allocs)
	vals["reorder.preprocess_mb"] = sum(st.mb)
	return nil
}

// trialProbe times the first call on a fresh online pipeline (its
// trial) minus the median steady call, over probeReps pipelines.
func trialProbe(ctx context.Context, tr *tracer, f family, k int) (float64, error) {
	x := repro.NewRandomDense(f.m.Cols, k, 11)
	y := repro.NewDense(f.m.Rows, k)
	attrs := map[string]any{"family": f.name, "k": k}
	var extra []float64
	for r := 0; r < probeReps; r++ {
		o, err := repro.NewOnlinePipelineCtx(ctx, f.m, repro.DefaultConfig())
		if err != nil {
			return 0, err
		}
		if err := o.WaitPreprocessed(ctx); err != nil {
			return 0, err
		}
		trace := tr.newTrace()
		first, err := tr.timed(trace, 0, "online.first_call", attrs, func() error { return o.SpMMIntoCtx(ctx, y, x) })
		if err != nil {
			return 0, err
		}
		var steady []float64
		for i := 0; i < 5; i++ {
			d, err := tr.timed(trace, 0, "online.steady_call", attrs, func() error { return o.SpMMIntoCtx(ctx, y, x) })
			if err != nil {
				return 0, err
			}
			steady = append(steady, float64(d))
		}
		extra = append(extra, (float64(first)-median(steady))/1e6)
	}
	return median(extra), nil
}

// swapProbe applies probeReps structural batches to a live pipeline
// one at a time, timing each from Mutate returning until a swap has
// folded it into the base, then the first read after the swap. It
// returns the two medians in milliseconds.
func swapProbe(ctx context.Context, tr *tracer, f family, k int, seed int64) (lagMs, firstMs float64, err error) {
	muts, err := genMutations(f.m, time.Duration(probeReps)*structuralEvery, seed)
	if err != nil {
		return 0, 0, err
	}
	lp, err := repro.NewLivePipelineCtx(ctx, f.m, repro.DefaultConfig(), repro.LiveConfig{})
	if err != nil {
		return 0, 0, err
	}
	defer lp.Quiesce(ctx)
	if err := firstCall(ctx, lp.Online(), k); err != nil {
		return 0, 0, err
	}
	x := repro.NewRandomDense(f.m.Cols, k, 13)
	attrs := map[string]any{"family": f.name, "k": k}
	var lags, firsts []float64
	for r := 0; r < probeReps; r++ {
		trace := tr.newTrace()
		mu := muts.structural[r%len(muts.structural)]
		if _, err := tr.timed(trace, 0, "live.mutate", attrs, func() error { return lp.Mutate(ctx, mu) }); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		s0 := lp.Stats().Swaps
		deadline := t0.Add(60 * time.Second)
		for {
			st := lp.Stats()
			if st.Swaps > s0 && st.OverlayRows == 0 && st.TailRows == 0 {
				break
			}
			if time.Now().After(deadline) {
				return 0, 0, fmt.Errorf("no swap within 60s")
			}
			time.Sleep(200 * time.Microsecond)
		}
		now := time.Now()
		tr.add(0, trace, 0, "live.swap_wait", t0, now, attrs)
		lags = append(lags, now.Sub(t0).Seconds()*1e3)
		y := repro.NewDense(lp.Matrix().Rows, k)
		d, err := tr.timed(trace, 0, "live.first_after_swap", attrs, func() error { return lp.SpMMIntoCtx(ctx, y, x) })
		if err != nil {
			return 0, 0, err
		}
		firsts = append(firsts, d.Seconds()*1e3)
	}
	return median(lags), median(firsts), nil
}
