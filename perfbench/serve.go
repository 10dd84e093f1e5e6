package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro"
	"repro/internal/integrity"
)

type runOpts struct {
	seed    int64
	dur     time.Duration
	short   bool
	spanDir string
}

const (
	// setupReps is how many cold set-ups one end-to-end run serves
	// from: the measured phase is split evenly across their servers, so
	// each run averages setupReps × tenantsPer independent plan
	// decisions per family.
	setupReps = 3
	// timedOnlySetups more set-ups are timed and closed unserved first,
	// so setup_s is the median of timedOnlySetups+setupReps set-ups.
	timedOnlySetups = 2
	// planCacheCap holds every plan of every tenant, so set-up measures
	// cold builds plus same-structure hits, not LRU churn.
	planCacheCap = 64
	// checkRows is how many output rows each sampled check recomputes.
	checkRows = 64
)

// tenantRef is one served tenant and the family it serves.
type tenantRef struct {
	id  string
	fam int
}

// env is one workload's generated inputs and its serving state.
type env struct {
	w     workload
	short bool
	fams  []family
	ops   []operands
	muts  mutationPlan
	srv   *repro.Server
	refs  []tenantRef
	outs  []*sync.Pool // per family: SDDMM output buffers (clones)
	setup []float64    // seconds per cold set-up
	hits  repro.CacheStats
}

// newEnv generates every input of w from seed. Nothing here depends on
// anything but the seed and the size class.
func newEnv(w workload, o runOpts) (*env, error) {
	fams, err := w.gen(o.seed, o.short)
	if err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", w.name, err)
	}
	e := &env{w: w, short: o.short, fams: fams}
	for i, f := range fams {
		e.ops = append(e.ops, genOperands(f.m, w.ks, w.sddmmEvery > 0, o.seed*1000+int64(i)*100))
		m := f.m
		e.outs = append(e.outs, &sync.Pool{New: func() any { return m.Clone() }})
	}
	if w.mutate {
		if e.muts, err = genMutations(fams[0].m, o.dur, o.seed); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// tenantID names the t-th tenant of family f; the first tenant of the
// first family is the server's default tenant.
func tenantID(f family, fi, t int) string {
	if fi == 0 && t == 0 {
		return repro.DefaultTenant
	}
	return fmt.Sprintf("%s-%d", f.name, t)
}

// setUp builds a server over every tenant with a cold plan cache and no
// disk tier, and returns once every tenant's background build has
// landed and its first request (which runs its trial) has been served.
func (e *env) setUp(ctx context.Context) error {
	repro.SetPlanCacheCapacity(planCacheCap)
	cfg := repro.DefaultConfig()
	scfg := e.w.scfg(e.short)
	start := time.Now()
	srv, err := repro.NewServer(ctx, e.fams[0].m, cfg, scfg)
	if err != nil {
		return err
	}
	var refs []tenantRef
	for fi, f := range e.fams {
		for t := 0; t < e.w.tenantsPer; t++ {
			id := tenantID(f, fi, t)
			if id != repro.DefaultTenant {
				if err := srv.AddTenant(ctx, id, f.m, cfg, 1); err != nil {
					srv.Close(ctx)
					return err
				}
			}
			refs = append(refs, tenantRef{id: id, fam: fi})
		}
	}
	// First requests go out once every build has landed, so no tenant's
	// trial races another tenant's background preprocessing.
	lps := make([]*repro.LivePipeline, len(refs))
	for i, r := range refs {
		lp, err := srv.LiveTenant(r.id)
		if err != nil {
			srv.Close(ctx)
			return err
		}
		if o := lp.Online(); o != nil {
			if err := o.WaitPreprocessed(ctx); err != nil {
				srv.Close(ctx)
				return err
			}
		}
		lps[i] = lp
	}
	k := e.w.ks[0]
	for i, r := range refs {
		y := repro.NewDense(lps[i].Matrix().Rows, k)
		if err := srv.SpMMIntoTenant(ctx, r.id, y, e.ops[r.fam].x[k][0]); err != nil {
			srv.Close(ctx)
			return fmt.Errorf("first request on %s: %w", r.id, err)
		}
	}
	e.setup = append(e.setup, time.Since(start).Seconds())
	e.srv, e.refs, e.hits = srv, refs, repro.PlanCacheStats()
	return nil
}

// reqSample is one request's outcome.
type reqSample struct {
	due, issue, end time.Time
	flops           float64
	err             error
	firstAfterSwap  bool
}

// loadStats aggregates one or more load phases.
type loadStats struct {
	samples []reqSample
	wall    time.Duration // summed length of the phases
	cpu     time.Duration // process CPU time used during the phases
	// winFlops is the useful flops completed in each whole window of
	// winDur inside the phases' scheduled durations.
	winFlops   []float64
	winDur     time.Duration
	mismatches int64
	stale      int64 // reads re-issued after a concurrent append
	errs       []string

	mutateMs      []float64
	swapLagMs     []float64
	swapsObserved int
}

func (ls *loadStats) attempted() int64 { return int64(len(ls.samples)) }

func (ls *loadStats) failed() int64 {
	var n int64
	for _, s := range ls.samples {
		if s.err != nil {
			n++
		}
	}
	return n
}

func (ls *loadStats) noteErr(err error) {
	if len(ls.errs) < 8 {
		ls.errs = append(ls.errs, err.Error())
	}
}

// latenciesMs returns every request's latency from when it was due; a
// failed request counts as having taken the whole phase, so it misses
// any latency limit.
func (ls *loadStats) latenciesMs() []float64 {
	whole := ls.wall.Seconds() * 1e3
	out := make([]float64, len(ls.samples))
	for i, s := range ls.samples {
		if s.err != nil {
			out[i] = whole
			continue
		}
		out[i] = s.end.Sub(s.due).Seconds() * 1e3
	}
	return out
}

func (ls *loadStats) lagsMs() []float64 {
	out := make([]float64, len(ls.samples))
	for i, s := range ls.samples {
		out[i] = s.issue.Sub(s.due).Seconds() * 1e3
	}
	return out
}

func (ls *loadStats) firstAfterSwapMs() []float64 {
	var out []float64
	for _, s := range ls.samples {
		if s.firstAfterSwap && s.err == nil {
			out = append(out, s.end.Sub(s.due).Seconds()*1e3)
		}
	}
	return out
}

// gflops is useful flops of completed requests per wall second: the
// median over whole windows, so a transient stall from outside the
// process moves one window rather than the run's figure.
func (ls *loadStats) gflops() float64 {
	return median(ls.winFlops) / ls.winDur.Seconds() / 1e9
}

func (ls *loadStats) usefulFlops() float64 {
	var f float64
	for _, s := range ls.samples {
		if s.err == nil {
			f += s.flops
		}
	}
	return f
}

// cpuNsPerFlop is process CPU time per useful flop over the phases:
// the serving cost of the work, background rebuilds and collection
// included, and unaffected by CPU time the host steals.
func (ls *loadStats) cpuNsPerFlop() float64 {
	return float64(ls.cpu.Nanoseconds()) / ls.usefulFlops()
}

// merge folds another phase into ls.
func (ls *loadStats) merge(o *loadStats) {
	ls.samples = append(ls.samples, o.samples...)
	ls.wall += o.wall
	ls.cpu += o.cpu
	ls.winFlops = append(ls.winFlops, o.winFlops...)
	ls.winDur = o.winDur
	ls.mismatches += o.mismatches
	ls.stale += o.stale
	for _, e := range o.errs {
		if len(ls.errs) < 8 {
			ls.errs = append(ls.errs, e)
		}
	}
	ls.mutateMs = append(ls.mutateMs, o.mutateMs...)
	ls.swapLagMs = append(ls.swapLagMs, o.swapLagMs...)
	ls.swapsObserved += o.swapsObserved
}

// splitmix64 spreads request indices into per-request choices.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// request issues request i and checks its output when i is sampled.
// It returns the request's useful flops.
func (e *env) request(ctx context.Context, seed int64, i int, ls *loadStats, mu *sync.Mutex) (float64, error) {
	w := e.w
	ref := e.refs[i%len(e.refs)]
	h := splitmix64(uint64(seed)<<32 ^ uint64(i))
	k := w.ks[h%uint64(len(w.ks))]
	ops := e.ops[ref.fam]
	x := ops.x[k][(h>>8)%operandsPerK]
	check := w.checkEvery > 0 && (h>>24)%uint64(w.checkEvery) == 0
	fail := func(err error) (float64, error) {
		mu.Lock()
		ls.noteErr(err)
		mu.Unlock()
		return 0, err
	}
	mismatch := func(err error) (float64, error) {
		mu.Lock()
		ls.mismatches++
		ls.noteErr(err)
		mu.Unlock()
		return 0, err
	}
	lp, err := e.srv.LiveTenant(ref.id)
	if err != nil {
		return fail(err)
	}

	if w.sddmmEvery > 0 && i%w.sddmmEvery == w.sddmmEvery-1 {
		m := e.fams[ref.fam].m
		yop := ops.y[k][(h>>16)%operandsPerK]
		out := e.outs[ref.fam].Get().(*repro.Matrix)
		defer e.outs[ref.fam].Put(out)
		if err := e.srv.SDDMMIntoTenant(ctx, ref.id, out, x, yop); err != nil {
			return fail(err)
		}
		if check {
			if err := integrity.CheckSDDMMRows(m, x, yop, out.Val, checkRows, uint64(i),
				integrity.DefaultRelTol, integrity.DefaultAbsTol); err != nil {
				return mismatch(err)
			}
		}
		return 2 * float64(m.NNZ()) * float64(k), nil
	}

	// A structural append between sizing y and serving makes the call
	// fail with ErrStaleShape; like any client, resize and re-issue.
	for attempt := 0; ; attempt++ {
		e0 := lp.Epoch()
		m := lp.Matrix()
		e1 := lp.Epoch()
		y := repro.GetDense(m.Rows, k)
		err := e.srv.SpMMIntoTenant(ctx, ref.id, y, x)
		if errors.Is(err, repro.ErrStaleShape) && attempt < 3 {
			repro.PutDense(y)
			mu.Lock()
			ls.stale++
			mu.Unlock()
			continue
		}
		if err != nil {
			repro.PutDense(y)
			return fail(err)
		}
		// Only reads that ran wholly inside one epoch have a known
		// reference: the matrix published at that epoch.
		if check && e0 == e1 && lp.Epoch() == e0 {
			if err := integrity.CheckSpMMRows(m, x, y, checkRows, uint64(i),
				integrity.DefaultRelTol, integrity.DefaultAbsTol); err != nil {
				repro.PutDense(y)
				return mismatch(err)
			}
		}
		repro.PutDense(y)
		return 2 * float64(m.NNZ()) * float64(k), nil
	}
}

// swapWatch follows one tenant's LiveStats from outside: it marks each
// observed swap so the next issued read is tagged first-after-swap,
// and resolves each structural mutation's swap lag once a swap has
// folded it into the base (swap count past the mutation's, overlay
// and tail empty).
type swapWatch struct {
	lp *repro.LivePipeline

	mu       sync.Mutex
	pending  []pendingMut
	lagsMs   []float64
	swaps    int
	markSwap atomic.Int64 // unix ns of an unclaimed swap observation, 0 if none
}

type pendingMut struct {
	at    time.Time
	swaps int64
}

func (sw *swapWatch) mutated(at time.Time, swaps int64) {
	sw.mu.Lock()
	sw.pending = append(sw.pending, pendingMut{at, swaps})
	sw.mu.Unlock()
}

// claim reports whether a read issued at t is the first after a swap.
func (sw *swapWatch) claim(t time.Time) bool {
	m := sw.markSwap.Load()
	return m != 0 && t.UnixNano() > m && sw.markSwap.CompareAndSwap(m, 0)
}

func (sw *swapWatch) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	last := sw.lp.Stats().Swaps
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		st := sw.lp.Stats()
		now := time.Now()
		if st.Swaps == last {
			continue
		}
		last = st.Swaps
		sw.markSwap.Store(now.UnixNano())
		sw.mu.Lock()
		sw.swaps++
		if st.OverlayRows == 0 && st.TailRows == 0 {
			keep := sw.pending[:0]
			for _, p := range sw.pending {
				if st.Swaps > p.swaps {
					sw.lagsMs = append(sw.lagsMs, now.Sub(p.at).Seconds()*1e3)
				} else {
					keep = append(keep, p)
				}
			}
			sw.pending = keep
		}
		sw.mu.Unlock()
	}
}

// runLoad drives the workload's load for dur: closed-loop clients or an
// open-loop Poisson schedule, plus the mutator when the workload has
// one. onReq, when set, sees every finished request (the traced run
// records a span per request through it).
func (e *env) runLoad(ctx context.Context, seed int64, dur time.Duration, onReq func(i int, s reqSample)) (*loadStats, error) {
	ls := &loadStats{}
	var mu sync.Mutex
	var sw *swapWatch
	stopWatch, watchDone := make(chan struct{}), make(chan struct{})
	if e.w.mutate {
		lp, err := e.srv.LiveTenant(e.refs[0].id)
		if err != nil {
			return nil, err
		}
		sw = &swapWatch{lp: lp}
		go sw.run(stopWatch, watchDone)
	} else {
		close(watchDone)
	}

	finish := func(i int, s reqSample, local *[]reqSample) {
		*local = append(*local, s)
		if onReq != nil {
			mu.Lock()
			onReq(i, s)
			mu.Unlock()
		}
	}
	var all [][]reqSample
	var wg sync.WaitGroup
	cpu0 := processCPU()
	start := time.Now()
	var mutWG sync.WaitGroup
	if e.w.mutate {
		mutWG.Add(1)
		go func() {
			defer mutWG.Done()
			e.mutator(ctx, ls, &mu, sw, dur)
		}()
	}
	switch e.w.load {
	case closedLoop:
		all = make([][]reqSample, e.w.clients)
		var next atomic.Int64
		for c := 0; c < e.w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				free := start
				for {
					issue := time.Now()
					if issue.Sub(start) >= dur {
						return
					}
					i := int(next.Add(1) - 1)
					// A closed loop has no schedule: a request is due
					// when its client became free.
					s := reqSample{due: free, issue: issue}
					s.flops, s.err = e.request(ctx, seed, i, ls, &mu)
					s.end = time.Now()
					free = s.end
					finish(i, s, &all[c])
				}
			}(c)
		}
	case openLoop:
		rng := rand.New(rand.NewSource(seed ^ 0x6f70656e))
		var due []time.Duration
		for t := time.Duration(0); ; {
			t += time.Duration(rng.ExpFloat64() / e.w.rate * float64(time.Second))
			if t >= dur {
				break
			}
			due = append(due, t)
		}
		jobs := make(chan int, len(due))
		all = make([][]reqSample, e.w.inFlight)
		for c := 0; c < e.w.inFlight; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := range jobs {
					s := reqSample{due: start.Add(due[i]), issue: time.Now()}
					if sw != nil {
						s.firstAfterSwap = sw.claim(s.issue)
					}
					s.flops, s.err = e.request(ctx, seed, i, ls, &mu)
					s.end = time.Now()
					finish(i, s, &all[c])
				}
			}(c)
		}
		for i, d := range due {
			if wait := time.Until(start.Add(d)); wait > 0 {
				time.Sleep(wait)
			}
			jobs <- i
		}
		close(jobs)
	}
	wg.Wait()
	ls.wall = time.Since(start)
	mutWG.Wait()
	close(stopWatch)
	<-watchDone
	ls.cpu = processCPU() - cpu0
	ls.winDur = min(time.Second, dur/2)
	ls.winFlops = make([]float64, int(dur/ls.winDur))
	for _, a := range all {
		ls.samples = append(ls.samples, a...)
		for _, s := range a {
			if w := int(s.end.Sub(start) / ls.winDur); s.err == nil && w < len(ls.winFlops) {
				ls.winFlops[w] += s.flops
			}
		}
	}
	sort.Slice(ls.samples, func(i, j int) bool { return ls.samples[i].due.Before(ls.samples[j].due) })
	if sw != nil {
		ls.swapLagMs, ls.swapsObserved = sw.lagsMs, sw.swaps
	}
	return ls, nil
}

// mutator applies the pre-generated batches at fixed rates: a value
// batch every valueEvery and a structural batch every structuralEvery.
func (e *env) mutator(ctx context.Context, ls *loadStats, mu *sync.Mutex, sw *swapWatch, dur time.Duration) {
	id := e.refs[0].id
	start := time.Now()
	nextVal, nextStruct := valueEvery, structuralEvery
	vi, si := 0, 0
	for {
		at := nextVal
		structural := nextStruct <= nextVal
		if structural {
			at = nextStruct
		}
		if at >= dur {
			return
		}
		if wait := time.Until(start.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		var batch repro.Mutation
		if structural {
			batch = e.muts.structural[si%len(e.muts.structural)]
			si++
			nextStruct += structuralEvery
		} else {
			batch = repro.Mutation{UpdateValues: e.muts.values[vi%len(e.muts.values)]}
			vi++
			nextVal += valueEvery
		}
		t0 := time.Now()
		err := e.srv.MutateTenant(ctx, id, batch)
		t1 := time.Now()
		mu.Lock()
		ls.mutateMs = append(ls.mutateMs, t1.Sub(t0).Seconds()*1e3)
		if err != nil {
			ls.noteErr(fmt.Errorf("mutate: %w", err))
		}
		mu.Unlock()
		if structural && err == nil {
			sw.mutated(t1, sw.lp.Stats().Swaps)
		}
	}
}

// peakRSSMB is the process's peak resident set (VmHWM), from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// processCPU is the user plus system CPU time the process has used. On
// a shared VM it excludes time the host stole from the guest, which
// wall-clock figures cannot.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// decisions records which plan and kernel each tenant of the current
// server (built by set-up number setup) ended up serving.
func (e *env) decisions(setup int) []decision {
	var out []decision
	for _, r := range e.refs {
		d := decision{Setup: setup, Tenant: r.id, Family: e.fams[r.fam].name}
		lp, err := e.srv.LiveTenant(r.id)
		if err != nil {
			continue
		}
		if sh := lp.Sharded(); sh != nil {
			d.Sharded = true
			for p := 0; p < sh.Panels(); p++ {
				d.PanelKernels = append(d.PanelKernels, sh.PanelKernel(p).String())
			}
		} else if o := lp.Online(); o != nil {
			d.Decided, d.Reordered = o.Decided()
			d.Kernel = o.Kernel().String()
			rr, nr := o.TrialTimes()
			d.TrialRRms, d.TrialNRms = rr.Seconds()*1e3, nr.Seconds()*1e3
			d.Degraded, _ = o.Degraded()
		}
		out = append(out, d)
	}
	return out
}

type decision struct {
	Setup        int      `json:"setup"`
	Tenant       string   `json:"tenant"`
	Family       string   `json:"family"`
	Sharded      bool     `json:"sharded"`
	PanelKernels []string `json:"panel_kernels,omitempty"`
	Decided      bool     `json:"decided"`
	Reordered    bool     `json:"reordered"`
	Kernel       string   `json:"kernel,omitempty"`
	TrialRRms    float64  `json:"trial_rr_ms"`
	TrialNRms    float64  `json:"trial_nr_ms"`
	Degraded     bool     `json:"degraded"`
}

// warmUpFor is how long each freshly set-up server serves the
// workload before measuring: the first second after set-up carries
// one-off costs (pools filling, first coalesced widths, collecting the
// set-up's garbage) that later requests never pay again.
const warmUpFor = time.Second

// warmUp serves the workload unmeasured for warmUpFor. Any failure or
// output mismatch there is an error: the run is not valid.
func (e *env) warmUp(ctx context.Context, seed int64) (*loadStats, error) {
	ls, err := e.runLoad(ctx, seed^0x7761726d, warmUpFor, nil)
	if err != nil {
		return nil, err
	}
	if ls.failed() > 0 || ls.mismatches > 0 {
		return nil, fmt.Errorf("warm-up: %d failed, %d mismatched: %v", ls.failed(), ls.mismatches, ls.errs)
	}
	return ls, nil
}

// runEndToEnd is the untraced run: setupReps cold set-ups, each
// followed by its share of the measured load phase.
func runEndToEnd(ctx context.Context, w workload, o runOpts) (*result, *record, error) {
	e, err := newEnv(w, o)
	if err != nil {
		return nil, nil, err
	}
	ls := &loadStats{}
	var decs []decision
	// Latency percentiles are taken per phase and the median phase is
	// recorded, so a stall from outside the process inflates one phase's
	// tail rather than the run's.
	var p50, p99, phaseReqs, phaseBeyond []float64
	for rep := -timedOnlySetups; rep < setupReps; rep++ {
		if err := e.setUp(ctx); err != nil {
			return nil, nil, err
		}
		if rep < 0 {
			if err := e.srv.Close(ctx); err != nil {
				return nil, nil, err
			}
			runtime.GC()
			continue
		}
		phaseSeed := o.seed*setupReps + int64(rep)
		phase, err := e.warmUp(ctx, phaseSeed)
		if err == nil {
			phase, err = e.runLoad(ctx, phaseSeed, o.dur/setupReps, nil)
		}
		if err == nil {
			lat := phase.latenciesMs()
			p50 = append(p50, quantile(lat, 0.50))
			p99 = append(p99, quantile(lat, 0.99))
			phaseReqs = append(phaseReqs, float64(len(lat)))
			phaseBeyond = append(phaseBeyond, float64(countAbove(lat, p99[len(p99)-1])))
			ls.merge(phase)
			decs = append(decs, e.decisions(rep)...)
		}
		if cerr := e.srv.Close(ctx); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, nil, err
		}
		runtime.GC() // drop this server before the next set-up
	}
	attempted, failed := ls.attempted(), ls.failed()
	// Read before measureMachine allocates its copy arrays.
	rss := peakRSSMB()
	vals := map[string]float64{
		"setup_s":         median(e.setup),
		"gflops":          ls.gflops(),
		"cpu_ns_per_flop": ls.cpuNsPerFlop(),
		"ok_frac":         float64(attempted-failed) / float64(attempted),
		"peak_rss_mb":     rss,
	}
	ms, err := metricsFrom(vals, endToEndUnits)
	if err != nil {
		return nil, nil, err
	}
	rec := e.record(o, measureMachine(), ls, decs)
	// Latency is recorded, not gated: on a shared VM it tracks the CPU
	// time the host steals more than the program (see README.md).
	rec.Extra["lat_p50_ms"] = median(p50)
	rec.Extra["lat_p99_ms"] = median(p99)
	rec.Samples["phase_requests_min"] = int(minOf(phaseReqs))
	rec.Samples["phase_beyond_p99_min"] = int(minOf(phaseBeyond))
	return &result{
		Correct:   ls.mismatches == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   ms,
	}, rec, nil
}

// record assembles the run record shared by both run kinds.
func (e *env) record(o runOpts, mach machine, ls *loadStats, decs []decision) *record {
	lat := ls.latenciesMs()
	rec := &record{
		Workload:  e.w.name,
		Seed:      o.seed,
		Seconds:   o.dur.Seconds(),
		Machine:   mach,
		Decisions: decs,
		Samples: map[string]int{
			"requests":         len(lat),
			"beyond_p99":       countAbove(lat, quantile(lat, 0.99)),
			"setups":           len(e.setup),
			"stale_reissues":   int(ls.stale),
			"mismatches":       int(ls.mismatches),
			"mutations":        len(ls.mutateMs),
			"swaps_observed":   ls.swapsObserved,
			"first_after_swap": len(ls.firstAfterSwapMs()),
		},
		Extra: map[string]float64{
			"setup_s_min":        minOf(e.setup),
			"setup_s_max":        maxOf(e.setup),
			"loadgen_lag_p99_ms": quantile(ls.lagsMs(), 0.99),
		},
		Errors: ls.errs,
	}
	if e.w.mutate {
		rec.Extra["first_after_swap_ms"] = median(ls.firstAfterSwapMs())
		rec.Extra["swap_lag_ms"] = median(ls.swapLagMs)
		rec.Extra["mutate_p99_ms"] = quantile(ls.mutateMs, 0.99)
	}
	for k, v := range rec.Extra {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(rec.Extra, k) // nothing was measured
		}
	}
	return rec
}
