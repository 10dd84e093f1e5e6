package repro_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
)

// obsTestServer builds a decided, warm Server for observability tests:
// the reordered build has landed, its trial has decided, and one
// request has warmed the kernel pools.
// Each test passes a distinct seed so its matrix misses the
// process-wide plan cache and triggers a real background build.
func obsTestServer(t *testing.T, seed int64) (*repro.Server, *repro.Dense) {
	t.Helper()
	m := freshScrambled(t, seed)
	cfg := repro.DefaultConfig()
	cfg.PreprocessBudget = time.Hour
	s, err := repro.NewServer(context.Background(), m, cfg, repro.ServerConfig{
		DefaultDeadline: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	if err := s.Pipeline().WaitPreprocessed(context.Background()); err != nil {
		t.Fatal(err)
	}
	x := repro.NewRandomDense(m.Cols, 64, 11)
	if _, err := s.SpMM(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	return s, x
}

// Every registered metric family — server-scoped and process-wide —
// must appear in a /metrics scrape of a live server, and the document
// must conform to the Prometheus text grammar. The check is generic:
// it walks both registries' snapshots and requires every series to be
// exposed, so a family added anywhere in the stack is covered without
// editing this test.
func TestServerMetricsFamilies(t *testing.T) {
	s, x := obsTestServer(t, 7001)
	yd := repro.NewRandomDense(s.Pipeline().Pipeline().Matrix().Rows, 64, 12)
	if _, err := s.SDDMM(context.Background(), x, yd); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	s.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	samples, err := obs.ParseSamples(body)
	if err != nil {
		t.Fatalf("exposition unparseable: %v", err)
	}

	// Every series either registry knows about must be on the wire:
	// counters and gauges under their own key, histograms as the
	// derived _sum/_count/+Inf-bucket series.
	checked := 0
	for _, reg := range []*obs.Registry{s.Registry(), obs.Default()} {
		for _, smp := range reg.Snapshot() {
			labelSuffix := smp.Key()[len(smp.Name):]
			keys := []string{smp.Key()}
			if smp.Kind == obs.KindHistogram {
				keys = []string{
					smp.Name + "_sum" + labelSuffix,
					smp.Name + "_count" + labelSuffix,
				}
			}
			for _, key := range keys {
				if _, ok := samples[key]; !ok {
					t.Errorf("/metrics missing registered series %q", key)
				}
			}
			checked++
		}
	}
	if t.Failed() {
		t.Fatalf("scrape body:\n%s", body)
	}
	if checked < 40 {
		t.Fatalf("only %d registered series checked; registries look empty", checked)
	}

	// And the families this growth step introduced must actually be
	// registered — the generic walk above can't notice a family that
	// was never created.
	for _, want := range []string{
		`spmmrr_kernel_imbalance_count{kernel="spmm_aspt"}`,
		`spmmrr_kernel_chunk_seconds_count{kernel="spmm_aspt"}`,
		`spmmrr_kernel_nnz_total{kernel="spmm_aspt"}`,
		`spmmrr_kernel_passes_total{kernel="spmm_aspt"}`,
		`spmmrr_kernel_gflops{kernel="spmm_aspt"}`,
		`spmmrr_kernel_gbps{kernel="spmm_aspt"}`,
		`spmmrr_slo_p50_seconds{tenant="default"}`,
		`spmmrr_slo_p99_seconds{tenant="default"}`,
		`spmmrr_slo_burn_rate{tenant="default"}`,
		`spmmrr_slo_violations_total{tenant="default"}`,
	} {
		if _, ok := samples[want]; !ok {
			t.Fatalf("/metrics missing required series %q:\n%s", want, body)
		}
	}

	// Request latency observed by the SLO window must be reflected in
	// the quantile gauges once traffic has flowed.
	if samples[`spmmrr_slo_p99_seconds{tenant="default"}`] <= 0 {
		t.Fatalf("p99 gauge is zero after served traffic")
	}
}

// A served request's trace must account for at least 95% of its wall
// time as a span union: admission wait, retry attempts, kernel
// execution, and output permutation leave no unexplained gaps.
func TestServerTraceCoversWallTime(t *testing.T) {
	s, x := obsTestServer(t, 7002)
	for i := 0; i < 5; i++ {
		if _, err := s.SpMM(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}

	best, seen := 0.0, 0
	for _, tr := range s.Traces().Snapshot() {
		if tr.Op != "spmm" || tr.Err != "" || tr.WallUS <= 0 {
			continue
		}
		seen++
		if r := float64(tr.SpanCoverageUS()) / float64(tr.WallUS); r > best {
			best = r
		}
	}
	if seen == 0 {
		t.Fatalf("no finished spmm traces in the ring")
	}
	if best < 0.95 {
		t.Fatalf("best span-union coverage %.3f < 0.95 over %d traces", best, seen)
	}
}

// The trace ring is served at /debug/traces as JSON, each entry
// carrying op, spans, and the routing-decision annotations.
func TestServerDebugTracesEndpoint(t *testing.T) {
	s, x := obsTestServer(t, 7003)
	if _, err := s.SpMM(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ObsHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces = %d", rec.Code)
	}
	var traces []obs.TraceSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &traces); err != nil {
		t.Fatalf("/debug/traces is not a trace list: %v\n%s", err, rec.Body.String())
	}
	var spmm, build *obs.TraceSnapshot
	for i := range traces {
		switch traces[i].Op {
		case "spmm":
			if spmm == nil {
				spmm = &traces[i]
			}
		case "build_reordered":
			build = &traces[i]
		}
	}
	if spmm == nil {
		t.Fatalf("no spmm trace served: %s", rec.Body.String())
	}
	if len(spmm.Spans) == 0 || spmm.Attrs["outcome"] != "completed" {
		t.Fatalf("spmm trace incomplete: %+v", *spmm)
	}
	if path := spmm.Attrs["path"]; path != "reordered" && path != "plain" && path != "fallback" {
		t.Fatalf("spmm trace has no routing path annotation: %+v", spmm.Attrs)
	}
	if build == nil {
		t.Fatalf("background build trace not in ring: %s", rec.Body.String())
	}
	if build.Attrs["outcome"] != "ok" || build.Attrs["stages"] == "" {
		t.Fatalf("build trace missing outcome/stages: %+v", build.Attrs)
	}
	var hasStage bool
	for _, sp := range build.Spans {
		if strings.HasPrefix(sp.Name, "stage_") {
			hasStage = true
		}
	}
	if !hasStage {
		t.Fatalf("build trace has no per-stage spans: %+v", build.Spans)
	}
}

// Plan stage timings surface through the online pipeline and the
// server, and agree with the winning pipeline's plan.
func TestServerPlanStagesSurfaced(t *testing.T) {
	s, _ := obsTestServer(t, 7004)
	st := s.PlanStages()
	if st.Total() <= 0 {
		t.Fatalf("PlanStages total %v, want > 0", st.Total())
	}
	if got := s.Pipeline().PlanStages(); got != st {
		t.Fatalf("server and pipeline stage timings disagree: %+v vs %+v", st, got)
	}
	if got := s.Pipeline().Pipeline().PlanStages(); got != st {
		t.Fatalf("winner pipeline stage timings disagree: %+v vs %+v", st, got)
	}
}

// Explain must join the whole decision chain for an online tenant:
// plan identity, autotuner verdict, trial outcome, attribution, and
// SLO state, all consistent with the public accessors.
func TestServerExplainOnline(t *testing.T) {
	s, _ := obsTestServer(t, 7005)
	ex, err := s.Explain(repro.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Tenant != repro.DefaultTenant || ex.Mode != "online" {
		t.Fatalf("identity: %+v", ex)
	}
	if ex.PlanFingerprint == "" {
		t.Fatal("no plan fingerprint")
	}
	if got := s.Pipeline().PlanFingerprint(); got != ex.PlanFingerprint {
		t.Fatalf("fingerprint disagrees with pipeline: %q vs %q", ex.PlanFingerprint, got)
	}
	if !ex.Trial.Decided {
		t.Fatal("trial not decided in explain")
	}
	if ex.Trial.ReorderedSeconds <= 0 || ex.Trial.PlainSeconds <= 0 {
		t.Fatalf("trial times missing: %+v", ex.Trial)
	}
	if ex.Kernel == "" || ex.KernelVerdict == "" {
		t.Fatalf("kernel sections empty: %+v", ex)
	}
	if got := s.Kernel().String(); ex.Kernel != got {
		t.Fatalf("explain kernel %q, server serves %q", ex.Kernel, got)
	}
	if ex.NNZ <= 0 || ex.Rows <= 0 {
		t.Fatalf("shape missing: %+v", ex)
	}
	if len(ex.Attribution) == 0 {
		t.Fatal("no kernel attribution after served traffic")
	}
	for _, a := range ex.Attribution {
		if a.Passes <= 0 || a.NNZ <= 0 || a.GFLOPS <= 0 || a.MeanImbalance < 1 {
			t.Fatalf("implausible attribution row: %+v", a)
		}
	}
	if ex.SLO.P99Seconds <= 0 || ex.SLO.Violations != 0 || ex.SLO.Burning {
		t.Fatalf("SLO section after clean traffic: %+v", ex.SLO)
	}

	if _, err := s.Explain("no-such-tenant"); !errors.Is(err, repro.ErrUnknownTenant) {
		t.Fatalf("unknown tenant error = %v", err)
	}
}

// A sharded tenant's explain document reports the panel layout: the
// panels must tile the row space exactly, each with a valid kernel.
func TestServerExplainSharded(t *testing.T) {
	m := freshScrambled(t, 7006)
	s, err := repro.NewServer(context.Background(), m, repro.DefaultConfig(), repro.ServerConfig{
		DefaultDeadline: 5 * time.Second,
		ShardNNZ:        m.NNZ()/4 + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Close(ctx)
	})
	ex, err := s.Explain(repro.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Mode != "sharded" {
		t.Fatalf("mode = %q", ex.Mode)
	}
	sh := s.Sharded()
	if sh == nil || len(ex.Panels) != sh.Panels() || len(ex.Panels) < 2 {
		t.Fatalf("panels = %d, sharded reports %v", len(ex.Panels), sh)
	}
	next := 0
	for i, p := range ex.Panels {
		if p.Lo != next || p.Hi <= p.Lo || p.Kernel == "" {
			t.Fatalf("panel %d malformed: %+v", i, p)
		}
		next = p.Hi
	}
	if next != m.Rows {
		t.Fatalf("panels cover %d rows of %d", next, m.Rows)
	}
	if ex.PlanFingerprint == "" || ex.Trial.Decided {
		t.Fatalf("sharded identity/trial: %+v", ex)
	}
}

// The /debug/explain and /debug/events endpoints serve the documents
// over HTTP: explain resolves the default tenant when none is named,
// 404s unknown tenants, and the event ledger validates against the
// schema and records the trial decision.
func TestServerExplainAndEventsEndpoints(t *testing.T) {
	s, _ := obsTestServer(t, 7007)
	h := s.ObsHandler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/explain", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/explain = %d: %s", rec.Code, rec.Body.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("explain is not JSON: %v\n%s", err, rec.Body.String())
	}
	for _, key := range []string{
		"tenant", "mode", "plan_fingerprint", "kernel", "kernel_verdict",
		"features", "trial", "live", "integrity",
		"kernel_attribution", "slo",
	} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("explain missing %q: %v", key, doc)
		}
	}
	if doc["tenant"] != repro.DefaultTenant {
		t.Fatalf("bare /debug/explain resolved tenant %v", doc["tenant"])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/explain?tenant=ghost", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/explain?tenant=ghost = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/events", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/events = %d", rec.Code)
	}
	if err := obs.ValidateEvents(rec.Body.Bytes()); err != nil {
		t.Fatalf("event ledger invalid: %v\n%s", err, rec.Body.String())
	}
	var evs []obs.Event
	if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	var trial *obs.Event
	for i := range evs {
		if evs[i].Type == obs.EventTrialWinner {
			trial = &evs[i]
		}
	}
	if trial == nil {
		t.Fatalf("no trial_winner event in ledger: %+v", evs)
	}
	if trial.Tenant != repro.DefaultTenant || trial.PlanFP == "" || trial.Kernel == "" || trial.Value <= 0 {
		t.Fatalf("trial_winner event incomplete: %+v", *trial)
	}
	if got := s.Pipeline().PlanFingerprint(); trial.PlanFP != got {
		t.Fatalf("event fingerprint %q, pipeline %q", trial.PlanFP, got)
	}
}

// A tenant added with AddTenant decides its trial in the background
// build, before any request: once WaitPreprocessed returns, the event
// ring already holds its trial_winner event, labelled with the tenant
// and carrying the fingerprint of the plan it serves.
func TestAddTenantTrialWinnerEventBeforeFirstRequest(t *testing.T) {
	s, _ := obsTestServer(t, 7011)
	const id = "added"
	if err := s.AddTenant(context.Background(), id, freshScrambled(t, 7012), repro.DefaultConfig(), 1); err != nil {
		t.Fatal(err)
	}
	lp, err := s.LiveTenant(id)
	if err != nil {
		t.Fatal(err)
	}
	o := lp.Online()
	if err := o.WaitPreprocessed(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := s.TenantStats(id); st.Admitted != 0 {
		t.Fatalf("tenant served %d requests; want none", st.Admitted)
	}
	var found *obs.Event
	for _, e := range s.Events().Snapshot() {
		if e.Type == obs.EventTrialWinner && e.Tenant == id {
			found = &e
			break
		}
	}
	if found == nil {
		t.Fatalf("no trial_winner event for %q: %+v", id, s.Events().Snapshot())
	}
	if fp := o.PlanFingerprint(); fp == "" || found.PlanFP != fp {
		t.Fatalf("event fingerprint %q, pipeline %q", found.PlanFP, fp)
	}
}
