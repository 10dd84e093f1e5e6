// Command perfbench is the repository benchmark: it serves generated
// sparse matrices through the public repro API under one of three
// named workloads, checks every sampled output against a float64
// reference, and prints the run's metrics as one JSON object on the
// last line of standard output.
//
//	perfbench --workload tenants-steady --seed 1 --seconds 10 --trace 0
//
// --trace 0 is the end-to-end run (no tracing; end-to-end metrics).
// --trace 1 is the separate traced run: it times each layer's entry
// point, calls the preprocessing stages one at a time, replays the
// workload's load with a span per request, prints the per-layer
// metrics and writes every span to .bench_build/results. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// resultsDir is where run records and span files land, relative to
// the directory the benchmark runs from.
const resultsDir = ".bench_build/results"

// endToEndUnits and perLayerUnits declare every metric the benchmark can print, with its
// unit. BENCHMARK.json must declare the same names and units (the
// package tests enforce it).
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"gflops":          "GFLOP/s",
	"cpu_ns_per_flop": "ns",
	"ok_frac":         "frac",
	"peak_rss_mb":     "MB",
}

var perLayerUnits = map[string]string{
	"kernels.spmm_gflops":          "GFLOP/s",
	"kernels.sddmm_gflops":         "GFLOP/s",
	"kernels.flops_per_byte":       "flop/B",
	"kernels.gbps_computed":        "GB/s",
	"pipeline.permute_us":          "us",
	"reorder.oracle_gap":           "ratio",
	"online.reordered_frac":        "frac",
	"online.trial_ms":              "ms",
	"online.self_us":               "us",
	"live.overlay_us":              "us",
	"live.self_us":                 "us",
	"live.swaps":                   "count",
	"live.swap_lag_ms":             "ms",
	"live.first_after_swap_ms":     "ms",
	"lsh.signatures_ms":            "ms",
	"lsh.pairs_ms":                 "ms",
	"reorder.cluster_ms":           "ms",
	"aspt.build_ms":                "ms",
	"reorder.preprocess_ms":        "ms",
	"reorder.preprocess_allocs":    "count",
	"reorder.preprocess_mb":        "MB",
	"server.self_us":               "us",
	"serve.coalesce_ops_per_batch": "ops",
	"serve.shed":                   "count",
	"serve.retries":                "count",
	"integrity.verify_us":          "us",
	"plancache.hit_frac":           "frac",
	"loadgen.lag_p99_ms":           "ms",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything a reader needs to interpret one run beside its
// metrics: the machine, the per-tenant plan decisions, sample counts
// and the measures that are not gated metrics.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     bool               `json:"trace"`
	Machine   machine            `json:"machine"`
	Decisions []decision         `json:"decisions"`
	Samples   map[string]int     `json:"samples"`
	Extra     map[string]float64 `json:"extra,omitempty"`
	SpansFile string             `json:"spans_file,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "input-generation seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end run; 1: traced per-layer run")
	short := flag.Bool("short", false, "small inputs (smoke runs)")
	flag.Parse()

	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	w, ok := lookupWorkload(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n",
			*workload, *seconds, *trace)
		os.Exit(2)
	}
	opts := runOpts{
		seed:    *seed,
		dur:     time.Duration(*seconds * float64(time.Second)),
		short:   *short,
		spanDir: resultsDir,
	}
	ctx := context.Background()
	var (
		res *result
		rec *record
		err error
	)
	if *trace == 1 {
		res, rec, err = runTraced(ctx, w, opts)
	} else {
		res, rec, err = runEndToEnd(ctx, w, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rec.Trace = *trace == 1
	if err := writeRecord(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
		os.Exit(1)
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding run record:", err)
		os.Exit(1)
	}
	fmt.Println(string(recLine))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// writeRecord stores the run record next to the span files.
func writeRecord(rec *record) error {
	if err := os.MkdirAll(resultsDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t.json", rec.Workload, rec.Seed, rec.Trace)
	return os.WriteFile(filepath.Join(resultsDir, name), b, 0o644)
}

// metricsFrom keeps the values named in units, failing loudly when the
// run did not produce one of them.
func metricsFrom(vals map[string]float64, units map[string]string) (map[string]metric, error) {
	out := make(map[string]metric, len(units))
	var missing []string
	for name, unit := range units {
		v, ok := vals[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, name)
			continue
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("run produced no finite value for %v", missing)
	}
	return out, nil
}
