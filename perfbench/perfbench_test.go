package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// Every metric the benchmark can print is declared in BENCHMARK.json
// with the same unit, and every declared metric and workload exists.
func TestMetricsDeclared(t *testing.T) {
	bf := readBenchmarkFile(t)
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("end_to_end declared %v, benchmark prints %v", e2e, endToEndUnits)
	}
	if e2e["setup_s"] != "s" {
		t.Error("setup_s must be declared with unit s")
	}
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(layer, perLayerUnits) {
		t.Errorf("per_layer declared %v, benchmark prints %v", layer, perLayerUnits)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads declared %v, benchmark has %v", names, workloadNames())
	}
}

// The same seed generates identical inputs; another seed does not.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		o := runOpts{seed: 5, dur: time.Second, short: true}
		a, err := newEnv(w, o)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newEnv(w, o)
		if err != nil {
			t.Fatal(err)
		}
		o.seed = 6
		c, err := newEnv(w, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.fams {
			if !reflect.DeepEqual(a.fams[i].m, b.fams[i].m) {
				t.Errorf("%s/%s: same seed, different matrices", w.name, a.fams[i].name)
			}
			if reflect.DeepEqual(a.fams[i].m.ColIdx, c.fams[i].m.ColIdx) {
				t.Errorf("%s/%s: different seeds, identical matrices", w.name, a.fams[i].name)
			}
			if !reflect.DeepEqual(a.ops[i], b.ops[i]) {
				t.Errorf("%s/%s: same seed, different dense operands", w.name, a.fams[i].name)
			}
		}
		if !reflect.DeepEqual(a.muts, b.muts) {
			t.Errorf("%s: same seed, different mutations", w.name)
		}
	}
}

// Short mode runs every workload end to end and traced: outputs check
// clean and exactly the declared metrics are printed.
func TestWorkloadsShort(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 3, dur: 500 * time.Millisecond, short: true, spanDir: t.TempDir()}
			res, rec, err := runEndToEnd(ctx, w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEndUnits)
			if want := len(rec.Decisions); want == 0 || want%w.tenantsPer != 0 {
				t.Errorf("decisions recorded for %d tenants", want)
			}
			res, rec, err = runTraced(ctx, w, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayerUnits)
			if _, err := os.Stat(rec.SpansFile); err != nil {
				t.Errorf("spans file: %v", err)
			}
		})
	}
}

func checkResult(t *testing.T, res *result, units map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(units) {
		t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(units))
	}
	for name, m := range res.Metrics {
		if units[name] != m.Unit {
			t.Errorf("%s: unit %q, declared %q", name, m.Unit, units[name])
		}
	}
	if _, err := json.Marshal(res); err != nil {
		t.Errorf("result does not encode: %v", err)
	}
}
