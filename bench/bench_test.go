package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// exactUnits are the units of deterministic counts: for a fixed seed and
// budget they repeat exactly, run to run.
var exactUnits = map[string]bool{"count": true, "exec": true}

// TestBenchmarkSmoke runs every workload in-process at a tiny scale, twice,
// and checks the output against BENCHMARK.json: every metric is emitted with
// its unit, names and counts are within the file's limits, the correctness
// checks pass, and exact counters repeat.
func TestBenchmarkSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d (want 2–8)", n, len(workloads))
	}
	for i, w := range bf.Workloads {
		if !nameRE.MatchString(w.Name) || i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q", i, w.Name)
		}
	}
	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json has %d end-to-end and %d per-layer metrics (want 1–16 and 1–128)", len(bf.EndToEnd), len(bf.PerLayer))
	}
	want := map[string]metricDef{}
	for _, m := range bf.EndToEnd {
		want[m.Name] = metricDef{m.Name, m.Unit, false}
	}
	for _, m := range bf.PerLayer {
		want[m.Name] = metricDef{m.Name, m.Unit, true}
	}
	if len(want) != len(bf.EndToEnd)+len(bf.PerLayer) || len(want) != len(metricDefs) {
		t.Errorf("BENCHMARK.json lists %d distinct metrics, the benchmark %d", len(want), len(metricDefs))
	}
	for _, d := range metricDefs {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q", d.name)
		}
		if want[d.name] != d {
			t.Errorf("metric %+v, BENCHMARK.json has %+v", d, want[d.name])
		}
	}

	o := options{seed: 1, scale: 0.004, reps: 2, trace: true}
	var first map[string]*workloadResult
	for run := 0; run < 2; run++ {
		got := map[string]*workloadResult{}
		for _, w := range workloads {
			res, err := measureWorkload(w, o, inProcess)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Errors) > 0 || res.Failed > 0 || res.Attempted == 0 {
				t.Errorf("%s: errors %q, %d of %d executions failed", w.name, res.Errors, res.Failed, res.Attempted)
			}
			for _, trace := range []bool{false, true} {
				line, _, err := resultLine([]*workloadResult{res}, trace)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Metrics map[string]struct{ Unit string } `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &out); err != nil {
					t.Fatal(err)
				}
				n := 0
				for name, d := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("%s: metric %s not measured", w.name, name)
					}
					if d.layer != trace {
						continue
					}
					n++
					if m, ok := out.Metrics[name]; !ok || m.Unit != d.unit {
						t.Errorf("%s: result line (trace %v) has %s as %+v, want unit %s", w.name, trace, name, m, d.unit)
					}
				}
				if len(out.Metrics) != n {
					t.Errorf("%s: result line (trace %v) has %d metrics, want %d", w.name, trace, len(out.Metrics), n)
				}
			}
			got[w.name] = res
		}
		if first == nil {
			first = got
			continue
		}
		for _, d := range metricDefs {
			if !exactUnits[d.unit] {
				continue
			}
			for name, res := range got {
				if a, b := first[name].Metrics[d.name], res.Metrics[d.name]; a != b {
					t.Errorf("%s: exact counter %s = %v, then %v", name, d.name, a, b)
				}
			}
		}
	}
}
