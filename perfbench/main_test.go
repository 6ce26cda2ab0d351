package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogMatchesBenchmarkFile keeps BENCHMARK.json and the
// workloads and metric catalogs the program reports in step.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	listed := map[string]bool{}
	for _, w := range f.Workloads {
		listed[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one the program runs (%v)", w.Name, workloadNames())
		}
	}
	for _, name := range workloadNames() {
		if !listed[name] {
			t.Errorf("workload %s is not in BENCHMARK.json", name)
		}
	}
	check := func(kind string, file []struct{ Name, Unit, Better string }, defs []metricDef) {
		if len(file) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(file), len(defs))
			return
		}
		for i, d := range defs {
			if file[i].Name != d.Name || file[i].Unit != d.Unit || file[i].Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, file[i], d)
			}
		}
	}
	check("end_to_end", f.EndToEnd, e2eMetrics)
	check("per_layer", f.PerLayer, layerMetrics)
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and checks that each reports its whole metric catalog with units, plus
// the ungated latencies (and, serving, sustained_qps), and that every
// result it checked was correct.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{Seed: 3, Seconds: 2, Trace: traced}
			if traced {
				cfg.spans = newSpanLog()
			}
			out, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			if traced {
				zeroLayers(out)
			}
			if out.Invalid != "" {
				t.Logf("%s traced=%t: run invalid (%s); checking its counts only", name, traced, out.Invalid)
			}
			line, err := summaryLine(cfg, out)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", name, traced, err)
			}
			var got struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(line), &got); err != nil {
				t.Fatalf("%s traced=%t: summary line %q: %v", name, traced, line, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d, samples %v",
					name, traced, got.Correct, got.Failed, got.Attempted, out.Detail["failure_samples"])
			}
			defs, _ := reported(cfg, out)
			for _, d := range defs {
				m, ok := got.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%t: metric %s missing or without unit %s", name, traced, d.Name, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.Name, m.Value)
				}
			}
			if traced {
				continue
			}
			want := map[string]string{"latency_p50_ms": "ms", "latency_p99_ms": "ms"}
			if strings.HasPrefix(name, "serve-") {
				want["sustained_qps"] = "queries/s"
			}
			for _, u := range out.Ungated {
				if want[u.Name] == u.Unit && u.Value > 0 {
					delete(want, u.Name)
				}
			}
			if len(want) > 0 {
				t.Errorf("%s: ungated metrics missing, without unit or not > 0: %v", name, want)
			}
		}
	}
}
