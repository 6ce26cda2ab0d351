// Command perfbench is the repository benchmark. It runs one named
// workload against the sensjoin packages for a fixed measurement
// window, checks every result it produces against an independent
// reference, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the
// run is repeated with registries wired and every layer's public entry
// points timed from outside, and the metrics are the per-layer set.
// Every run also writes a result file (and, traced, a span log) with
// its provenance under .bench_build/results. See README.md for the
// workloads, the metrics and why each was chosen.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-1500 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	// spans collects the traced run's spans (nil when untraced).
	spans *spanLog
}

// outcome is what a workload returns: its counts, metrics and the
// parameters the result file records.
type outcome struct {
	Attempted int
	Failed    int
	// E2E holds the end-to-end metrics (untraced runs); Layers the
	// per-layer metrics (traced runs).
	E2E    map[string]float64
	Layers map[string]float64
	// Params records every workload parameter.
	Params map[string]any
	// Detail is workload-specific supporting data (ladder rungs,
	// failure samples) written to the result file only.
	Detail map[string]any
	// Ungated holds figures printed with the metrics but too unsteady on
	// a shared machine to carry a regression bound (the latencies and
	// sustained_qps).
	Ungated []ungated
	// Invalid names why the run cannot be reported (an open loop that
	// fell behind); empty for a valid run.
	Invalid string
}

type ungated struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newOutcome() *outcome {
	return &outcome{
		E2E: map[string]float64{}, Layers: map[string]float64{},
		Params: map[string]any{}, Detail: map[string]any{},
	}
}

// fail records one failed operation with a short reason kept as a
// sample in the result file.
func (o *outcome) fail(reason string) {
	o.Failed++
	s, _ := o.Detail["failure_samples"].([]string)
	if len(s) < 20 {
		o.Detail["failure_samples"] = append(s, reason)
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"serve-once":       runServeOnce,
	"serve-continuous": runServeContinuous,
	"paper-1500":       runPaper1500,
	"lossy-churn":      runLossyChurn,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-once, serve-continuous, paper-1500 or lossy-churn")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result files")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *traced == 1}
	if cfg.Trace {
		cfg.spans = newSpanLog()
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.Trace {
		zeroLayers(out)
	}
	if err := writeResult(*outDir, *name, cfg, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing results: %v\n", err)
		os.Exit(1)
	}
	if out.Invalid != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s: run invalid, not reported: %s\n", *name, out.Invalid)
		os.Exit(3)
	}
	line, err := summaryLine(cfg, out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printTable(*name, cfg, out)
	fmt.Println(line)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// reported returns the metric catalog and values the run reports.
func reported(cfg runConfig, out *outcome) ([]metricDef, map[string]float64) {
	if cfg.Trace {
		return layerMetrics, out.Layers
	}
	return e2eMetrics, out.E2E
}

// summaryLine renders the final JSON line. A metric the workload did not
// fill is an error: every run reports the whole catalog.
func summaryLine(cfg runConfig, out *outcome) (string, error) {
	defs, vals := reported(cfg, out)
	type metricOut struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{out.Failed == 0 && out.Attempted > 0, out.Attempted, out.Failed, metrics})
	return string(b), err
}

// printTable prints every reported metric by name with its unit, plus
// the failure fraction (which the JSON line carries as failed/attempted).
func printTable(name string, cfg runConfig, out *outcome) {
	defs, vals := reported(cfg, out)
	mode := "end-to-end"
	if cfg.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Printf("# perfbench %s seed=%d seconds=%g: %s metrics\n", name, cfg.Seed, cfg.Seconds, mode)
	for _, d := range defs {
		fmt.Printf("%-30s %14.6g %s\n", d.Name, vals[d.Name], d.Unit)
	}
	frac := 0.0
	if out.Attempted > 0 {
		frac = float64(out.Failed) / float64(out.Attempted)
	}
	fmt.Printf("%-30s %14.6g %s (%d of %d attempted)\n", "failed_frac", frac, "ratio", out.Failed, out.Attempted)
	for _, u := range out.Ungated {
		fmt.Printf("%-30s %14.6g %s (not gated)\n", u.Name, u.Value, u.Unit)
	}
}
