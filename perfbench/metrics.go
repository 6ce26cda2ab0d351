package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// catalogs; the smoke test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// e2eMetrics is what a user of the system sees. Every workload reports
// every one (see README.md for the per-workload definitions).
var e2eMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"queries_per_s", "exec/s", "higher"},
	{"tx_per_query", "packets", "lower"},
	{"max_node_tx", "packets", "lower"},
	{"exact_round_frac", "ratio", "higher"},
	{"peak_rss_mb", "MiB", "lower"},
}

// layerMetrics is the traced run's per-layer catalog. A layer a
// workload does not run reports 0 (README.md lists where each applies).
var layerMetrics = []metricDef{
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"loadgen.offered_qps", "queries/s", "higher"},
	{"server.exec_ms_p50", "ms", "lower"},
	{"server.exec_ms_p99", "ms", "lower"},
	{"server.wait_ms_p50", "ms", "lower"},
	{"server.wait_ms_p99", "ms", "lower"},
	{"server.busy_frac", "ratio", "lower"},
	{"server.queue_depth_max", "count", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.prepared_hit_rate", "ratio", "higher"},
	{"server.shared_frac", "ratio", "higher"},
	{"server.cluster_size_mean", "queries", "higher"},
	{"proto.encode_us", "us", "lower"},
	{"proto.decode_us", "us", "lower"},
	{"proto.bytes_per_query", "bytes", "lower"},
	{"query.prepare_us", "us", "lower"},
	{"core.exec_ms_p50", "ms", "lower"},
	{"core.exec_ms_p99", "ms", "lower"},
	{"core.oracle_ms_p50", "ms", "lower"},
	{"core.sim_ms_p50", "ms", "lower"},
	{"core.rows_per_exec", "rows", "lower"},
	{"core.contrib_frac", "ratio", "lower"},
	{"core.filter_bytes_mean", "bytes", "lower"},
	{"core.suppressed_per_exec", "count", "higher"},
	{"core.repairs_per_round", "count", "lower"},
	{"core.repair_failures", "count", "lower"},
	{"core.recovery_execs_per_round", "count", "lower"},
	{"mqo.round_ms_p50", "ms", "lower"},
	{"mqo.tx_ratio", "ratio", "lower"},
	{"field.sample_ms", "ms", "lower"},
	{"field.repeat_snapshot_frac", "ratio", "higher"},
	{"quadtree.encode_us", "us", "lower"},
	{"quadtree.bytes", "bytes", "lower"},
	{"netsim.events_per_exec", "count", "lower"},
	{"netsim.events_per_s", "1/s", "higher"},
	{"netsim.retx_ratio", "ratio", "lower"},
	{"netsim.giveups_per_round", "count", "lower"},
	{"netsim.lost_per_round", "count", "lower"},
	{"churn.deaths_per_round", "count", "lower"},
	{"churn.moves_per_round", "count", "lower"},
	{"topology.generate_ms", "ms", "lower"},
	{"routing.build_tree_ms", "ms", "lower"},
	{"field.env_build_ms", "ms", "lower"},
	{"server.listen_ms", "ms", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"go.alloc_bytes_per_exec", "bytes", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the nearest-rank q-quantile of xs. It sorts a copy,
// so callers may keep using xs in its original order.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[min(i, len(xs)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// blockRates returns executions per second over each run of block
// consecutive executions (durations in ms): the block's count over its
// summed time. With no whole block it returns one rate over them all.
func blockRates(durMs []float64, block int) []float64 {
	var rates []float64
	for lo := 0; lo+block <= len(durMs); lo += block {
		sum := 0.0
		for _, d := range durMs[lo : lo+block] {
			sum += d
		}
		rates = append(rates, float64(block)/(sum/1000))
	}
	if len(rates) == 0 {
		return []float64{ratio(1000, mean(durMs))}
	}
	return rates
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// repeat runs f at least 5 times, and more until the repetitions add
// up to a second (at most 2000): set-up steps take from well under a
// millisecond to tens of milliseconds, and a short step needs many
// samples, spread over more than a moment of the machine's load, for a
// steady median.
func repeat(f func() error) error {
	total := time.Duration(0)
	for n := 0; n < 5 || (total < time.Second && n < 2000); n++ {
		start := time.Now()
		if err := f(); err != nil {
			return err
		}
		total += time.Since(start)
	}
	return nil
}

// rssParts is the number of equal parts of a measurement window that
// peak_rss_mb takes the median high-water mark of. The mark of a whole
// window is one extreme reading; across seeds it spread by up to 0.26
// of its median on lossy-churn (README.md). A transient that recurs
// within a part, such as one per execution cycle, still shows in every
// part's mark.
const rssParts = 8

// rssWatch measures the process's resident high-water mark (VmHWM) over
// consecutive parts of a window.
type rssWatch struct {
	stop, done chan struct{}
	peaks      []float64
	err        error
}

// watchPeakRSS opens a window of about the given length. It returns the
// garbage of set-up and reference computations to the OS, then resets
// the kernel's mark by writing 5 to /proc/self/clear_refs, so each part
// reads its own mark; a part ends every window/rssParts.
func watchPeakRSS(window time.Duration) (*rssWatch, error) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	w := &rssWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(window / rssParts)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if w.err = w.endPart(); w.err != nil {
					return
				}
			}
		}
	}()
	return w, nil
}

func (w *rssWatch) endPart() error {
	mb, err := peakRSS()
	if err != nil {
		return err
	}
	w.peaks = append(w.peaks, mb)
	return resetPeakRSS()
}

// finish closes the window and returns the median part's mark in MiB.
// A last part begun after rssParts whole ones is dropped: it may be a
// few milliseconds long.
func (w *rssWatch) finish() (float64, error) {
	close(w.stop)
	<-w.done
	if w.err != nil {
		return 0, w.err
	}
	if len(w.peaks) < rssParts {
		if err := w.endPart(); err != nil {
			return 0, err
		}
	}
	return median(w.peaks), nil
}

func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the resident high-water mark (VmHWM) in MiB.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// goStats is a runtime/metrics reading; differences of two readings give
// allocation and GC CPU over an interval.
type goStats struct {
	allocBytes, gcCPU, totalCPU float64
}

func readGoStats() goStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// setGoLayer fills go.* from two readings around execs executions.
func setGoLayer(o *outcome, before, after goStats, execs int) {
	o.Layers["go.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
	o.Layers["go.alloc_bytes_per_exec"] = ratio(after.allocBytes-before.allocBytes, float64(execs))
}

// buildCommit is the source commit, stamped by run.sh with -ldflags
// ("unknown" outside a git checkout).
var buildCommit = "unknown"

// provenance identifies the code, toolchain and machine of a run.
func provenance() map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"commit":     buildCommit,
		"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"hostname": host, "time": time.Now().UTC().Format(time.RFC3339),
	}
}

// writeResult stores the run's full record (and, traced, its spans).
func writeResult(dir, name string, cfg runConfig, out *outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.Trace {
		mode = "traced"
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", name, cfg.Seed, mode))
	frac := 0.0
	if out.Attempted > 0 {
		frac = float64(out.Failed) / float64(out.Attempted)
	}
	rec := map[string]any{
		"workload": name, "seed": cfg.Seed, "seconds": cfg.Seconds, "traced": cfg.Trace,
		"provenance": provenance(), "params": out.Params, "detail": out.Detail,
		"attempted": out.Attempted, "failed": out.Failed, "failed_frac": frac,
		"invalid": out.Invalid, "ungated": out.Ungated,
	}
	if cfg.Trace {
		rec["layers"] = out.Layers
		rec["spans_file"] = filepath.Base(base) + "-spans.jsonl"
		if err := cfg.spans.writeJSONL(base + "-spans.jsonl"); err != nil {
			return err
		}
	} else {
		rec["metrics"] = out.E2E
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(b, '\n'), 0o644)
}
