package core

import (
	"sensjoin/internal/metrics"
	"sensjoin/internal/trace"
)

// CoreMetrics is the protocol-level instrument set: phase transitions
// and durations, filter sizes, prune/suppress/Treecut decisions and
// recovery activity. One CoreMetrics is shared by every concurrent
// runner wired to the same registry; all maps are built once at
// construction and only read afterwards, so observation is race-free.
type CoreMetrics struct {
	transitions map[string]*metrics.Counter   // phase-start count per phase
	durations   map[string]*metrics.Histogram // phase duration seconds per phase

	Runs        *metrics.Counter
	Treecuts    *metrics.Counter
	Proxies     *metrics.Counter
	Prunes      *metrics.Counter
	Suppressed  *metrics.Counter
	Recoveries  *metrics.Counter
	Rerequests  *metrics.Counter
	StandDowns  *metrics.Counter
	FilterKeys  *metrics.Histogram
	FilterBytes *metrics.Histogram

	// Shared-execution (multi-query optimization) instruments.
	MQOGroups           *metrics.Gauge
	MQOMergedBroadcasts *metrics.Counter
	MQODedupTuples      *metrics.Counter
	MQOBitmapBytes      *metrics.Counter

	// Mid-round repair instruments (churn resilience).
	Repairs        *metrics.Counter
	RepairFailures *metrics.Counter
	Reattached     *metrics.Counter
	RepairSeconds  *metrics.Histogram
}

// metricPhases is the closed set of phase labels instrumented with their
// own series (a span with any other label is counted but not timed).
var metricPhases = []string{
	PhaseQueryDissem, PhaseJACollect, PhaseFilterDissem,
	PhaseFinalCollect, PhaseExternal, PhaseRecovery,
}

// NewMetrics registers the protocol instruments on r; a nil registry
// returns nil, which every hook treats as metrics-off.
func NewMetrics(r *metrics.Registry) *CoreMetrics {
	if r == nil {
		return nil
	}
	durBounds := []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300}
	m := &CoreMetrics{
		transitions: make(map[string]*metrics.Counter, len(metricPhases)),
		durations:   make(map[string]*metrics.Histogram, len(metricPhases)),
		Runs:        r.Counter("sensjoin_core_runs_total", "query executions started"),
		Treecuts:    r.Counter("sensjoin_core_treecut_total", "nodes that exited the query via Treecut"),
		Proxies:     r.Counter("sensjoin_core_proxy_total", "proxy takeovers of subtree tuples"),
		Prunes:      r.Counter("sensjoin_core_prune_total", "selective-filter-forwarding prune decisions"),
		Suppressed:  r.Counter("sensjoin_core_suppress_total", "tuples suppressed by the filter in phase C"),
		Recoveries:  r.Counter("sensjoin_core_recovery_total", "tree-repair re-executions"),
		Rerequests:  r.Counter("sensjoin_core_rerequest_total", "scoped-recovery subtree re-requests"),
		StandDowns:  r.Counter("sensjoin_core_standdown_total", "subtrees falling back to ship-everything mode"),
		FilterKeys:  r.Histogram("sensjoin_core_filter_keys", "join filter size in quadtree keys", []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}),
		FilterBytes: r.Histogram("sensjoin_core_filter_bytes", "join filter wire size in bytes", []float64{8, 32, 128, 512, 2048, 8192, 32768}),

		MQOGroups:           r.Gauge("sensjoin_mqo_groups", "shared-execution clusters of the active query group"),
		MQOMergedBroadcasts: r.Counter("sensjoin_mqo_merged_broadcasts_total", "merged (union + masks) filter transmissions"),
		MQODedupTuples:      r.Counter("sensjoin_mqo_dedup_tuples_total", "tuples shipped once while wanted by >= 2 queries"),
		MQOBitmapBytes:      r.Counter("sensjoin_mqo_bitmap_bytes_total", "wire bytes spent on query-membership bitmaps"),

		Repairs:        r.Counter("sensjoin_churn_repairs_total", "mid-round incremental tree repairs"),
		RepairFailures: r.Counter("sensjoin_churn_repair_failures_total", "executions whose repair could not restore completeness"),
		Reattached:     r.Counter("sensjoin_churn_reattached_nodes_total", "nodes re-parented by mid-round repair"),
		RepairSeconds:  r.Histogram("sensjoin_churn_repair_seconds", "simulated seconds from query start to first mid-round repair", durBounds),
	}
	for _, p := range metricPhases {
		m.transitions[p] = r.Counter("sensjoin_core_phase_transitions_total", "protocol phase starts", metrics.L{Key: "phase", Value: p})
		m.durations[p] = r.Histogram("sensjoin_core_phase_seconds", "protocol phase durations", durBounds, metrics.L{Key: "phase", Value: p})
	}
	return m
}

// observeSpan mirrors a protocol span event into the live instruments.
// at is the span's own timestamp. Phase durations pair each start with
// its end inside one execution; the pairing state lives on the Exec, so
// concurrent runs never share it.
func (m *CoreMetrics) observeSpan(x *Exec, at float64, k trace.Kind, phase string) {
	if m == nil {
		return
	}
	switch k {
	case trace.KindPhaseStart:
		m.transitions[phase].Inc()
		if x.phaseOpen == nil {
			x.phaseOpen = make(map[string]float64, 4)
		}
		x.phaseOpen[phase] = at
	case trace.KindPhaseEnd:
		if start, ok := x.phaseOpen[phase]; ok {
			m.durations[phase].Observe(at - start)
			delete(x.phaseOpen, phase)
		}
	case trace.KindTreecut:
		m.Treecuts.Inc()
	case trace.KindProxy:
		m.Proxies.Inc()
	case trace.KindPrune:
		m.Prunes.Inc()
	case trace.KindSuppress:
		m.Suppressed.Inc()
	case trace.KindRecovery:
		m.Recoveries.Inc()
	case trace.KindRerequest:
		m.Rerequests.Inc()
	case trace.KindStandDown:
		m.StandDowns.Inc()
	}
}

// observeFilter records the computed join filter's size.
func (m *CoreMetrics) observeFilter(keys, bytes int) {
	if m == nil {
		return
	}
	m.FilterKeys.Observe(float64(keys))
	m.FilterBytes.Observe(float64(bytes))
}

// observeMQOBroadcast counts one merged filter transmission and its
// membership-bitmap overhead.
func (m *CoreMetrics) observeMQOBroadcast(bitmapBytes int) {
	if m == nil {
		return
	}
	m.MQOMergedBroadcasts.Inc()
	m.MQOBitmapBytes.Add(int64(bitmapBytes))
}

// observeMQOBitmap charges phase-C per-tuple bitmap bytes.
func (m *CoreMetrics) observeMQOBitmap(bytes int) {
	if m == nil {
		return
	}
	m.MQOBitmapBytes.Add(int64(bytes))
}

// observeMQODedup counts tuples that shipped once while wanted by two
// or more queries of the cluster.
func (m *CoreMetrics) observeMQODedup(tuples int) {
	if m == nil {
		return
	}
	m.MQODedupTuples.Add(int64(tuples))
}
