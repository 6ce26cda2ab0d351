package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/field"
	"sensjoin/internal/metrics"
	"sensjoin/internal/proto"
	"sensjoin/internal/quadtree"
	"sensjoin/internal/query"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// The traced run attributes time to layers by calling each module's
// public functions from outside the program and recording a span
// around every call. Nothing inside the program is changed.

// zeroLayers initializes every per-layer metric to 0, the value a
// layer off the workload's path reports.
func zeroLayers(o *outcome) {
	for _, d := range layerMetrics {
		if _, ok := o.Layers[d.Name]; !ok {
			o.Layers[d.Name] = 0
		}
	}
}

// setupArtifacts builds a deployment exactly as an uncached
// core.NewRunner does, timing each stage.
type setupArtifacts struct {
	dep                     *topology.Deployment
	env                     *field.Environment
	tree                    *routing.Tree
	genDur, envDur, treeDur time.Duration
}

func buildSetup(nodes int, seed int64) (*setupArtifacts, error) {
	tcfg := topology.Config{Nodes: nodes, Seed: seed, Range: 50, Area: topology.ScaledArea(nodes)}
	a := &setupArtifacts{}
	start := time.Now()
	dep, err := topology.Generate(tcfg)
	if err != nil {
		return nil, err
	}
	a.genDur = time.Since(start)
	start = time.Now()
	a.env = field.StandardEnvironment(dep.Area, seed+1000)
	a.envDur = time.Since(start)
	start = time.Now()
	a.tree = routing.BuildTree(dep.Neighbors, topology.BaseStation)
	a.treeDur = time.Since(start)
	a.dep = dep
	return a, nil
}

// serverLayers derives the daemon's layer metrics from a traced pass:
// flight records matched to the generator's replies by trace ID, the
// sampled load gauges and the registry's counters.
func serverLayers(o *outcome, spans *spanLog, p *passResult) {
	ref := p.refStats
	byID := make(map[string]flightFact, len(p.records))
	clusters := []float64{}
	for _, rec := range p.records {
		if strings.HasPrefix(rec.TraceID, "r") {
			byID[rec.TraceID] = flightFact{seconds: rec.TotalSeconds, cluster: rec.ClusterSize}
			clusters = append(clusters, float64(rec.ClusterSize))
		}
	}
	var execMs []float64
	var firstSent, lastSent time.Time
	for i, rq := range p.refReqs {
		rp := p.refReps[i]
		sent := rp.due.Add(rp.lag)
		if i == 0 || sent.Before(firstSent) {
			firstSent = sent
		}
		if sent.After(lastSent) {
			lastSent = sent
		}
		rec, ok := byID[rq.id]
		if !ok || rp.err != "" {
			continue
		}
		exec := time.Duration(rec.seconds * float64(time.Second))
		execMs = append(execMs, ms(exec))
		root := spans.add("request", rq.id, -1, rp.due, rp.done)
		spans.add("server.exec", rq.id, root, rp.done.Add(-exec), rp.done)
	}
	wait := spans.selfTimes("request")
	o.Layers["loadgen.lag_ms_p99"] = ref.LagP99Ms
	o.Layers["loadgen.offered_qps"] = ratio(float64(len(p.refReqs)-1), lastSent.Sub(firstSent).Seconds())
	o.Layers["server.exec_ms_p50"] = quantile(execMs, 0.50)
	o.Layers["server.exec_ms_p99"] = quantile(execMs, 0.99)
	o.Layers["server.wait_ms_p50"] = quantile(wait, 0.50)
	o.Layers["server.wait_ms_p99"] = quantile(wait, 0.99)

	var busy []float64
	qmax := int64(0)
	for _, s := range p.samples {
		if !s.at.Before(p.refStart) && !s.at.After(p.refEnd) {
			busy = append(busy, float64(s.active)/float64(serveConcurrency()))
		}
		qmax = max(qmax, s.queue)
	}
	o.Layers["server.busy_frac"] = mean(busy)
	o.Layers["server.queue_depth_max"] = float64(qmax)
	snap := p.reg.Snapshot()
	counter := func(name string) float64 {
		v, _ := snap[name].(int64)
		return float64(v)
	}
	hits, misses := counter("sensjoind_prepared_cache_hits_total"), counter("sensjoind_prepared_cache_misses_total")
	o.Layers["server.rejected"] = counter("sensjoind_rejected_total")
	o.Layers["server.prepared_hit_rate"] = ratio(hits, hits+misses)
	o.Layers["server.shared_frac"] = ratio(counter("sensjoind_shared_queries_total"), counter("sensjoind_queries_total"))
	o.Layers["server.cluster_size_mean"] = mean(clusters)
}

// flightFact is what the benchmark reads from one flight record.
type flightFact struct {
	seconds float64
	cluster int
}

// libExec is one library execution the traced run replays.
type libExec struct {
	req  string
	prep *core.Prepared
	m    core.Method
	t    float64
	// deployment identifies the snapshot's deployment for
	// field.repeat_snapshot_frac.
	deployment string
}

// layerAcc accumulates the per-execution layer observations.
type layerAcc struct {
	exec, oracle, sim, field []float64
	quadUs, quadBytes        []float64
	encUs, decUs, protoBytes []float64
	rows, contrib            []float64
	recoveryRounds, repairs  float64
	execs                    int
}

// replayExecs runs items back to back on r (wired to a fresh registry),
// timing core.RunPrepared, core.GroundTruth on the same snapshot (and
// checking the result against it), the field reads and quadtree encode
// of the plan, and the proto framing of the result, until budget is
// spent (at least one item).
func replayExecs(o *outcome, spans *spanLog, r *core.Runner, items []libExec, budget time.Duration) error {
	reg := metrics.New()
	r.EnableMetrics(reg)
	defer r.EnableMetrics(nil)
	acc := &layerAcc{}
	start := time.Now()
	for i, it := range items {
		if i > 0 && time.Since(start) > budget {
			break
		}
		root := spans.begin("replay", it.req, -1)
		var res *core.Result
		var err error
		execStart := time.Now()
		spans.time("core.exec", it.req, root, func() { res, err = r.RunPrepared(it.prep, it.m, it.t) })
		execDur := time.Since(execStart)
		if err != nil {
			return fmt.Errorf("replay %s: %w", it.req, err)
		}
		acc.exec = append(acc.exec, ms(execDur))
		acc.rows = append(acc.rows, float64(len(res.Rows)))
		acc.contrib = append(acc.contrib, ratio(float64(res.ContributingNodes), float64(res.MemberNodes)))
		acc.recoveryRounds += float64(res.RecoveryRounds)
		acc.repairs += float64(res.Repairs)
		acc.execs++
		x, err := r.ExecPrepared(it.prep, it.t)
		if err != nil {
			return err
		}
		truth, oracle, err := probeOracle(spans, x, it.req, root)
		if err != nil {
			return err
		}
		o.Attempted++
		if d := resultTable(truth).diff(resultTable(res)); d != "" {
			o.fail(it.req + ": replay differs from the oracle: " + d)
		}
		acc.oracle = append(acc.oracle, ms(oracle))
		acc.sim = append(acc.sim, ms(execDur-oracle))
		if err := probePlan(acc, spans, x, it.req, root); err != nil {
			return err
		}
		if err := probeProto(acc, spans, res, it.req, root); err != nil {
			return err
		}
		spans.end(root)
	}
	acc.report(o, reg.Snapshot())
	return nil
}

// report fills the core, field, quadtree, proto and netsim layers.
func (acc *layerAcc) report(o *outcome, snap map[string]any) {
	n := float64(max(acc.execs, 1))
	counter := func(name string) float64 {
		switch v := snap[name].(type) {
		case int64:
			return float64(v)
		case float64:
			return v
		}
		return 0
	}
	o.Layers["core.exec_ms_p50"] = quantile(acc.exec, 0.50)
	o.Layers["core.exec_ms_p99"] = quantile(acc.exec, 0.99)
	o.Layers["core.oracle_ms_p50"] = median(acc.oracle)
	o.Layers["core.sim_ms_p50"] = median(acc.sim)
	o.Layers["core.rows_per_exec"] = mean(acc.rows)
	o.Layers["core.contrib_frac"] = mean(acc.contrib)
	o.Layers["core.filter_bytes_mean"] = ratio(counter("sensjoin_core_filter_bytes_sum"), counter("sensjoin_core_filter_bytes_count"))
	o.Layers["core.suppressed_per_exec"] = counter("sensjoin_core_suppress_total") / n
	o.Layers["core.repairs_per_round"] = acc.repairs / n
	o.Layers["core.repair_failures"] = counter("sensjoin_churn_repair_failures_total")
	o.Layers["core.recovery_execs_per_round"] = acc.recoveryRounds / n
	o.Layers["field.sample_ms"] = median(acc.field)
	o.Layers["quadtree.encode_us"] = median(acc.quadUs)
	o.Layers["quadtree.bytes"] = mean(acc.quadBytes)
	o.Layers["proto.encode_us"] = median(acc.encUs)
	o.Layers["proto.decode_us"] = median(acc.decUs)
	o.Layers["proto.bytes_per_query"] = mean(acc.protoBytes)
	events := counter("sensjoin_netsim_events_total")
	simSeconds := 0.0
	for _, s := range acc.sim {
		simSeconds += s / 1000
	}
	o.Layers["netsim.events_per_exec"] = events / n
	o.Layers["netsim.events_per_s"] = ratio(events, simSeconds)
	o.Layers["netsim.retx_ratio"] = ratio(counter("sensjoin_netsim_retx_total"), counter("sensjoin_netsim_tx_packets_total"))
	o.Layers["netsim.giveups_per_round"] = counter("sensjoin_netsim_giveups_total") / n
	o.Layers["netsim.lost_per_round"] = counter("sensjoin_netsim_lost_total") / n
}

// probeOracle times core.GroundTruth on x: plan build plus the
// base-station join, with no radio.
func probeOracle(spans *spanLog, x *core.Exec, req string, parent int) (*core.Result, time.Duration, error) {
	var res *core.Result
	var err error
	d := spans.time("core.oracle", req, parent, func() { res, err = core.GroundTruth(x) })
	return res, d, err
}

// probePlan times field.Environment.Read for every live node and every
// attribute the query references at the execution's t (local
// predicates decide relation membership, as in plan build), then builds
// the phase-A key set with zorder.Grid.Encode from those readings and
// times quadtree.Codec.Encode over it.
func probePlan(acc *layerAcc, spans *spanLog, x *core.Exec, req string, parent int) error {
	a := x.Analysis
	nRel := len(x.Query.From)
	needed := map[string]bool{}
	joinSet := map[string]bool{}
	for i := 0; i < nRel; i++ {
		for _, n := range a.ShippedAttrs[i] {
			needed[n] = true
		}
		for _, n := range a.JoinAttrs[i] {
			needed[n] = true
			joinSet[n] = true
		}
	}
	dimNames := sortedKeys(joinSet)
	type reading struct {
		flags uint64
		join  []float64
	}
	nodes := x.Dep.N()
	readings := make([]reading, 0, nodes)
	fieldDur := spans.time("field.sample", req, parent, func() {
		for id := 1; id < nodes; id++ {
			if x.Net != nil && !x.Net.Alive(topology.NodeID(id)) {
				continue
			}
			vals := make(map[string]float64, len(needed))
			read := func(name string) float64 {
				v, ok := vals[name]
				if !ok {
					v = x.Env.Read(name, x.Dep.Pos[id], x.Time)
					vals[name] = v
				}
				return v
			}
			var flags uint64
			for i := 0; i < nRel; i++ {
				if pred := a.LocalPredicate(i); pred != nil && !pred.Eval(query.SingleEnv{Rel: i, Lookup: read}) {
					continue
				}
				flags |= zorder.FlagFor(i, nRel)
			}
			if flags == 0 {
				continue
			}
			for name := range needed {
				read(name)
			}
			join := make([]float64, len(dimNames))
			for j, name := range dimNames {
				join[j] = vals[name]
			}
			readings = append(readings, reading{flags, join})
		}
	})
	acc.field = append(acc.field, ms(fieldDur))
	if len(dimNames) == 0 {
		return nil
	}
	var dims []zorder.Dim
	for _, name := range dimNames {
		def, err := attrDef(x, name)
		if err != nil {
			return err
		}
		d, err := zorder.NewDim(name, def.Min, def.Max, def.Res)
		if err != nil {
			return err
		}
		dims = append(dims, d)
	}
	grid, err := zorder.NewGrid(nRel, dims)
	if err != nil {
		return err
	}
	keys := make([]zorder.Key, len(readings))
	for i, rd := range readings {
		keys[i] = grid.Encode(rd.flags, rd.join)
	}
	keys = quadtree.NormalizeKeys(keys)
	codec, err := quadtree.NewCodec(grid.Levels())
	if err != nil {
		return err
	}
	var enc quadtree.Encoded
	d := spans.time("quadtree.encode", req, parent, func() { enc = codec.Encode(keys) })
	acc.quadUs = append(acc.quadUs, us(d))
	acc.quadBytes = append(acc.quadBytes, float64(enc.ByteLen()))
	return nil
}

func attrDef(x *core.Exec, name string) (struct{ Min, Max, Res float64 }, error) {
	var out struct{ Min, Max, Res float64 }
	for _, ref := range x.Query.From {
		s, err := x.Catalog.Lookup(ref.Relation)
		if err != nil {
			return out, err
		}
		for _, d := range s.Attrs {
			if d.Name == name {
				out.Min, out.Max, out.Res = d.Min, d.Max, d.Res
				return out, nil
			}
		}
	}
	return out, fmt.Errorf("attribute %q not in the catalog", name)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// probeProto frames res exactly as the daemon streams a one-epoch
// answer (Header, Rows chunks of 512, EpochEnd, Done), timing
// proto.WriteFrame, then proto.ReadFrame plus proto.Decode back.
func probeProto(acc *layerAcc, spans *spanLog, res *core.Result, req string, parent int) error {
	type frame struct {
		kind byte
		msg  any
	}
	frames := []frame{{proto.KindHeader, proto.Header{ID: 1, Columns: res.Columns, TraceID: req}}}
	for i := 0; i < len(res.Rows); i += 512 {
		j := min(i+512, len(res.Rows))
		rows := make([][]float64, j-i)
		for k, row := range res.Rows[i:j] {
			rows[k] = row
		}
		frames = append(frames, frame{proto.KindRows, proto.Rows{ID: 1, Rows: rows}})
	}
	frames = append(frames,
		frame{proto.KindEpochEnd, proto.EpochEnd{ID: 1, RowCount: len(res.Rows), Complete: res.Complete,
			Contributing: res.ContributingNodes, Members: res.MemberNodes, ResponseTime: res.ResponseTime}},
		frame{proto.KindDone, proto.Done{ID: 1, Epochs: 1}})
	var buf bytes.Buffer
	var err error
	enc := spans.time("proto.encode", req, parent, func() {
		for _, f := range frames {
			if err = proto.WriteFrame(&buf, f.kind, f.msg); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	size := buf.Len()
	dec := spans.time("proto.decode", req, parent, func() {
		for range frames {
			var kind byte
			var payload []byte
			if kind, payload, err = proto.ReadFrame(&buf); err != nil {
				return
			}
			var v any
			switch kind {
			case proto.KindHeader:
				v = &proto.Header{}
			case proto.KindRows:
				v = &proto.Rows{}
			case proto.KindEpochEnd:
				v = &proto.EpochEnd{}
			default:
				v = &proto.Done{}
			}
			if err = proto.Decode(payload, v); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	acc.encUs = append(acc.encUs, us(enc))
	acc.decUs = append(acc.decUs, us(dec))
	acc.protoBytes = append(acc.protoBytes, float64(size))
	return nil
}

// prepareLayer times core.Prepare once for each distinct source.
func prepareLayer(o *outcome, spans *spanLog, r *core.Runner, srcs []string) (map[string]*core.Prepared, error) {
	out := map[string]*core.Prepared{}
	var durs []float64
	for _, src := range srcs {
		if _, ok := out[src]; ok {
			continue
		}
		var p *core.Prepared
		var err error
		d := spans.time("query.prepare", src, -1, func() { p, err = core.Prepare(r.Catalog, src) })
		if err != nil {
			return nil, err
		}
		out[src] = p
		durs = append(durs, us(d))
	}
	o.Layers["query.prepare_us"] = median(durs)
	return out, nil
}

// repeatSnapshotFrac is the share of executions whose (deployment, t)
// snapshot was already seen earlier in the sequence.
func repeatSnapshotFrac(items []libExec) float64 {
	seen := map[string]bool{}
	rep := 0
	for _, it := range items {
		k := fmt.Sprintf("%s@%x", it.deployment, it.t)
		if seen[k] {
			rep++
		}
		seen[k] = true
	}
	return ratio(float64(rep), float64(len(items)))
}
