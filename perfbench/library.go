package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/netsim"
	"sensjoin/internal/trace"
	"sensjoin/internal/workload"
)

// The two library workloads run without a server: paper-1500 is the
// paper's evaluation setting, lossy-churn the robustness cell.

// setupTimes holds the median time of each set-up stage and of the
// whole: from nothing to a runner that can execute.
type setupTimes struct {
	gen, env, tree, total time.Duration
}

// timeSetup repeats the uncached deployment build plus
// NewRunnerFromSetup and returns the medians.
func timeSetup(nodes int, seed int64, sc core.SetupConfig) (setupTimes, error) {
	var gen, env, tree, total []float64
	err := repeat(func() error {
		start := time.Now()
		a, err := buildSetup(nodes, seed)
		if err != nil {
			return err
		}
		core.NewRunnerFromSetup(a.dep, a.env, a.tree, sc)
		total = append(total, float64(time.Since(start)))
		gen = append(gen, float64(a.genDur))
		env = append(env, float64(a.envDur))
		tree = append(tree, float64(a.treeDur))
		return nil
	})
	return setupTimes{
		gen: time.Duration(median(gen)), env: time.Duration(median(env)),
		tree: time.Duration(median(tree)), total: time.Duration(median(total)),
	}, err
}

// report fills the set-up stages' layer metrics.
func (t setupTimes) report(o *outcome) {
	o.Layers["topology.generate_ms"] = ms(t.gen)
	o.Layers["field.env_build_ms"] = ms(t.env)
	o.Layers["routing.build_tree_ms"] = ms(t.tree)
}

// newPrivateRunner builds a runner on its own deployment artifacts.
func newPrivateRunner(nodes int, seed int64, sc core.SetupConfig) (*core.Runner, error) {
	a, err := buildSetup(nodes, seed)
	if err != nil {
		return nil, err
	}
	return core.NewRunnerFromSetup(a.dep, a.env, a.tree, sc), nil
}

// ---- paper-1500 ----

const paperNodes = 1500

// paperFractions is E1a's range of contributing fractions, 1% to 60%.
var paperFractions = []float64{0.01, 0.03, 0.05, 0.09, 0.25, 0.40, 0.60}

type paperItem struct {
	name  string
	prep  *core.Prepared
	m     func() core.Method
	truth table
}

func runPaper1500(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	depSeed := int64(libraryDeploymentSeed)
	setup, err := timeSetup(paperNodes, depSeed, core.SetupConfig{})
	if err != nil {
		return nil, err
	}
	r, err := newPrivateRunner(paperNodes, depSeed, core.SetupConfig{})
	if err != nil {
		return nil, err
	}
	preset := workload.Ratio33()
	var items []paperItem
	var srcs []string
	for _, f := range paperFractions {
		delta, _ := workload.Calibrate(r, preset, f)
		src := preset.Build(delta)
		srcs = append(srcs, src)
		prep, err := core.Prepare(r.Catalog, src)
		if err != nil {
			return nil, err
		}
		x, err := r.ExecPrepared(prep, 0)
		if err != nil {
			return nil, err
		}
		truth, err := core.GroundTruth(x)
		if err != nil {
			return nil, err
		}
		for _, m := range []func() core.Method{
			func() core.Method { return core.NewSENSJoin() },
			func() core.Method { return core.External{} },
		} {
			items = append(items, paperItem{name: fmt.Sprintf("%s f=%g", m().Name(), f), prep: prep, m: m, truth: resultTable(truth)})
		}
	}
	o.Params["nodes"] = paperNodes
	o.Params["deployment_seed"] = depSeed
	o.Params["preset"] = preset.Name
	o.Params["fractions"] = paperFractions
	o.Params["methods"] = []string{"sens-join", "external-join"}
	o.Params["queries"] = srcs
	o.Params["snapshot_t"] = 0

	// pass runs whole cycles over items for about seconds, checking
	// every result against its ground truth.
	order := rand.New(rand.NewSource(cfg.Seed))
	pass := func(seconds float64) (execMs, tx, maxTx []float64) {
		start := time.Now()
		for cycle := 0; cycle == 0 || time.Since(start).Seconds() < seconds; cycle++ {
			for _, k := range order.Perm(len(items)) {
				it := items[k]
				m := it.m()
				r.Stats.Reset()
				t0 := time.Now()
				res, err := r.RunPrepared(it.prep, m, 0)
				d := time.Since(t0)
				o.Attempted++
				if err != nil {
					o.fail(it.name + ": " + err.Error())
					continue
				}
				if diff := it.truth.diff(resultTable(res)); diff != "" {
					o.fail(it.name + ": " + diff)
				}
				_, mx := r.Stats.MaxTx(m.Phases()...)
				execMs = append(execMs, ms(d))
				tx = append(tx, float64(r.Stats.TotalTx(m.Phases()...)))
				maxTx = append(maxTx, float64(mx))
			}
		}
		return execMs, tx, maxTx
	}

	if !cfg.Trace {
		rss, err := watchPeakRSS(time.Duration(cfg.Seconds * float64(time.Second)))
		if err != nil {
			return nil, err
		}
		execMs, tx, maxTx := pass(cfg.Seconds)
		if o.E2E["peak_rss_mb"], err = rss.finish(); err != nil {
			return nil, err
		}
		o.E2E["setup_s"] = setup.total.Seconds()
		o.Ungated = append(o.Ungated,
			ungated{"latency_p50_ms", quantile(execMs, 0.50), "ms"},
			ungated{"latency_p99_ms", quantile(execMs, 0.99), "ms"})
		rates := blockRates(execMs, len(items))
		o.Detail["block_rates"] = rates
		o.E2E["queries_per_s"] = median(rates)
		o.E2E["tx_per_query"] = mean(tx)
		o.E2E["max_node_tx"] = mean(maxTx)
		o.E2E["exact_round_frac"] = 1 - ratio(float64(o.Failed), float64(o.Attempted))
		return o, nil
	}

	g0 := readGoStats()
	plainMs, _, _ := pass(cfg.Seconds / 2)
	setGoLayer(o, g0, readGoStats(), len(plainMs))
	var lib []libExec
	for c := 0; c < 64; c++ {
		for _, it := range items {
			lib = append(lib, libExec{req: fmt.Sprintf("c%d %s", c, it.name), prep: it.prep, m: it.m(), deployment: "paper"})
		}
	}
	if _, err := prepareLayer(o, cfg.spans, r, srcs); err != nil {
		return nil, err
	}
	o.Layers["field.repeat_snapshot_frac"] = repeatSnapshotFrac(lib)
	if err := replayExecs(o, cfg.spans, r, lib, time.Duration(cfg.Seconds/2*float64(time.Second))); err != nil {
		return nil, err
	}
	o.Layers["trace.overhead_frac"] = ratio(o.Layers["core.exec_ms_p50"], median(plainMs)) - 1
	setup.report(o)
	return o, nil
}

// ---- lossy-churn ----

const (
	churnNodes    = 150
	churnRate     = 0.01
	churnLoss     = 0.05
	churnEpoch    = 30.0
	churnFraction = 0.05
	churnPacket   = 48
	// churnRoundsPerSecond fixes the number of rounds for a window so
	// packet counts repeat exactly for a seed.
	churnRoundsPerSecond = 200
	// churnRateBlock is the number of rounds in one block of the
	// queries_per_s median (blockRates).
	churnRateBlock = 40
)

// churnStats is one pass over the churn rounds.
type churnStats struct {
	roundMs       []float64
	tx, maxTx     []float64
	exact, rounds int
	deaths, moves int
	// workMs is the program's time in each round: churn cover, the
	// audited execution and the idle tail to the epoch's end, without
	// the benchmark's oracle and compare.
	workMs []float64
}

func runLossyChurn(cfg runConfig) (*outcome, error) {
	o := newOutcome()
	depSeed := int64(libraryDeploymentSeed)
	radio := netsim.DefaultRadio()
	radio.MaxPacket = churnPacket
	sc := core.SetupConfig{Radio: radio}
	setup, err := timeSetup(churnNodes, depSeed, sc)
	if err != nil {
		return nil, err
	}
	rounds := max(4, int(math.Round(cfg.Seconds*churnRoundsPerSecond)))
	o.Params["nodes"] = churnNodes
	o.Params["deployment_seed"] = depSeed
	o.Params["churn_rate_per_epoch"] = churnRate
	o.Params["loss_rate"] = churnLoss
	o.Params["epoch_s"] = churnEpoch
	o.Params["fraction"] = churnFraction
	o.Params["max_packet"] = churnPacket
	o.Params["transport"] = "reliable+mid-round repair"
	o.Params["method"] = "sens-join"
	o.Params["rounds"] = rounds

	// pass runs n audited rounds on a fresh runner. With acc set it
	// wires a registry and times each layer around the round's calls.
	pass := func(n int, acc *layerAcc, spans *spanLog) (*churnStats, map[string]any, error) {
		r, err := newPrivateRunner(churnNodes, depSeed, sc)
		if err != nil {
			return nil, nil, err
		}
		r.AutoAudit = true
		r.EnableReliableTransport(netsim.ReliableConfig{})
		r.EnableMidRoundRepair()
		r.Net.SetLossRate(churnLoss, cfg.Seed*2+1)
		ch := r.AttachChurn(netsim.ChurnConfig{Seed: cfg.Seed*2 + 2, Rate: churnRate, Epoch: churnEpoch})
		var snap func() map[string]any
		if acc != nil {
			reg := metrics.New()
			r.EnableMetrics(reg)
			snap = reg.Snapshot
		}
		delta, _ := workload.Calibrate(r, workload.Ratio33(), churnFraction)
		src := workload.Ratio33().Build(delta)
		m := core.NewSENSJoin()
		phases := append(append([]string(nil), m.Phases()...), core.PhaseRecovery)
		st := &churnStats{}
		for round := 0; round < n; round++ {
			req := fmt.Sprintf("round-%d", round)
			o.Attempted++
			st.rounds++
			horizon := r.Sim.Now() + churnEpoch
			coverStart := time.Now()
			ch.Cover(horizon)
			work := time.Since(coverStart)
			r.Stats.Reset()
			x, err := r.ExecSQL(src, 0)
			if err != nil {
				return nil, nil, err
			}
			root := spans.begin("round", req, -1)
			truth, oracle, err := probeOracle(spans, x, req, root)
			if err != nil {
				return nil, nil, err
			}
			var res *core.Result
			var violations int
			t0 := time.Now()
			spans.time("core.exec", req, root, func() {
				var v []trace.Violation
				res, v, err = r.AuditRun(src, m, 0)
				violations = len(v)
			})
			d := time.Since(t0)
			work += d
			switch {
			case err != nil:
				o.fail(req + ": " + err.Error())
			case violations > 0:
				o.fail(fmt.Sprintf("%s: %d audit violation(s)", req, violations))
			case res.Complete:
				if diff := resultTable(truth).diff(resultTable(res)); diff != "" {
					o.fail(req + ": complete but not oracle-exact: " + diff)
				} else {
					st.exact++
				}
			case res.IncompleteReason == "":
				o.fail(req + ": incomplete without a reason")
			}
			st.roundMs = append(st.roundMs, ms(d))
			_, mx := r.Stats.MaxTx(phases...)
			st.tx = append(st.tx, float64(r.Stats.TotalTx(phases...)))
			st.maxTx = append(st.maxTx, float64(mx))
			if acc != nil && res != nil {
				acc.exec = append(acc.exec, ms(d))
				acc.oracle = append(acc.oracle, ms(oracle))
				acc.sim = append(acc.sim, ms(d-oracle))
				acc.rows = append(acc.rows, float64(len(res.Rows)))
				acc.contrib = append(acc.contrib, ratio(float64(res.ContributingNodes), float64(res.MemberNodes)))
				acc.recoveryRounds += float64(res.RecoveryRounds)
				acc.repairs += float64(res.Repairs)
				acc.execs++
				if err := probePlan(acc, spans, x, req, root); err != nil {
					return nil, nil, err
				}
				if err := probeProto(acc, spans, res, req, root); err != nil {
					return nil, nil, err
				}
			}
			spans.end(root)
			tailStart := time.Now()
			r.Sim.RunUntil(horizon)
			st.workMs = append(st.workMs, ms(work+time.Since(tailStart)))
		}
		st.deaths, st.moves = ch.Deaths, ch.Moves
		if snap == nil {
			return st, nil, nil
		}
		return st, snap(), nil
	}

	if !cfg.Trace {
		rss, err := watchPeakRSS(time.Duration(cfg.Seconds * float64(time.Second)))
		if err != nil {
			return nil, err
		}
		st, _, err := pass(rounds, nil, nil)
		if err != nil {
			return nil, err
		}
		if o.E2E["peak_rss_mb"], err = rss.finish(); err != nil {
			return nil, err
		}
		o.E2E["setup_s"] = setup.total.Seconds()
		o.Ungated = append(o.Ungated,
			ungated{"latency_p50_ms", quantile(st.roundMs, 0.50), "ms"},
			ungated{"latency_p99_ms", quantile(st.roundMs, 0.99), "ms"})
		rates := blockRates(st.workMs, churnRateBlock)
		o.Detail["block_rates"] = rates
		o.E2E["queries_per_s"] = median(rates)
		o.E2E["tx_per_query"] = mean(st.tx)
		o.E2E["max_node_tx"] = mean(st.maxTx)
		o.E2E["exact_round_frac"] = float64(st.exact) / float64(st.rounds)
		o.Detail["churn_deaths"], o.Detail["churn_moves"] = st.deaths, st.moves
		return o, nil
	}

	g0 := readGoStats()
	plain, _, err := pass(rounds/2, nil, nil)
	if err != nil {
		return nil, err
	}
	setGoLayer(o, g0, readGoStats(), plain.rounds)
	acc := &layerAcc{}
	traced, snap, err := pass(rounds/2, acc, cfg.spans)
	if err != nil {
		return nil, err
	}
	acc.report(o, snap)
	n := float64(traced.rounds)
	o.Layers["churn.deaths_per_round"] = float64(traced.deaths) / n
	o.Layers["churn.moves_per_round"] = float64(traced.moves) / n
	o.Layers["trace.overhead_frac"] = ratio(median(traced.roundMs), median(plain.roundMs)) - 1
	o.Layers["field.repeat_snapshot_frac"] = ratio(n-1, n) // every round reads the t=0 snapshot
	r, err := newPrivateRunner(churnNodes, depSeed, sc)
	if err != nil {
		return nil, err
	}
	delta, _ := workload.Calibrate(r, workload.Ratio33(), churnFraction)
	if _, err := prepareLayer(o, cfg.spans, r, []string{workload.Ratio33().Build(delta)}); err != nil {
		return nil, err
	}
	setup.report(o)
	return o, nil
}
