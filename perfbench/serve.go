package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"sensjoin/internal/core"
	"sensjoin/internal/metrics"
	"sensjoin/internal/server"
)

// The two serving workloads drive an in-process sensjoind over the
// default 150-node deployment with an open-loop rate ladder. Rates are
// fixed fractions of the workload's measured capacity; the reference
// rung gives the gated metrics, and the ladder stops at the first rung
// above it that misses the latency limit or leaves a growing backlog.

const serveNodes = 150

// The deployments are fixed workload parameters (X9's default for the
// daemon, the suite's for the library workloads): the input seed drives
// what is asked of them and when, so runs with different seeds measure
// the same system on statistically alike inputs.
const (
	serveDeploymentSeed   = 5
	libraryDeploymentSeed = 42
)

// ladder lists the rung rates as fractions of a workload's measured
// capacity, ascending; refRung indexes the reference rung. The reference
// rate is a quarter of capacity, not half: on a 2-core machine the
// latency p50 at half capacity spread too far across runs to be gated
// (README.md).
var ladder = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5}

const refRung = 1

// A pass splits its window between a warm-up at the reference rate, the
// reference rung, which gives every gated serving metric, and the other
// rungs of the ladder, which only sustained_qps reads.
const (
	warmShare = 0.05
	refShare  = 0.7
)

// serveSpec describes one serving workload.
type serveSpec struct {
	// capacity is the measured open-loop capacity (queries/s) the
	// ladder is scaled by.
	capacity float64
	// limit is the p99 latency limit of a passing rung.
	limit time.Duration
	// lagBound invalidates a pass whose reference-rung send lag p99
	// exceeds it: the generator, not the daemon, fell behind. It is half
	// the latency limit, so lag alone cannot fail a rung.
	lagBound time.Duration
	// burst is the number of requests due at the same instant.
	burst int
	// build fills in the queries of n requests whose due times are set.
	build func(rng *rand.Rand, rung int, reqs []request) error
	// txSample returns the paper's packet counts for the reference rung:
	// mean packets per query and mean per-execution hotspot.
	txSample func(reqs []request) (tx, maxTx float64, err error)
	// layers adds the workload's own library-level layer metrics.
	layers func(o *outcome, spans *spanLog, reqs []request, budget time.Duration) error
}

// passResult is one run of the ladder.
type passResult struct {
	rungs     []rungStats
	replies   []reply
	refReqs   []request
	refReps   []reply
	sustained float64
	capped    bool
	// refCompletedPerS is the reference rung's answered queries per
	// second, first due time to last answer; refPeakRSS the process's
	// resident high-water mark during the reference rung (later rungs
	// overload the daemon on purpose).
	refCompletedPerS float64
	refPeakRSS       float64
	// traced-pass observations
	records  []server.QueryRecord
	refStart time.Time
	refEnd   time.Time
	samples  []gaugeSample
	reg      *metrics.Registry
	refStats rungStats
}

type gaugeSample struct {
	at            time.Time
	active, queue int64
}

// serveConcurrency is the daemon's default execution parallelism.
func serveConcurrency() int { return max(2, runtime.GOMAXPROCS(0)) }

func serveConfig(depSeed int64, reg *metrics.Registry, flight int) server.Config {
	return server.Config{
		Nodes: serveNodes, Seed: depSeed, Registry: reg,
		// Admit everything: an open loop past capacity shows as latency
		// and backlog, never as rejections.
		MaxQueue:    1 << 20,
		TraceSample: 0,
		FlightSize:  flight,
		Logf:        func(string, ...any) {},
	}
}

// runServe runs a serving workload end to end (or traced).
func runServe(cfg runConfig, spec serveSpec) (*outcome, error) {
	o := newOutcome()
	depSeed := int64(serveDeploymentSeed)
	o.Params["max_concurrent"] = serveConcurrency()
	o.Params["load_generator"] = "in-process, nproc pipelined connections"
	o.Params["nodes"] = serveNodes
	o.Params["deployment_seed"] = depSeed
	o.Params["capacity_measured_qps"] = spec.capacity
	o.Params["ladder_fractions"] = ladder
	o.Params["reference_rung"] = refRung
	o.Params["latency_limit_ms"] = ms(spec.limit)
	o.Params["lag_bound_ms"] = ms(spec.lagBound)
	o.Params["burst"] = spec.burst
	o.Params["arrivals"] = "poisson, open loop, precomputed schedule"
	o.Params["trace_sample"] = 0

	// Set-up: time server.Listen from an empty deployment cache.
	var listen []float64
	err := repeat(func() error {
		start := time.Now()
		core.ResetSetupCache()
		srv, err := server.Listen("127.0.0.1:0", serveConfig(depSeed, nil, 0))
		if err != nil {
			return err
		}
		listen = append(listen, float64(time.Since(start)))
		return srv.Close()
	})
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := time.Duration(median(listen))

	if !cfg.Trace {
		p, err := validPass(o, spec, func() (*passResult, error) {
			return servePass(cfg.Seed, cfg.Seconds, spec, depSeed, false)
		})
		if err != nil {
			return nil, err
		}
		tx, maxTx, err := spec.txSample(p.refReqs)
		if err != nil {
			return nil, err
		}
		refLat := latencies(p.refReps)
		o.E2E["setup_s"] = setup.Seconds()
		o.Ungated = append(o.Ungated,
			ungated{"latency_p50_ms", quantile(refLat, 0.50), "ms"},
			ungated{"latency_p99_ms", quantile(refLat, 0.99), "ms"})
		o.E2E["queries_per_s"] = p.refCompletedPerS
		o.E2E["tx_per_query"] = tx
		o.E2E["max_node_tx"] = maxTx
		o.E2E["exact_round_frac"] = 1 - ratio(float64(o.Failed), float64(o.Attempted))
		o.E2E["peak_rss_mb"] = p.refPeakRSS
		o.Ungated = append(o.Ungated, ungated{"sustained_qps", p.sustained, "queries/s"})
		return o, nil
	}

	// Traced: an untraced pass and a traced pass of half the window
	// each, then library replays of the reference rung's queries.
	half := cfg.Seconds / 2
	var g0, g1 goStats
	plain, err := validPass(o, spec, func() (*passResult, error) {
		g0 = readGoStats()
		p, err := servePass(cfg.Seed, half, spec, depSeed, false)
		g1 = readGoStats()
		return p, err
	})
	if err != nil {
		return nil, err
	}
	setGoLayer(o, g0, g1, len(plain.replies))
	traced, err := validPass(o, spec, func() (*passResult, error) {
		return servePass(cfg.Seed, half, spec, depSeed, true)
	})
	if err != nil {
		return nil, err
	}
	serverLayers(o, cfg.spans, traced)
	o.Layers["server.listen_ms"] = ms(setup)
	o.Layers["trace.overhead_frac"] = ratio(median(latencies(traced.refReps)), median(latencies(plain.refReps))) - 1
	stages, err := timeSetup(serveNodes, depSeed, core.SetupConfig{})
	if err != nil {
		return nil, err
	}
	stages.report(o)
	return o, spec.layers(o, cfg.spans, traced.refReqs, time.Duration(half*float64(time.Second)))
}

// maxPasses bounds the passes validPass runs.
const maxPasses = 3

// validPass runs a pass until one is valid, at most maxPasses times,
// counting every pass's requests and failures. A pass is invalid when,
// on its reference rung, the generator's send lag p99 exceeds the lag
// bound or the backlog grows by more than rate × limit: the machine,
// not the daemon, set the pace, so the pass is not reported. The same
// seed gives every retry the same inputs. If no pass is valid, the
// outcome is marked invalid.
func validPass(o *outcome, spec serveSpec, run func() (*passResult, error)) (*passResult, error) {
	for attempt := 1; ; attempt++ {
		p, err := run()
		if err != nil {
			return nil, err
		}
		o.Attempted += len(p.replies)
		for _, rp := range p.replies {
			if rp.err != "" {
				o.fail(rp.err)
			}
		}
		why := ""
		if r := p.refStats; r.LagP99Ms > ms(spec.lagBound) {
			why = fmt.Sprintf("generator lag p99 %.2f ms at the reference rate exceeds %.0f ms", r.LagP99Ms, ms(spec.lagBound))
		} else if r.Growth > r.Rate*spec.limit.Seconds() {
			why = fmt.Sprintf("backlog grew by %.0f requests at the reference rate", r.Growth)
		}
		if p.capped {
			// Not invalid: the reference rung is still measured. But the
			// capacity the ladder is scaled by no longer holds.
			fmt.Fprintf(os.Stderr, "perfbench: every ladder rung up to %.0f queries/s passed; the measured capacity (%.0f) is stale\n",
				ladder[len(ladder)-1]*spec.capacity, spec.capacity)
		}
		passes, _ := o.Detail["passes"].([]any)
		o.Detail["passes"] = append(passes, map[string]any{
			"rungs": p.rungs, "sustained_qps": p.sustained, "ladder_capped": p.capped, "invalid": why,
		})
		if why == "" {
			return p, nil
		}
		fmt.Fprintf(os.Stderr, "perfbench: pass %d invalid, not reported: %s\n", attempt, why)
		if attempt == maxPasses {
			o.Invalid = why
			return p, nil
		}
	}
}

func latencies(reps []reply) []float64 {
	out := make([]float64, 0, len(reps))
	for _, rp := range reps {
		if rp.err != "" {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(rp.latency))
	}
	return out
}

// servePass starts a daemon, runs the warm-up and the ladder against it
// and shuts it down. A traced pass wires a registry, keeps every query
// in the flight recorder and samples the load gauges.
func servePass(seed int64, seconds float64, spec serveSpec, depSeed int64, traced bool) (*passResult, error) {
	p := &passResult{}
	var reg *metrics.Registry
	flight := 0
	if traced {
		reg = metrics.New()
		flight = 1 << 17
	}
	srv, err := server.Listen("127.0.0.1:0", serveConfig(depSeed, reg, flight))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	conns, err := dialPool(srv.Addr().String())
	if err != nil {
		return nil, err
	}
	defer closePool(conns)
	p.reg = reg

	stopSampler := func() {}
	if traced {
		active := reg.Gauge("sensjoind_active_queries", "")
		queue := reg.Gauge("sensjoind_queue_depth", "")
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case now := <-tick.C:
					p.samples = append(p.samples, gaugeSample{at: now, active: active.Value(), queue: queue.Value()})
				}
			}
		}()
		stopSampler = func() { close(stop); wg.Wait() }
	}

	// Inputs: a private stream per pass and rung, so the schedule never
	// depends on how far an earlier ladder got.
	mk := func(rung int, rate, dur float64) ([]request, error) {
		rng := rand.New(rand.NewSource(seed*1009 + int64(rung)*7919 + int64(seconds*1000)))
		n := max(spec.burst*8, int(rate*dur))
		n -= n % spec.burst
		dues := poissonDues(rng, rate, n, spec.burst)
		reqs := make([]request, n)
		for i := range reqs {
			reqs[i].due = dues[i]
			if traced {
				reqs[i].id = fmt.Sprintf("r%d-%d", rung, i)
			}
		}
		return reqs, spec.build(rng, rung, reqs)
	}

	refRate := ladder[refRung] * spec.capacity
	warm, err := mk(-1, refRate, warmShare*seconds)
	if err != nil {
		return nil, err
	}
	warmReps, _ := runRung(conns, warm, time.Now())
	p.replies = append(p.replies, warmReps...)

	otherDur := (1 - warmShare - refShare) * seconds / float64(len(ladder)-1)
	for i, frac := range ladder {
		rate := frac * spec.capacity
		dur := otherDur
		if i == refRung {
			dur = refShare * seconds
		}
		reqs, err := mk(i, rate, dur)
		if err != nil {
			return nil, err
		}
		var rss *rssWatch
		if i == refRung {
			if rss, err = watchPeakRSS(time.Duration(dur * float64(time.Second))); err != nil {
				return nil, err
			}
		}
		rungStart := time.Now()
		reps, outstanding := runRung(conns, reqs, rungStart)
		st := summarize(rate, reps, outstanding, spec.limit)
		p.rungs = append(p.rungs, st)
		p.replies = append(p.replies, reps...)
		if i == refRung {
			p.refReqs, p.refReps = reqs, reps
			p.refStart, p.refEnd, p.refStats = rungStart, time.Now(), st
			p.refCompletedPerS = float64(len(reps)-st.Failed) / p.refEnd.Sub(rungStart).Seconds()
			if p.refPeakRSS, err = rss.finish(); err != nil {
				return nil, err
			}
		}
		if !st.Pass && i > refRung {
			break
		}
	}
	stopSampler()
	p.sustained, p.capped = sustainedRate(p.rungs)
	if traced {
		p.records = srv.Flight().Records()
	}
	return p, nil
}
