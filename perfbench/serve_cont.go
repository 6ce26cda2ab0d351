package main

import (
	"math/rand"
	"strconv"
	"time"

	"sensjoin/internal/core"
)

// serve-continuous: SAMPLE PERIOD joins arriving in bursts that share a
// (period, start time), so the daemon's group hub forms a QueryGroup per
// burst. One query of each burst (a quarter) carries a fresh literal and
// misses the prepared cache; every burst has its own start time, so no snapshot is
// shared across groups.

const (
	contBurst  = 4
	contRounds = 3
	contPeriod = 30.0
	// contTxGroups bounds the reference-rung groups replayed for the
	// packet counts.
	contTxGroups = 256
	// contCapacity is the daemon's measured open-loop capacity on this
	// workload (README.md).
	contCapacity = 240
)

// contFamilies renders the three shareable families for a literal.
var contFamilies = []func(lit float64) string{
	func(l float64) string {
		return "SELECT A.temp, B.temp FROM Sensors A, Sensors B WHERE A.temp - B.temp > " + fmtLit(l) + " SAMPLE PERIOD 30"
	},
	func(l float64) string {
		return "SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.hum < " + fmtLit(l) + " SAMPLE PERIOD 30"
	},
	func(l float64) string {
		return "SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > " + fmtLit(l) + " AND B.pres < 1015 SAMPLE PERIOD 30"
	},
}

// contBase is each family's literal range.
var contBase = [][2]float64{{5, 7}, {62, 70}, {6, 8}}

func fmtLit(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// oracle computes reference tables with core.GroundTruth. Every group
// has its own start time, so tables are not cached; prepared plans are.
type oracle struct {
	r     *core.Runner
	preps map[string]*core.Prepared
}

func (c *oracle) get(src string, t float64) (digest, error) {
	p, ok := c.preps[src]
	if !ok {
		var err error
		if p, err = core.Prepare(c.r.Catalog, src); err != nil {
			return digest{}, err
		}
		c.preps[src] = p
	}
	x, err := c.r.ExecPrepared(p, t)
	if err != nil {
		return digest{}, err
	}
	res, err := core.GroundTruth(x)
	if err != nil {
		return digest{}, err
	}
	return resultTable(res).digest(), nil
}

// contGroups splits a rung's requests into their bursts.
func contGroups(reqs []request) [][]request {
	var out [][]request
	for i := 0; i+contBurst <= len(reqs); i += contBurst {
		out = append(out, reqs[i:i+contBurst])
	}
	return out
}

// replayGroup runs one burst as a QueryGroup on a private runner, as the
// daemon does, returning per-round durations and packet counts.
func replayGroup(depSeed int64, g []request) (durs []time.Duration, tx, maxTx []float64, err error) {
	r, err := core.NewRunner(core.SetupConfig{Nodes: serveNodes, Seed: depSeed})
	if err != nil {
		return nil, nil, nil, err
	}
	qg := core.NewQueryGroup(core.Options{})
	for _, rq := range g {
		if _, err := qg.Add(rq.src); err != nil {
			return nil, nil, nil, err
		}
	}
	for e := 0; e < contRounds; e++ {
		r.Stats.Reset()
		start := time.Now()
		if _, err := qg.RunRound(r, g[0].at+float64(e)*contPeriod); err != nil {
			return nil, nil, nil, err
		}
		durs = append(durs, time.Since(start))
		_, mx := r.Stats.MaxTx(core.SENSPhases...)
		tx = append(tx, float64(r.Stats.TotalTx(core.SENSPhases...)))
		maxTx = append(maxTx, float64(mx))
	}
	return durs, tx, maxTx, nil
}

func runServeContinuous(cfg runConfig) (*outcome, error) {
	depSeed := int64(serveDeploymentSeed)
	variants := make([][]float64, len(contFamilies))
	for f, b := range contBase {
		for v := 0; v < 3; v++ {
			variants[f] = append(variants[f], b[0]+(b[1]-b[0])*float64(v)/2)
		}
	}
	var combos [][2]int
	for f := range variants {
		for v := range variants[f] {
			combos = append(combos, [2]int{f, v})
		}
	}
	r, err := core.NewRunner(core.SetupConfig{Nodes: serveNodes, Seed: depSeed})
	if err != nil {
		return nil, err
	}
	ref := &oracle{r: r, preps: map[string]*core.Prepared{}}
	fresh, freshPos := 0, 0
	spec := serveSpec{
		capacity: contCapacity,
		limit:    250 * time.Millisecond,
		lagBound: 125 * time.Millisecond,
		burst:    contBurst,
		build: func(rng *rand.Rand, rung int, reqs []request) error {
			// Each run of len(combos) requests asks every (family,
			// literal) pair once, in a seeded order: every seed asks for
			// the same mix, and the seed decides who shares a group.
			var order []int
			for i := range reqs {
				if i%len(combos) == 0 {
					order = rng.Perm(len(combos))
				}
				c := combos[order[i%len(combos)]]
				f, l := c[0], variants[c[0]][c[1]]
				if i%contBurst == 0 {
					// Every group its own start time.
					reqs[i].at = float64(rung+2)*1e5 + float64(i/contBurst)*45 + float64(rng.Intn(100))/10
					freshPos = rng.Intn(contBurst)
				} else {
					reqs[i].at = reqs[i-i%contBurst].at
				}
				if i%contBurst == freshPos {
					fresh++
					l += float64(fresh) * 1e-6 // a literal no earlier query used
				}
				reqs[i].src = contFamilies[f](l)
				reqs[i].rounds = contRounds
				reqs[i].ref = make([]digest, contRounds)
				for e := range reqs[i].ref {
					tb, err := ref.get(reqs[i].src, reqs[i].at+float64(e)*contPeriod)
					if err != nil {
						return err
					}
					reqs[i].ref[e] = tb
				}
			}
			return nil
		},
		txSample: func(reqs []request) (float64, float64, error) {
			var tx, maxTx []float64
			for k, g := range contGroups(reqs) {
				if k == contTxGroups {
					break
				}
				_, t, m, err := replayGroup(depSeed, g)
				if err != nil {
					return 0, 0, err
				}
				for e := range t {
					tx = append(tx, t[e]/float64(len(g)))
					maxTx = append(maxTx, m[e])
				}
			}
			return mean(tx), mean(maxTx), nil
		},
		layers: func(o *outcome, spans *spanLog, reqs []request, budget time.Duration) error {
			var srcs []string
			for _, rq := range reqs {
				srcs = append(srcs, rq.src)
			}
			lr, err := core.NewRunner(core.SetupConfig{Nodes: serveNodes, Seed: depSeed})
			if err != nil {
				return err
			}
			preps, err := prepareLayer(o, spans, lr, srcs)
			if err != nil {
				return err
			}
			// Shared rounds against the same queries run alone.
			var roundMs []float64
			var rounds []libExec
			shared, indep := 0.0, 0.0
			start := time.Now()
			for k, g := range contGroups(reqs) {
				if k > 0 && time.Since(start) > budget/2 {
					break
				}
				durs, tx, _, err := replayGroup(depSeed, g)
				if err != nil {
					return err
				}
				for e, d := range durs {
					spans.add("mqo.round", g[0].id, -1, time.Now().Add(-d), time.Now())
					roundMs = append(roundMs, ms(d))
					shared += tx[e]
					rounds = append(rounds, libExec{t: g[0].at + float64(e)*contPeriod, deployment: "default"})
				}
				for _, rq := range g {
					m := core.NewContinuousSENSJoin()
					for e := 0; e < contRounds; e++ {
						lr.Stats.Reset()
						if _, err := lr.RunPrepared(preps[rq.src], m, rq.at+float64(e)*contPeriod); err != nil {
							return err
						}
						indep += float64(lr.Stats.TotalTx(core.SENSPhases...))
					}
				}
			}
			o.Layers["mqo.round_ms_p50"] = median(roundMs)
			o.Layers["mqo.tx_ratio"] = ratio(shared, indep)
			o.Layers["field.repeat_snapshot_frac"] = repeatSnapshotFrac(rounds)
			var items []libExec
			for _, rq := range reqs {
				m := core.NewContinuousSENSJoin()
				for e := 0; e < contRounds; e++ {
					items = append(items, libExec{req: rq.id, prep: preps[rq.src], m: m, t: rq.at + float64(e)*contPeriod})
				}
			}
			return replayExecs(o, spans, lr, items, budget/2)
		},
	}
	o, err := runServe(cfg, spec)
	if err != nil {
		return nil, err
	}
	o.Params["literal_variants"] = variants
	o.Params["fresh_literal_frac"] = 1.0 / contBurst
	o.Params["rounds"] = contRounds
	o.Params["period_s"] = contPeriod
	return o, nil
}
