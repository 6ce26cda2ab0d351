package main

import (
	"fmt"
	"math/rand"
	"time"

	"sensjoin/internal/core"
)

// serve-once: ONCE joins from the four X9 shape families, three literal
// variants each, at four snapshot times. Both the prepared plans and the
// (deployment, t) snapshots repeat.

const (
	onceVariants = 3
	onceTimes    = 4
	// onceCapacity is the daemon's measured open-loop capacity on this
	// workload: the median sustained_qps of full ladders on a 2-core
	// machine (README.md). The reference rung runs at a quarter of it.
	onceCapacity = 500
)

// onceShapes renders the literal variants of the four X9 families, at
// or beyond X9's own literals toward more selective ones: tables of a
// few hundred rows at most, so the daemon's execution path, not row
// framing, dominates.
func onceShapes() []string {
	var out []string
	for v := 0; v < onceVariants; v++ {
		d := 0.5 * float64(v)
		out = append(out,
			fmt.Sprintf(`SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > %.1f ONCE`, 7+d),
			fmt.Sprintf(`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.hum < %.1f ONCE`, 69-2*d),
			fmt.Sprintf(`SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B WHERE A.temp - B.temp > %.1f ONCE`, 7+d),
			fmt.Sprintf(`SELECT * FROM Sensors A, Sensors B WHERE A.temp - B.temp > %.1f AND A.pres < 1015 ONCE`, 8.5+d),
		)
	}
	return out
}

// refEntry is a reference execution: the expected table and the
// paper's packet counts for it.
type refEntry struct {
	sum       digest
	tx, maxTx float64
}

// refCache runs reference executions through the library on a private
// runner, once per (source, t).
type refCache struct {
	r       *core.Runner
	entries map[string]*refEntry
}

func newRefCache(nodes int, seed int64) (*refCache, error) {
	r, err := core.NewRunner(core.SetupConfig{Nodes: nodes, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &refCache{r: r, entries: map[string]*refEntry{}}, nil
}

// sens returns the reference of a one-shot SENS-Join execution.
func (c *refCache) sens(src string, t float64) (*refEntry, error) {
	key := fmt.Sprintf("%s@%x", src, t)
	if e, ok := c.entries[key]; ok {
		return e, nil
	}
	c.r.Stats.Reset()
	res, err := c.r.Run(src, core.NewSENSJoin(), t)
	if err != nil {
		return nil, err
	}
	_, maxTx := c.r.Stats.MaxTx(core.SENSPhases...)
	e := &refEntry{sum: resultTable(res).digest(), tx: float64(c.r.Stats.TotalTx(core.SENSPhases...)), maxTx: float64(maxTx)}
	c.entries[key] = e
	return e, nil
}

func runServeOnce(cfg runConfig) (*outcome, error) {
	depSeed := int64(serveDeploymentSeed)
	shapes := onceShapes()
	ats := make([]float64, onceTimes)
	for i := range ats {
		ats[i] = float64(i * 30)
	}
	refs, err := newRefCache(serveNodes, depSeed)
	if err != nil {
		return nil, err
	}
	spec := serveSpec{
		capacity: onceCapacity,
		limit:    50 * time.Millisecond,
		lagBound: 25 * time.Millisecond,
		burst:    1,
		build: func(rng *rand.Rand, rung int, reqs []request) error {
			// Each run of len(shapes)·len(ats) requests asks every
			// (shape, t) pair once, in a seeded order: every seed asks
			// for the same mix, and the seed decides the order.
			var order []int
			for i := range reqs {
				if i%(len(shapes)*len(ats)) == 0 {
					order = rng.Perm(len(shapes) * len(ats))
				}
				c := order[i%len(order)]
				src, at := shapes[c%len(shapes)], ats[c/len(shapes)]
				e, err := refs.sens(src, at)
				if err != nil {
					return err
				}
				reqs[i].src, reqs[i].at, reqs[i].rounds = src, at, 1
				reqs[i].ref = []digest{e.sum}
			}
			return nil
		},
		txSample: func(reqs []request) (float64, float64, error) {
			var tx, maxTx []float64
			for _, rq := range reqs {
				e, err := refs.sens(rq.src, rq.at)
				if err != nil {
					return 0, 0, err
				}
				tx = append(tx, e.tx)
				maxTx = append(maxTx, e.maxTx)
			}
			return mean(tx), mean(maxTx), nil
		},
		layers: func(o *outcome, spans *spanLog, reqs []request, budget time.Duration) error {
			r, err := core.NewRunner(core.SetupConfig{Nodes: serveNodes, Seed: depSeed})
			if err != nil {
				return err
			}
			preps, err := prepareLayer(o, spans, r, shapes)
			if err != nil {
				return err
			}
			items := make([]libExec, len(reqs))
			for i, rq := range reqs {
				items[i] = libExec{req: rq.id, prep: preps[rq.src], m: core.NewSENSJoin(), t: rq.at, deployment: "default"}
			}
			o.Layers["field.repeat_snapshot_frac"] = repeatSnapshotFrac(items)
			return replayExecs(o, spans, r, items, budget)
		},
	}
	o, err := runServe(cfg, spec)
	if err != nil {
		return nil, err
	}
	o.Params["shapes"] = shapes
	o.Params["snapshot_times"] = ats
	return o, nil
}
