package stats

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"sensjoin/internal/topology"
)

func TestCountersAndFilters(t *testing.T) {
	c := NewCollector(3)
	c.OnTx(1, "collect", 2, 50)
	c.OnTx(1, "filter", 1, 10)
	c.OnTx(2, "collect", 3, 100)
	c.OnRx(0, "collect", 5, 150)

	if p, b := c.NodeTx(1); p != 3 || b != 60 {
		t.Fatalf("NodeTx(1) = %d/%d, want 3/60", p, b)
	}
	if p, _ := c.NodeTx(1, "collect"); p != 2 {
		t.Fatalf("NodeTx(1, collect) = %d, want 2", p)
	}
	if p, b := c.NodeRx(0, "collect"); p != 5 || b != 150 {
		t.Fatalf("NodeRx = %d/%d", p, b)
	}
	if tot := c.TotalTx(); tot != 6 {
		t.Fatalf("TotalTx = %d, want 6", tot)
	}
	if tot := c.TotalTx("collect"); tot != 5 {
		t.Fatalf("TotalTx(collect) = %d, want 5", tot)
	}
	if b := c.TotalTxBytes("filter"); b != 10 {
		t.Fatalf("TotalTxBytes(filter) = %d, want 10", b)
	}
}

func TestPhases(t *testing.T) {
	c := NewCollector(2)
	c.OnTx(0, "b", 1, 1)
	c.OnTx(1, "a", 1, 1)
	got := c.Phases()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Phases = %v, want [a b]", got)
	}
}

func TestPerNodeAndMax(t *testing.T) {
	c := NewCollector(4)
	c.OnTx(0, "p", 100, 0) // base station: must be excluded from Max/TopK
	c.OnTx(1, "p", 5, 0)
	c.OnTx(2, "p", 9, 0)
	c.OnTx(3, "p", 1, 0)
	per := c.PerNodeTx()
	if per[2] != 9 || per[0] != 100 {
		t.Fatalf("PerNodeTx = %v", per)
	}
	node, load := c.MaxTx()
	if node != 2 || load != 9 {
		t.Fatalf("MaxTx = node %d load %d, want node 2 load 9", node, load)
	}
	top := c.TopK(2)
	if len(top) != 2 || top[0] != 9 || top[1] != 5 {
		t.Fatalf("TopK(2) = %v, want [9 5]", top)
	}
	if got := c.TopK(99); len(got) != 3 {
		t.Fatalf("TopK(99) should clamp to %d sensor nodes, got %d", 3, len(got))
	}
}

func TestReset(t *testing.T) {
	c := NewCollector(2)
	c.OnTx(1, "p", 5, 10)
	c.Reset()
	if c.TotalTx() != 0 || len(c.Phases()) != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

// A collector reused through Reset must answer exactly like a fresh one
// over the same charges, including for labels charged only before the
// Reset and for zero-sized charges.
func TestResetMatchesFresh(t *testing.T) {
	const n = 9
	labels := []string{"collect", "filter", "final", "beacon", "ack-only"}
	charge := func(c *Collector, rng *rand.Rand, phases []string) {
		for i := 0; i < 60; i++ {
			node := topology.NodeID(rng.Intn(n))
			ph := phases[rng.Intn(len(phases))]
			p, b := rng.Intn(3), rng.Intn(200)
			switch rng.Intn(4) {
			case 0:
				c.OnRx(node, ph, p, b)
			case 1:
				c.OnRetx(node, ph, p, b)
				c.OnTx(node, ph, p, b)
			case 2:
				c.OnAck(node, ph, p, b)
				c.OnTx(node, ph, p, b)
			default:
				c.OnTx(node, ph, p, b)
			}
		}
	}
	reused := NewCollector(n)
	charge(reused, rand.New(rand.NewSource(1)), labels)
	reused.Reset()
	charge(reused, rand.New(rand.NewSource(2)), labels[1:3])
	fresh := NewCollector(n)
	charge(fresh, rand.New(rand.NewSource(2)), labels[1:3])

	if got, want := reused.Phases(), fresh.Phases(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Phases = %v, want %v", got, want)
	}
	for _, filter := range [][]string{nil, {"filter"}, {"collect"}, {"final", "beacon"}} {
		if got, want := reused.TotalTx(filter...), fresh.TotalTx(filter...); got != want {
			t.Fatalf("TotalTx(%v) = %d, want %d", filter, got, want)
		}
		if got, want := reused.TotalTxBytes(filter...), fresh.TotalTxBytes(filter...); got != want {
			t.Fatalf("TotalTxBytes(%v) = %d, want %d", filter, got, want)
		}
		if got, want := reused.TotalRetx(filter...), fresh.TotalRetx(filter...); got != want {
			t.Fatalf("TotalRetx(%v) = %d, want %d", filter, got, want)
		}
		if got, want := reused.TotalAck(filter...), fresh.TotalAck(filter...); got != want {
			t.Fatalf("TotalAck(%v) = %d, want %d", filter, got, want)
		}
		gn, gl := reused.MaxTx(filter...)
		wn, wl := fresh.MaxTx(filter...)
		if gn != wn || gl != wl {
			t.Fatalf("MaxTx(%v) = %d/%d, want %d/%d", filter, gn, gl, wn, wl)
		}
		if got, want := reused.PerNodeTx(filter...), fresh.PerNodeTx(filter...); !reflect.DeepEqual(got, want) {
			t.Fatalf("PerNodeTx(%v) = %v, want %v", filter, got, want)
		}
		for node := topology.NodeID(0); node < n; node++ {
			gp, gb := reused.NodeRx(node, filter...)
			wp, wb := fresh.NodeRx(node, filter...)
			if gp != wp || gb != wb {
				t.Fatalf("NodeRx(%d, %v) = %d/%d, want %d/%d", node, filter, gp, gb, wp, wb)
			}
		}
	}
	rs, fs := reused.Snapshot(), fresh.Snapshot()
	if !reflect.DeepEqual(rs.Phases(), fs.Phases()) {
		t.Fatalf("Snapshot phases = %v, want %v", rs.Phases(), fs.Phases())
	}
	for _, ph := range labels {
		for node := topology.NodeID(0); node < n; node++ {
			if rs.Tx(node, ph) != fs.Tx(node, ph) || rs.Rx(node, ph) != fs.Rx(node, ph) {
				t.Fatalf("snapshot of node %d phase %s differs", node, ph)
			}
		}
	}
}

// Once its phase column exists, a charge allocates nothing.
func TestOnTxAllocs(t *testing.T) {
	c := NewCollector(16)
	c.OnTx(3, "collect", 1, 10)
	c.Reset()
	if a := testing.AllocsPerRun(100, func() { c.OnTx(5, "collect", 1, 10) }); a != 0 {
		t.Fatalf("warmed OnTx: %v allocs, want 0", a)
	}
}

func TestEnergyModel(t *testing.T) {
	c := NewCollector(3)
	c.OnTx(1, "p", 2, 100)
	c.OnRx(1, "p", 1, 40)
	m := EnergyModel{TxPerPacketJ: 10, TxPerByteJ: 1, RxPerPacketJ: 5, RxPerByteJ: 0.5}
	want := 2.0*10 + 100*1 + 1*5 + 40*0.5
	if got := c.NodeEnergy(m, 1); got != want {
		t.Fatalf("NodeEnergy = %g, want %g", got, want)
	}
	// Base station excluded from TotalEnergy.
	c.OnTx(0, "p", 1000, 0)
	if got := c.TotalEnergy(m); got != want {
		t.Fatalf("TotalEnergy = %g, want %g (base station excluded)", got, want)
	}
	cc := CC2420Model()
	if cc.TxPerPacketJ <= 0 || cc.RxPerPacketJ <= 0 {
		t.Fatal("CC2420Model must have positive per-packet costs")
	}
}

func TestPhaseTable(t *testing.T) {
	c := NewCollector(2)
	c.OnTx(1, "collect", 2, 80)
	out := c.PhaseTable()
	if !strings.Contains(out, "collect") || !strings.Contains(out, "2 packets") {
		t.Fatalf("PhaseTable output unexpected:\n%s", out)
	}
}

func TestLoadByDescendants(t *testing.T) {
	perNode := []int64{999, 1, 3, 10, 20} // node 0 = base station, ignored
	desc := []int{100, 0, 1, 10, 50}
	mean, count := LoadByDescendants(perNode, desc, []int{1, 20, 1000})
	if count[0] != 2 || count[1] != 1 || count[2] != 1 {
		t.Fatalf("counts = %v", count)
	}
	if mean[0] != 2 { // (1+3)/2
		t.Fatalf("bin 0 mean = %g, want 2", mean[0])
	}
	if mean[1] != 10 || mean[2] != 20 {
		t.Fatalf("means = %v", mean)
	}
}

func TestLifetimeRounds(t *testing.T) {
	perRound := []float64{99, 0.5, 2.0, 1.0} // node 0 = base station, ignored
	rounds, dead := LifetimeRounds(perRound, 10)
	if dead != 2 {
		t.Fatalf("first dead = %d, want 2 (highest drain)", dead)
	}
	if rounds != 5 {
		t.Fatalf("rounds = %d, want 5", rounds)
	}
	rounds, _ = LifetimeRounds([]float64{0, 0, 0}, 10)
	if rounds < 1<<29 {
		t.Fatal("zero drain should yield effectively infinite lifetime")
	}
}

func TestPerNodeEnergy(t *testing.T) {
	c := NewCollector(3)
	c.OnTx(1, "p", 2, 100)
	m := EnergyModel{TxPerPacketJ: 1, TxPerByteJ: 0.01}
	e := c.PerNodeEnergy(m)
	if len(e) != 3 {
		t.Fatalf("len = %d", len(e))
	}
	if e[1] != 3 || e[0] != 0 || e[2] != 0 {
		t.Fatalf("energies = %v", e)
	}
}

func TestLoadByDescendantsOverflowBin(t *testing.T) {
	// Nodes beyond the last boundary land in the trailing overflow bin
	// instead of silently vanishing from every series.
	perNode := []int64{999, 4, 8, 100}
	desc := []int{50, 1, 2, 30} // node 3 exceeds the last boundary (10)
	mean, count := LoadByDescendants(perNode, desc, []int{1, 10})
	if len(mean) != 3 || len(count) != 3 {
		t.Fatalf("want len(boundaries)+1 = 3 bins, got %d/%d", len(mean), len(count))
	}
	if count[0] != 1 || count[1] != 1 || count[2] != 1 {
		t.Fatalf("counts = %v", count)
	}
	if mean[2] != 100 {
		t.Fatalf("overflow bin mean = %g, want 100", mean[2])
	}
	total := count[0] + count[1] + count[2]
	if total != len(perNode)-1 {
		t.Fatalf("binned %d of %d sensor nodes", total, len(perNode)-1)
	}
}

func TestSnapshotDeepCopy(t *testing.T) {
	c := NewCollector(2)
	c.OnTx(1, "p", 2, 20)
	c.OnRx(1, "p", 1, 10)
	s := c.Snapshot()
	c.OnTx(1, "p", 5, 50) // must not leak into the snapshot
	if got := s.Tx(1, "p"); got.Packets != 2 || got.Bytes != 20 {
		t.Fatalf("snapshot tx = %+v, want {2 20}", got)
	}
	if got := s.Rx(1, "p"); got.Packets != 1 || got.Bytes != 10 {
		t.Fatalf("snapshot rx = %+v, want {1 10}", got)
	}
	if got := s.Tx(0, "p"); got.Packets != 0 {
		t.Fatalf("untouched node has tx %+v", got)
	}
	if s.N() != 2 {
		t.Fatalf("N = %d", s.N())
	}
}

func TestMaxLoadNode(t *testing.T) {
	if n, v := MaxLoadNode([]float64{99, 1, 7, 3}); n != 2 || v != 7 {
		t.Fatalf("MaxLoadNode = (%d, %g), want (2, 7)", n, v)
	}
	// Base station at index 0 never wins, even when largest.
	if n, _ := MaxLoadNode([]float64{1000, 1}); n != 1 {
		t.Fatalf("base station won: node %d", n)
	}
	if n, v := MaxLoadNode([]float64{5}); n != -1 || v != 0 {
		t.Fatalf("no sensors: got (%d, %g)", n, v)
	}
	if n, v := MaxLoadNode(nil); n != -1 || v != 0 {
		t.Fatalf("nil: got (%d, %g)", n, v)
	}
	// Ties resolve to the lowest node id (deterministic).
	if n, _ := MaxLoadNode([]float64{0, 4, 4}); n != 1 {
		t.Fatalf("tie resolved to node %d, want 1", n)
	}
}

func TestPercentiles(t *testing.T) {
	// Sensors 1..5 carry 10,20,30,40,50.
	load := []float64{0, 10, 20, 30, 40, 50}
	got := Percentiles(load, 0, 0.5, 1)
	if got[0] != 10 || got[1] != 30 || got[2] != 50 {
		t.Fatalf("Percentiles = %v, want [10 30 50]", got)
	}
	// Linear interpolation between order statistics.
	if q := Percentiles(load, 0.25)[0]; q != 20 {
		t.Fatalf("p25 = %g, want 20", q)
	}
	if q := Percentiles(load, 0.125)[0]; q != 15 {
		t.Fatalf("p12.5 = %g, want 15", q)
	}
	// Unsorted input sorts internally and does not mutate the caller's slice.
	shuffled := []float64{0, 50, 10, 40, 20, 30}
	if q := Percentiles(shuffled, 0.5)[0]; q != 30 {
		t.Fatalf("unsorted median = %g, want 30", q)
	}
	if shuffled[1] != 50 {
		t.Fatal("Percentiles mutated its input")
	}
	// No sensor nodes: NaN.
	for _, v := range Percentiles([]float64{7}, 0.5, 0.9) {
		if !math.IsNaN(v) {
			t.Fatalf("empty percentile = %g, want NaN", v)
		}
	}
}

func TestGini(t *testing.T) {
	// Perfectly even load: 0.
	if g := Gini([]float64{0, 5, 5, 5, 5}); g != 0 {
		t.Fatalf("even Gini = %g, want 0", g)
	}
	// All load on one of n nodes: (n-1)/n.
	if g := Gini([]float64{0, 0, 0, 0, 12}); math.Abs(g-0.75) > 1e-12 {
		t.Fatalf("concentrated Gini = %g, want 0.75", g)
	}
	// 1,2,3,4 has a known Gini of 0.25.
	if g := Gini([]float64{9, 1, 2, 3, 4}); math.Abs(g-0.25) > 1e-12 {
		t.Fatalf("Gini(1..4) = %g, want 0.25", g)
	}
	// Degenerate inputs.
	if g := Gini([]float64{1, 2}); g != 0 {
		t.Fatalf("single sensor Gini = %g, want 0", g)
	}
	if g := Gini([]float64{0, 0, 0}); g != 0 {
		t.Fatalf("zero-load Gini = %g, want 0", g)
	}
	// Base station excluded: its huge load must not register.
	if g := Gini([]float64{1e9, 5, 5}); g != 0 {
		t.Fatalf("base station influenced Gini: %g", g)
	}
}
