// Package stats accounts for communication costs.
//
// The paper's evaluation metric is the number of packet transmissions,
// reported overall, per node, and broken down by protocol step (§VI). The
// Collector records transmissions and receptions per node and per phase
// label; summaries answer the questions the paper's figures ask: total
// transmissions per method (Fig. 10, 12-14, 16), per-node load versus
// descendant count and the most-loaded nodes (Fig. 11), and per-step
// breakdowns (Fig. 15). An energy model converts counts to Joules for
// users who want hardware-specific figures.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"sensjoin/internal/topology"
)

// Counter accumulates packets and bytes.
type Counter struct {
	Packets int64
	Bytes   int64
}

// Add accumulates other into c.
func (c *Counter) Add(packets, bytes int) {
	c.Packets += int64(packets)
	c.Bytes += int64(bytes)
}

// Collector implements netsim.Accountant (and its reliable-transport
// extension netsim.ReliabilityAccountant): per-node, per-phase counters.
// Retransmissions and ACKs are always also charged through OnTx — the
// retx/ack counters break the reliability overhead out of the totals,
// they never add to them.
//
// Each side (tx, rx, retx, ack) keeps one dense per-node column per
// phase label, allocated on the label's first charge. Protocols use a
// handful of labels, so a charge is a short label scan and an indexed
// add, and Reset zeroes the charged columns in place: a collector reused
// across executions allocates nothing after warm-up. At million-node
// scale this costs less than per-node maps, which a node pays for as
// soon as it is charged once.
type Collector struct {
	n    int
	tx   side
	rx   side
	retx side
	ack  side
}

// side holds one kind of charge: names[i]'s counters are cols[i],
// indexed by node. charged[i] reports a charge since the last Reset, so
// a label charged only before it is not reported.
type side struct {
	names   []string
	cols    [][]Counter
	charged []bool
}

// column returns phase's per-node counters, marking it charged.
func (s *side) column(phase string, n int) []Counter {
	for i, name := range s.names {
		if name == phase {
			s.charged[i] = true
			return s.cols[i]
		}
	}
	s.names = append(s.names, phase)
	s.cols = append(s.cols, make([]Counter, n))
	s.charged = append(s.charged, true)
	return s.cols[len(s.cols)-1]
}

// each calls fn for every charged column whose label the filter selects.
func (s *side) each(filter []string, fn func(phase string, col []Counter)) {
	for i, name := range s.names {
		if s.charged[i] && match(name, filter) {
			fn(name, s.cols[i])
		}
	}
}

// sum adds node's counters over the selected phases.
func (s *side) sum(node topology.NodeID, filter []string) (p, b int64) {
	for i, name := range s.names {
		if s.charged[i] && match(name, filter) {
			p += s.cols[i][node].Packets
			b += s.cols[i][node].Bytes
		}
	}
	return p, b
}

func (s *side) reset() {
	for i, was := range s.charged {
		if was {
			clear(s.cols[i])
			s.charged[i] = false
		}
	}
}

// NewCollector returns a collector for n nodes.
func NewCollector(n int) *Collector {
	return &Collector{n: n}
}

// OnTx records a transmission by node.
func (c *Collector) OnTx(node topology.NodeID, phase string, packets, bytes int) {
	c.tx.column(phase, c.n)[node].Add(packets, bytes)
}

// OnRx records a reception at node.
func (c *Collector) OnRx(node topology.NodeID, phase string, packets, bytes int) {
	c.rx.column(phase, c.n)[node].Add(packets, bytes)
}

// OnRetx records a reliable-transport retransmission by node (also
// charged through OnTx).
func (c *Collector) OnRetx(node topology.NodeID, phase string, packets, bytes int) {
	c.retx.column(phase, c.n)[node].Add(packets, bytes)
}

// OnAck records a link-layer acknowledgement transmitted by node (also
// charged through OnTx).
func (c *Collector) OnAck(node topology.NodeID, phase string, packets, bytes int) {
	c.ack.column(phase, c.n)[node].Add(packets, bytes)
}

// Reset clears all counters.
func (c *Collector) Reset() {
	for _, s := range c.sides() {
		s.reset()
	}
}

func (c *Collector) sides() [4]*side { return [4]*side{&c.tx, &c.rx, &c.retx, &c.ack} }

// Phases returns the phase labels charged since the last Reset on any
// side, sorted.
func (c *Collector) Phases() []string {
	out := make([]string, 0, 8)
	for _, s := range c.sides() {
		s.each(nil, func(phase string, _ []Counter) {
			if !slices.Contains(out, phase) {
				out = append(out, phase)
			}
		})
	}
	sort.Strings(out)
	return out
}

// N returns the node count.
func (c *Collector) N() int { return c.n }

// match reports whether phase is selected by the filter: an empty filter
// selects everything; otherwise the phase must equal one of the entries.
func match(phase string, filter []string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == phase {
			return true
		}
	}
	return false
}

// NodeTx returns the transmitted (packets, bytes) of node over the given
// phases (all phases when none given).
func (c *Collector) NodeTx(node topology.NodeID, phases ...string) (int64, int64) {
	return c.tx.sum(node, phases)
}

// NodeRx returns the received (packets, bytes) of node over the given
// phases.
func (c *Collector) NodeRx(node topology.NodeID, phases ...string) (int64, int64) {
	return c.rx.sum(node, phases)
}

// TotalRetx sums retransmitted packets over all nodes for the given
// phases — the reliability overhead already contained in TotalTx.
func (c *Collector) TotalRetx(phases ...string) int64 {
	return c.retx.total(phases)
}

// TotalAck sums acknowledgement packets over all nodes for the given
// phases — like TotalRetx, a breakdown of TotalTx, not an addition.
func (c *Collector) TotalAck(phases ...string) int64 {
	return c.ack.total(phases)
}

// total sums packets over all nodes for the selected phases.
func (s *side) total(filter []string) int64 {
	var p int64
	s.each(filter, func(_ string, col []Counter) {
		for _, ctr := range col {
			p += ctr.Packets
		}
	})
	return p
}

// TotalTx sums transmitted packets over all nodes for the given phases.
func (c *Collector) TotalTx(phases ...string) int64 {
	return c.tx.total(phases)
}

// TotalTxBytes sums transmitted bytes over all nodes for the given phases.
func (c *Collector) TotalTxBytes(phases ...string) int64 {
	var b int64
	c.tx.each(phases, func(_ string, col []Counter) {
		for _, ctr := range col {
			b += ctr.Bytes
		}
	})
	return b
}

// PerNodeTx returns transmitted packets per node for the given phases.
func (c *Collector) PerNodeTx(phases ...string) []int64 {
	out := make([]int64, c.n)
	for i := range out {
		out[i], _ = c.NodeTx(topology.NodeID(i), phases...)
	}
	return out
}

// MaxTx returns the highest per-node transmitted packet count and the
// node that incurred it, excluding the base station (it is powered).
func (c *Collector) MaxTx(phases ...string) (topology.NodeID, int64) {
	var best topology.NodeID
	var bestP int64 = -1
	for i := 1; i < c.n; i++ {
		p, _ := c.NodeTx(topology.NodeID(i), phases...)
		if p > bestP {
			bestP, best = p, topology.NodeID(i)
		}
	}
	return best, bestP
}

// TopK returns the k highest per-node transmitted packet counts in
// descending order, excluding the base station.
func (c *Collector) TopK(k int, phases ...string) []int64 {
	loads := make([]int64, 0, c.n-1)
	for i := 1; i < c.n; i++ {
		p, _ := c.NodeTx(topology.NodeID(i), phases...)
		loads = append(loads, p)
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i] > loads[j] })
	if k > len(loads) {
		k = len(loads)
	}
	return loads[:k]
}

// Snapshot is a deep copy of a Collector's counters at one instant.
// Audits snapshot before and after an execution and reconcile the delta
// against the execution's trace journal, bit-exact.
type Snapshot struct {
	n      int
	tx, rx map[string][]Counter
	phases []string
}

// Snapshot deep-copies the current counters.
func (c *Collector) Snapshot() Snapshot {
	return Snapshot{
		n:      c.n,
		tx:     c.tx.copyColumns(),
		rx:     c.rx.copyColumns(),
		phases: c.Phases(),
	}
}

func (s *side) copyColumns() map[string][]Counter {
	out := make(map[string][]Counter, len(s.names))
	s.each(nil, func(phase string, col []Counter) {
		out[phase] = slices.Clone(col)
	})
	return out
}

// N returns the node count.
func (s Snapshot) N() int { return s.n }

// Phases returns the phase labels seen at snapshot time, sorted.
func (s Snapshot) Phases() []string { return s.phases }

// Tx returns node's transmitted counter for one phase.
func (s Snapshot) Tx(node topology.NodeID, phase string) Counter { return at(s.tx[phase], node) }

// Rx returns node's received counter for one phase.
func (s Snapshot) Rx(node topology.NodeID, phase string) Counter { return at(s.rx[phase], node) }

// at reads one node of a column; an uncharged phase has no column.
func at(col []Counter, node topology.NodeID) Counter {
	if col == nil {
		return Counter{}
	}
	return col[node]
}

// EnergyModel converts packet/byte counts to Joules with a linear model.
type EnergyModel struct {
	TxPerPacketJ float64 // fixed cost per transmitted packet
	TxPerByteJ   float64 // marginal cost per transmitted byte
	RxPerPacketJ float64 // fixed cost per received packet
	RxPerByteJ   float64 // marginal cost per received byte
}

// CC2420Model returns rough constants for a CC2420-class 802.15.4 radio
// at 250 kbit/s and ~0 dBm: dominated by fixed per-packet overhead, as the
// paper argues (footnote 1).
func CC2420Model() EnergyModel {
	return EnergyModel{
		TxPerPacketJ: 165e-6,
		TxPerByteJ:   1.8e-6,
		RxPerPacketJ: 180e-6,
		RxPerByteJ:   2.0e-6,
	}
}

// NodeEnergy returns the energy in Joules spent by node under m.
func (c *Collector) NodeEnergy(m EnergyModel, node topology.NodeID, phases ...string) float64 {
	tp, tb := c.NodeTx(node, phases...)
	rp, rb := c.NodeRx(node, phases...)
	return float64(tp)*m.TxPerPacketJ + float64(tb)*m.TxPerByteJ +
		float64(rp)*m.RxPerPacketJ + float64(rb)*m.RxPerByteJ
}

// TotalEnergy returns the summed energy over all sensor nodes (the base
// station is powered and excluded).
func (c *Collector) TotalEnergy(m EnergyModel, phases ...string) float64 {
	var e float64
	for i := 1; i < c.n; i++ {
		e += c.NodeEnergy(m, topology.NodeID(i), phases...)
	}
	return e
}

// PhaseTable formats per-phase total transmissions as aligned text rows.
func (c *Collector) PhaseTable() string {
	var b strings.Builder
	for _, ph := range c.Phases() {
		fmt.Fprintf(&b, "%-24s %8d packets %10d bytes\n", ph, c.TotalTx(ph), c.TotalTxBytes(ph))
	}
	return b.String()
}

// LifetimeRounds estimates how many executions of a workload the network
// survives: given each node's energy per round and a battery budget, it
// returns the number of complete rounds until the first sensor node
// depletes, and which node dies first. The paper's motivation ("when the
// energy of the nodes near the root is depleted, the network ceases
// operation", §VI) makes the most loaded node the lifetime bottleneck.
func LifetimeRounds(perRoundJ []float64, batteryJ float64) (rounds int, firstDead int) {
	firstDead = -1
	max := 0.0
	for i := 1; i < len(perRoundJ); i++ { // node 0 is the powered base station
		if perRoundJ[i] > max {
			max = perRoundJ[i]
			firstDead = i
		}
	}
	if max <= 0 {
		return 1 << 30, firstDead
	}
	return int(batteryJ / max), firstDead
}

// PerNodeEnergy returns each node's energy in Joules under m for the
// given phases.
func (c *Collector) PerNodeEnergy(m EnergyModel, phases ...string) []float64 {
	out := make([]float64, c.n)
	for i := range out {
		out[i] = c.NodeEnergy(m, topology.NodeID(i), phases...)
	}
	return out
}

// MaxLoadNode returns the most-loaded sensor node and its load, given a
// per-node load slice (packets or Joules). The base station at index 0
// is powered and excluded, matching Collector.MaxTx. Returns (-1, 0)
// when there are no sensor nodes.
func MaxLoadNode(load []float64) (node int, max float64) {
	node = -1
	for i := 1; i < len(load); i++ {
		if node == -1 || load[i] > max {
			node, max = i, load[i]
		}
	}
	return node, max
}

// Percentiles returns the q-quantiles (each in [0,1]) of the sensor-node
// loads, linearly interpolated over the sorted values. The base station
// at index 0 is excluded. NaN entries are returned when there are no
// sensor nodes.
func Percentiles(load []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(load) < 2 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), load[1:]...)
	sort.Float64s(sorted)
	n := len(sorted)
	for i, q := range qs {
		if q <= 0 {
			out[i] = sorted[0]
			continue
		}
		if q >= 1 {
			out[i] = sorted[n-1]
			continue
		}
		pos := q * float64(n-1)
		lo := int(pos)
		frac := pos - float64(lo)
		out[i] = sorted[lo] + (sorted[lo+1]-sorted[lo])*frac
	}
	return out
}

// Gini returns the Gini coefficient of the sensor-node loads (base
// station at index 0 excluded): 0 means every node carries the same
// load, values approaching 1 mean the load concentrates on few nodes —
// the imbalance the paper's Fig. 11 hotspot discussion is about.
// Returns 0 for fewer than two sensor nodes or an all-zero load.
func Gini(load []float64) float64 {
	if len(load) < 3 { // base station + at least 2 sensors
		return 0
	}
	sorted := append([]float64(nil), load[1:]...)
	sort.Float64s(sorted)
	n := len(sorted)
	var sum, weighted float64
	for i, v := range sorted {
		sum += v
		weighted += float64(i+1) * v
	}
	if sum <= 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*sum) / (float64(n) * sum)
}

// LoadByDescendants bins per-node transmitted packets by the node's
// descendant count in the routing tree; used for Fig. 11-style series.
// desc[i] is the number of descendants of node i; boundaries are the
// inclusive upper edges of the bins. Nodes whose descendant count
// exceeds the last boundary land in a trailing overflow bin — the
// returned slices have len(boundaries)+1 entries — instead of silently
// vanishing from every series.
func LoadByDescendants(perNode []int64, desc []int, boundaries []int) (mean []float64, count []int) {
	nbins := len(boundaries) + 1
	mean = make([]float64, nbins)
	count = make([]int, nbins)
	sums := make([]float64, nbins)
	for i := 1; i < len(perNode); i++ { // skip base station
		b := len(boundaries) // overflow bin
		for j, up := range boundaries {
			if desc[i] <= up {
				b = j
				break
			}
		}
		sums[b] += float64(perNode[i])
		count[b]++
	}
	for b := range sums {
		if count[b] > 0 {
			mean[b] = sums[b] / float64(count[b])
		}
	}
	return mean, count
}
