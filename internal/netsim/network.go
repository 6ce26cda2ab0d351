package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"sensjoin/internal/topology"
)

// NodeID identifies a node; it mirrors topology.NodeID.
type NodeID = topology.NodeID

// BroadcastID addresses a message to all live neighbors of the sender.
const BroadcastID NodeID = -1

// RadioConfig describes the packet-level radio model.
type RadioConfig struct {
	// MaxPacket is the maximum over-the-air packet size in bytes
	// (paper default: 48; the packet-size experiment uses 124).
	MaxPacket int
	// HeaderBytes is the fixed per-packet header; payload capacity is
	// MaxPacket - HeaderBytes.
	HeaderBytes int
	// BitRate is the radio data rate in bits/s (802.15.4: 250 kbit/s).
	BitRate float64
	// PacketOverhead is the fixed per-packet channel time in seconds
	// (acquisition, synchronization); it dominates small packets, which
	// is the paper's justification for counting transmissions.
	PacketOverhead float64
}

// DefaultRadio returns the paper's default radio model.
func DefaultRadio() RadioConfig {
	return RadioConfig{MaxPacket: 48, HeaderBytes: 8, BitRate: 250_000, PacketOverhead: 0.003}
}

// Payload returns the usable bytes per packet.
func (c RadioConfig) Payload() int {
	p := c.MaxPacket - c.HeaderBytes
	if p <= 0 {
		panic(fmt.Sprintf("netsim: header %dB leaves no payload in %dB packets", c.HeaderBytes, c.MaxPacket))
	}
	return p
}

// Packets returns the number of packets needed for size payload bytes.
// A zero-size message is still one (control) packet.
func (c RadioConfig) Packets(size int) int {
	if size <= 0 {
		return 1
	}
	p := c.Payload()
	return (size + p - 1) / p
}

// AirTime returns the channel time for transmitting npackets packets
// carrying size payload bytes in total.
func (c RadioConfig) AirTime(npackets, size int) Time {
	bytes := size + npackets*c.HeaderBytes
	return float64(npackets)*c.PacketOverhead + float64(bytes*8)/c.BitRate
}

// Message is a logical protocol message. Size is its wire size in payload
// bytes; Payload carries the in-memory content for the receiving handler
// (the simulator does not re-serialize content that Size already accounts
// for).
type Message struct {
	Kind    int
	Src     NodeID
	Dst     NodeID // BroadcastID for local broadcast
	Phase   string // accounting label
	Size    int    // payload bytes on the wire
	Payload any
}

// Accountant observes transmissions and receptions. The stats package
// provides the standard implementation.
type Accountant interface {
	OnTx(node NodeID, phase string, packets, bytes int)
	OnRx(node NodeID, phase string, packets, bytes int)
}

// Handler processes messages delivered to a node.
type Handler func(m Message)

// Network delivers messages between neighboring nodes over a broadcast
// medium, charging transmissions to an Accountant.
type Network struct {
	Sim   *Sim
	Radio RadioConfig
	Dep   *topology.Deployment

	handlers []Handler
	acct     Accountant
	down     map[linkKey]bool
	dead     []bool
	// deadCount is the number of set entries in dead.
	deadCount int

	lossRate float64
	lossRNG  *rand.Rand
	linkLoss map[Link]*linkLossState
	tracer   Tracer

	// Reliable-unicast mode (see reliable.go).
	reliable  bool
	rcfg      ReliableConfig
	exhausted map[Link]int
	giveUp    func(m Message, attempts int)
	// msgSeq numbers transmissions per sender; trace events of one
	// logical message share its MsgID, which is what lets an audit match
	// each reception, drop or loss back to the transmission that caused
	// it. The counters are per sender — and the sender is packed into
	// the id — so a node's ids depend only on its own sends, never on how
	// same-time events at other nodes interleave.
	msgSeq []int64
	// free is the delivery freelist: in-flight message state is pooled
	// so that the send/deliver path performs zero allocations per event
	// once warm (guarded by TestSendDeliverZeroAllocs).
	free []*delivery

	// met holds nil-safe live instruments; the zero value disables them
	// at the cost of one branch per call site.
	met NetMetrics

	// Dropped counts unicast messages that could not be delivered
	// because the link was down or the receiver dead.
	Dropped int
	// Lost counts messages dropped by the probabilistic loss model.
	Lost int
	// Retx counts reliable-transport retransmission attempts.
	Retx int
	// AckTx counts acknowledgements transmitted by reliable receivers.
	AckTx int
	// Dups counts duplicate deliveries the reliable transport suppressed.
	Dups int
	// GiveUps counts reliable transfers that exhausted their
	// retransmission budget.
	GiveUps int
}

// SetLossRate enables per-packet Bernoulli loss: each packet of a
// message is lost independently with the given probability, and a
// message is delivered only if all its packets survive (there is no
// link-layer ARQ; the paper's §IV-F recovery re-executes the query
// instead). Transmissions are still charged in full — the sender cannot
// know. Loss draws are deterministic for the seed.
func (n *Network) SetLossRate(rate float64, seed int64) {
	if rate <= 0 {
		n.lossRate, n.lossRNG = 0, nil
		return
	}
	n.lossRate = rate
	n.lossRNG = rand.New(rand.NewSource(seed))
}

type linkKey struct{ a, b NodeID }

func mkLink(a, b NodeID) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

// NewNetwork wires a deployment to a simulator.
func NewNetwork(sim *Sim, dep *topology.Deployment, radio RadioConfig, acct Accountant) *Network {
	_ = radio.Payload() // validate
	return &Network{
		Sim:      sim,
		Radio:    radio,
		Dep:      dep,
		handlers: make([]Handler, dep.N()),
		acct:     acct,
		down:     make(map[linkKey]bool),
		dead:     make([]bool, dep.N()),
		msgSeq:   make([]int64, dep.N()),
	}
}

// nextMsgID returns a fresh message id for a transmission by src: the
// sender packed with its per-sender counter. Zero never occurs, so zero
// still means "untraced".
func (n *Network) nextMsgID(src NodeID) int64 {
	n.msgSeq[src]++
	return (int64(src)+1)<<32 | n.msgSeq[src]
}

// SetHandler installs the message handler for node id.
func (n *Network) SetHandler(id NodeID, h Handler) { n.handlers[id] = h }

// TraceEvent is one radio-level event. Timestamps are true simulated
// times: a "tx" carries the send instant, an "rx" the instant after air
// time at which the receiver actually gets the message. "drop" marks a
// delivery that failed (link down, receiver dead — including a receiver
// that died while the message was in flight) and "lost" a message
// removed by the probabilistic loss model. All events of one logical
// message share its MsgID.
type TraceEvent struct {
	// Event is "tx", "rx", "drop" or "lost".
	Event string
	// At is the simulated time of the event in seconds.
	At Time
	// MsgID identifies the transmission this event belongs to.
	MsgID int64
	// Src and Dst are sender and receiver; on a broadcast "tx" Dst is
	// BroadcastID while the per-receiver outcome events carry the
	// concrete receiver.
	Src, Dst NodeID
	// Kind, Phase, Bytes mirror the message.
	Kind  int
	Phase string
	Bytes int
	// Packets is the packet count the radio model charges.
	Packets int
	// Expect is set on "tx" events only: the number of receivers the
	// medium attempts delivery to (link-OK neighbors for a broadcast, 1
	// for any unicast). Conservation audits check that every
	// transmission's outcome events (rx + drop + lost) add up to it.
	Expect int
	// Attempt is the reliable transport's transmission attempt (0 for
	// the first transmission; best-effort events are always 0).
	Attempt int
	// Logical groups all attempts and ACKs of one reliable transfer: it
	// is the MsgID of the first attempt. Zero on best-effort events.
	Logical int64
	// Dup marks a reception the reliable transport suppressed as a
	// duplicate (the handler did not run again).
	Dup bool
	// Ack marks events of link-layer acknowledgements.
	Ack bool
}

// Tracer observes every transmission (once) and per-receiver outcome.
type Tracer func(ev TraceEvent)

// SetTracer installs a radio observer; nil disables tracing. The
// zero-trace send/deliver path stays allocation-free.
func (n *Network) SetTracer(t Tracer) { n.tracer = t }

// trace records a radio event stamped with the current simulated time.
func (n *Network) trace(event string, m Message, packets int, msgID int64, expect int) {
	if n.tracer == nil {
		return
	}
	n.tracer(TraceEvent{
		Event: event, At: n.Sim.Now(), MsgID: msgID,
		Src: m.Src, Dst: m.Dst, Kind: m.Kind, Phase: m.Phase,
		Bytes: m.Size, Packets: packets, Expect: expect,
	})
}

// SetAccountant replaces the transmission observer.
func (n *Network) SetAccountant(a Accountant) { n.acct = a }

// LinkDown forces the link between a and b to fail (both directions).
func (n *Network) LinkDown(a, b NodeID) { n.down[mkLink(a, b)] = true }

// LinkUp restores the link between a and b.
func (n *Network) LinkUp(a, b NodeID) { delete(n.down, mkLink(a, b)) }

// LinkOK reports whether a and b are neighbors with a live link.
func (n *Network) LinkOK(a, b NodeID) bool {
	if n.dead[a] || n.dead[b] {
		return false
	}
	if n.down[mkLink(a, b)] {
		return false
	}
	return n.Dep.IsNeighbor(a, b)
}

// KillNode takes node id offline entirely.
func (n *Network) KillNode(id NodeID) {
	if !n.dead[id] {
		n.dead[id] = true
		n.deadCount++
	}
}

// ReviveNode brings node id back online.
func (n *Network) ReviveNode(id NodeID) {
	if n.dead[id] {
		n.dead[id] = false
		n.deadCount--
	}
}

// Alive reports whether node id is online.
func (n *Network) Alive(id NodeID) bool { return !n.dead[id] }

// AllAlive reports whether no node is dead, in O(1).
func (n *Network) AllAlive() bool { return n.deadCount == 0 }

// Send transmits m. For unicast the receiver must be a live neighbor;
// otherwise the message is counted as transmitted (the sender cannot know)
// but dropped. For broadcast every live neighbor receives it. The
// transmission is charged to the source; delivery happens after air time.
func (n *Network) Send(m Message) {
	if n.dead[m.Src] {
		return
	}
	if n.reliable && m.Dst != BroadcastID {
		n.sendReliable(m)
		return
	}
	packets := n.Radio.Packets(m.Size)
	if n.acct != nil {
		n.acct.OnTx(m.Src, m.Phase, packets, m.Size)
	}
	n.met.Tx.Add(int64(packets))
	// Message ids exist for the tracer; untraced runs skip the counter so
	// the send path stays branch-cheap.
	var msgID int64
	if n.tracer != nil {
		msgID = n.nextMsgID(m.Src)
	}
	at := n.Sim.Now() + n.Radio.AirTime(packets, m.Size)
	if m.Dst == BroadcastID {
		if n.tracer != nil {
			expect := 0
			for _, v := range n.Dep.Neighbors[m.Src] {
				if n.LinkOK(m.Src, v) {
					expect++
				}
			}
			n.trace("tx", m, packets, msgID, expect)
		}
		if n.lossRNG == nil && len(n.down) == 0 {
			// Fast path: every v comes from the sender's neighbor list, no
			// links are down and nothing can be lost, so LinkOK reduces to
			// the receiver being alive — O(deg) instead of the O(deg²)
			// per-neighbor membership scan.
			for _, v := range n.Dep.Neighbors[m.Src] {
				if n.dead[v] {
					continue
				}
				n.deliver(m, v, packets, at, msgID)
			}
			return
		}
		for _, v := range n.Dep.Neighbors[m.Src] {
			if !n.LinkOK(m.Src, v) {
				continue
			}
			if n.lostOn(m.Src, v, packets) {
				n.Lost++
				n.met.Lost.Inc()
				mm := m
				mm.Dst = v
				n.trace("lost", mm, packets, msgID, 0)
				continue
			}
			n.deliver(m, v, packets, at, msgID)
		}
		return
	}
	n.trace("tx", m, packets, msgID, 1)
	if !n.LinkOK(m.Src, m.Dst) {
		n.Dropped++
		n.met.Drop.Inc()
		n.trace("drop", m, packets, msgID, 0)
		return
	}
	if n.lostOn(m.Src, m.Dst, packets) {
		n.Lost++
		n.met.Lost.Inc()
		n.trace("lost", m, packets, msgID, 0)
		return
	}
	n.deliver(m, m.Dst, packets, at, msgID)
}

// delivery is pooled in-flight message state. Binding run to the
// deliver method once per pool object lets Schedule take a plain func()
// without allocating a fresh closure per message.
type delivery struct {
	n       *Network
	m       Message
	packets int
	msgID   int64
	run     func()
}

func (n *Network) getDelivery() *delivery {
	if k := len(n.free); k > 0 {
		d := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return d
	}
	d := &delivery{n: n}
	d.run = d.deliver
	return d
}

// deliver fires at the scheduled delivery instant: reception accounting,
// the rx trace event and the handler all happen after air time, and a
// node that died while the message was in flight is charged nothing.
func (d *delivery) deliver() {
	n, m, packets, msgID := d.n, d.m, d.packets, d.msgID
	d.m = Message{} // release the payload reference
	n.free = append(n.free, d)
	to := m.Dst
	if n.dead[to] {
		n.Dropped++
		n.met.Drop.Inc()
		n.trace("drop", m, packets, msgID, 0)
		return
	}
	if n.acct != nil {
		n.acct.OnRx(to, m.Phase, packets, m.Size)
	}
	n.met.Rx.Add(int64(packets))
	n.trace("rx", m, packets, msgID, 0)
	if h := n.handlers[to]; h != nil {
		h(m)
	}
}

func (n *Network) deliver(m Message, to NodeID, packets int, at Time, msgID int64) {
	d := n.getDelivery()
	d.m = m
	d.m.Dst = to
	d.packets = packets
	d.msgID = msgID
	n.Sim.Schedule(at, d.run)
}

// N returns the node count including the base station.
func (n *Network) N() int { return n.Dep.N() }

// LiveNeighbors returns the neighbor lists restricted to live links and
// live nodes — the graph a repaired routing tree forms over.
func (n *Network) LiveNeighbors() [][]NodeID {
	out := make([][]NodeID, n.N())
	for i := range out {
		if n.dead[i] {
			continue
		}
		for _, v := range n.Dep.Neighbors[i] {
			if n.LinkOK(NodeID(i), v) {
				out[i] = append(out[i], v)
			}
		}
	}
	return out
}

// MaxAirTime returns an upper bound on the air time of any single message
// of up to size bytes; protocol schedulers use it to size slots.
func (n *Network) MaxAirTime(size int) Time {
	p := n.Radio.Packets(size)
	return n.Radio.AirTime(p, size) + 1e-6
}

// SlotFor returns a conservative slot duration for forwarding size bytes,
// rounded up to a millisecond multiple for readability of traces. With
// reliable transport enabled the slot covers the worst-case transfer —
// every retransmission attempt, its ACK wait and backoff — so slotted
// protocol schedules stay valid under loss.
func (n *Network) SlotFor(size int) Time {
	t := n.MaxAirTime(size)
	if n.reliable {
		ackAir := n.Radio.AirTime(n.Radio.Packets(n.rcfg.AckBytes), n.rcfg.AckBytes) + 1e-6
		total := Time(0)
		for a := 0; a <= n.rcfg.MaxRetries; a++ {
			total += t + ackAir + n.rcfg.backoff(a)
		}
		t = total
	}
	return math.Ceil(t*1000) / 1000
}
