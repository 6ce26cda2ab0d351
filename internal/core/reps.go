package core

import (
	"encoding/binary"
	"fmt"

	"sensjoin/internal/compress"
	"sensjoin/internal/quadtree"
	"sensjoin/internal/zorder"
)

// Rep determines how join-attribute tuples are represented on the wire
// during the pre-computation (paper §V). The default is the quadtree;
// RawRep is the SENS_No-Quad baseline of Fig. 16; CompressedRep wraps a
// general-purpose compressor for the §VI-B comparison.
type Rep interface {
	// Name identifies the representation in experiment output.
	Name() string
	// SetBytes returns the wire size of a set of join-attribute keys
	// (used for the filter and for the Selective-Filter-Forwarding
	// memory bound).
	SetBytes(p *plan, keys []zorder.Key) int
	// PayloadBytes returns the wire size of a Join-Attribute-Collection
	// payload: the key set plus, for multiset representations, the raw
	// tuple stream it stands for.
	PayloadBytes(p *plan, pl *jaPayload) int
}

// jaPayload is the in-flight content of a Join-Attribute-Collection
// message.
type jaPayload struct {
	// keys is the deduplicated key set (the quadtree's content).
	keys []zorder.Key
	// rawCount is the number of join-attribute tuples the payload
	// represents including duplicates (what the raw baseline ships).
	rawCount int
	// covered counts the member nodes this payload covers; it is
	// simulator-side observability (failure detection), not wire data.
	covered int
	// needFull asks the parent to transmit a full filter this round
	// (incremental mode resynchronization); it rides in the header.
	needFull bool
}

// QuadRep is the paper's quadtree representation.
type QuadRep struct{}

// Name implements Rep.
func (QuadRep) Name() string { return "quadtree" }

// SetBytes implements Rep.
func (QuadRep) SetBytes(p *plan, keys []zorder.Key) int {
	return p.codec().Size(keys)
}

// PayloadBytes implements Rep.
func (q QuadRep) PayloadBytes(p *plan, pl *jaPayload) int {
	return q.SetBytes(p, pl.keys)
}

// RawRep ships join-attribute tuples as plain values, two bytes per
// attribute, without deduplication: the SENS_No-Quad baseline.
type RawRep struct{}

// Name implements Rep.
func (RawRep) Name() string { return "raw" }

// SetBytes implements Rep.
func (RawRep) SetBytes(p *plan, keys []zorder.Key) int {
	return len(keys) * p.rawTupleBytes
}

// PayloadBytes implements Rep.
func (RawRep) PayloadBytes(p *plan, pl *jaPayload) int {
	return pl.rawCount * p.rawTupleBytes
}

// CompressedRep runs a general-purpose compressor over the raw tuple
// stream at every forwarding node (decompress children, concatenate,
// recompress — the repeated work the paper's §V-D argues against).
type CompressedRep struct {
	Codec compress.Codec
}

// Name implements Rep.
func (c CompressedRep) Name() string { return c.Codec.Name() }

// SetBytes implements Rep.
func (c CompressedRep) SetBytes(p *plan, keys []zorder.Key) int {
	return len(c.Codec.Compress(rawKeyBytes(p, keys, len(keys))))
}

// PayloadBytes implements Rep.
func (c CompressedRep) PayloadBytes(p *plan, pl *jaPayload) int {
	return len(c.Codec.Compress(rawKeyBytes(p, pl.keys, pl.rawCount)))
}

// rawKeyBytes materializes the raw wire image of a tuple stream: per
// tuple, each dimension's cell coordinate as a 2-byte little-endian
// value (the native fixed-point form a sensor ADC reports). count >
// len(keys) repeats keys round-robin to model duplicates.
func rawKeyBytes(p *plan, keys []zorder.Key, count int) []byte {
	if len(keys) == 0 || count <= 0 {
		return nil
	}
	out := make([]byte, 0, count*p.rawTupleBytes)
	for i := 0; i < count; i++ {
		k := keys[i%len(keys)]
		_, coords := p.grid.Deinterleave(k)
		for _, c := range coords {
			out = binary.LittleEndian.AppendUint16(out, uint16(c))
		}
	}
	return out
}

// codec returns the quadtree codec for the plan's grid, built lazily.
func (p *plan) codec() *quadtree.Codec {
	if p.qt == nil {
		c, err := quadtree.NewCodec(p.grid.Levels())
		if err != nil {
			panic(fmt.Sprintf("core: grid produced an invalid level schedule: %v", err))
		}
		p.qt = c
	}
	return p.qt
}
