package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"sensjoin/internal/core"
	"sensjoin/pkg/client"
)

// table is a result in canonical form: rows sorted by the bit patterns
// of their values, so two tables are equal exactly when they hold the
// same bytes in some order (the normalization X9 applies).
type table struct {
	cols     []string
	contrib  int
	members  int
	complete bool
	rows     [][]float64
}

func canon(t table) table {
	sort.Slice(t.rows, func(i, j int) bool { return rowLess(t.rows[i], t.rows[j]) })
	return t
}

func rowLess(a, b []float64) bool {
	for k := 0; k < len(a) && k < len(b); k++ {
		x, y := math.Float64bits(a[k]), math.Float64bits(b[k])
		if x != y {
			return x < y
		}
	}
	return len(a) < len(b)
}

func resultTable(res *core.Result) table {
	rows := make([][]float64, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = r
	}
	return canon(table{cols: res.Columns, contrib: res.ContributingNodes,
		members: res.MemberNodes, complete: res.Complete, rows: rows})
}

func clientTable(tb *client.Table) table {
	return canon(table{cols: tb.Columns, contrib: tb.Contributing,
		members: tb.Members, complete: tb.Complete, rows: tb.Rows})
}

// diff returns "" when got equals want byte for byte, else what differs.
func (want table) diff(got table) string {
	switch {
	case !slices.Equal(want.cols, got.cols):
		return fmt.Sprintf("columns %v, want %v", got.cols, want.cols)
	case want.contrib != got.contrib || want.members != got.members:
		return fmt.Sprintf("contributing/members %d/%d, want %d/%d", got.contrib, got.members, want.contrib, want.members)
	case want.complete != got.complete:
		return fmt.Sprintf("complete=%t, want %t", got.complete, want.complete)
	case len(want.rows) != len(got.rows):
		return fmt.Sprintf("%d rows, want %d", len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		a, b := want.rows[i], got.rows[i]
		if len(a) != len(b) {
			return fmt.Sprintf("row %d has %d values, want %d", i, len(b), len(a))
		}
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				return fmt.Sprintf("row %d value %d is %v, want %v", i, k, b[k], a[k])
			}
		}
	}
	return ""
}

// digest is the SHA-256 of the table's canonical bytes: the references
// of a whole ladder are kept as digests, so the benchmark's own memory
// does not grow with the run and equal digests mean equal bytes.
type digest [sha256.Size]byte

func (t table) digest() digest {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(t.cols)))
	for _, c := range t.cols {
		put(uint64(len(c)))
		h.Write([]byte(c))
	}
	put(uint64(t.contrib))
	put(uint64(t.members))
	if t.complete {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(t.rows)))
	for _, r := range t.rows {
		put(uint64(len(r)))
		for _, v := range r {
			put(math.Float64bits(v))
		}
	}
	var d digest
	h.Sum(d[:0])
	return d
}
