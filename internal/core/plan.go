package core

import (
	"fmt"
	"sort"
	"unsafe"

	"sensjoin/internal/quadtree"
	"sensjoin/internal/query"
	"sensjoin/internal/relation"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// nodeData is the per-node view of one execution: which aliases the node
// contributes to, its quantized join-attribute key, and the wire size of
// its complete (shipped) tuple. Its readings stay in the plan's snapshot.
type nodeData struct {
	// flags has bit zorder.FlagFor(i, nAliases) set when the node
	// belongs to FROM entry i and passes its local predicates.
	flags uint64
	// key is the quantized join-attribute tuple (valid when flags != 0
	// and the query has join attributes).
	key zorder.Key
	// tupleBytes is the wire size of the node's complete tuple
	// restricted to the query's shipped attributes.
	tupleBytes int
}

// plan is the global, per-execution view shared by the join engines.
type plan struct {
	x *Exec
	// snap holds the sampled readings the plan was derived from.
	snap *readings
	grid *zorder.Grid
	// dims lists the join-attribute dimension names in grid order.
	dims []string
	// dimIndex maps a dimension name to its grid index.
	dimIndex map[string]int
	// dimCols[i] is the snapshot column of dims[i].
	dimCols [][]float64
	// nodes[id] is nil for the base station and for nodes that belong
	// to no relation.
	nodes []*nodeData
	// shippedByFlags caches the sorted attribute union per flag mask.
	shippedByFlags map[uint64][]string
	// members counts nodes with non-zero flags.
	members int
	// rawTupleBytes is the wire size of one raw (unquantized)
	// join-attribute tuple: 2 bytes per dimension.
	rawTupleBytes int
	// qt is the lazily built quadtree codec for grid.
	qt *quadtree.Codec
}

// buildPlan derives every node's flags, key and tuple size from the
// execution's snapshot, in which each sensor is read exactly once
// (§IV-D). The plan of a query on an intact network depends
// only on the query, the snapshot and the join-attribute quantization,
// so it is memoized on the snapshot and every later execution gets a
// forExec copy. A membership callback or a dead node makes the plan
// execution-specific; those build afresh from the shared columns.
func buildPlan(x *Exec) (*plan, error) {
	for _, ref := range x.Query.From {
		if _, err := x.Catalog.Lookup(ref.Relation); err != nil {
			return nil, err
		}
	}
	dimNames, dims, err := planDims(x)
	if err != nil {
		return nil, err
	}
	snap := snapshotFor(x.Env, x.Dep, x.Time)
	memo := x.Member == nil && len(x.Query.From) <= 8 &&
		(x.Net == nil || x.Net.AllAlive())
	if !memo {
		return newPlan(x, snap, dimNames, dims)
	}
	if p := snap.lookupPlan(x.prog, dims); p != nil {
		return p.forExec(x), nil
	}
	p, err := newPlan(x, snap, dimNames, dims)
	if err != nil {
		return nil, err
	}
	p.freeze()
	return snap.storePlan(x.prog, dims, p).forExec(x), nil
}

// planDims derives the join-attribute dimensions: the union of
// join-attribute names over all FROM entries, in name order, quantized
// per the first schema defining them.
func planDims(x *Exec) ([]string, []zorder.Dim, error) {
	var names []string
	seen := make(map[string]bool)
	for i := range x.Query.From {
		for _, name := range x.Analysis.JoinAttrs[i] {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	dims := make([]zorder.Dim, len(names))
	for i, name := range names {
		def, err := findAttrDef(x, name)
		if err != nil {
			return nil, nil, err
		}
		if dims[i], err = zorder.NewDim(name, def.Min, def.Max, def.Res); err != nil {
			return nil, nil, err
		}
	}
	return names, dims, nil
}

// newPlan builds a plan over snap's columns.
func newPlan(x *Exec, snap *readings, dimNames []string, dims []zorder.Dim) (*plan, error) {
	n := len(x.Query.From)
	a := x.Analysis
	var grid *zorder.Grid
	if len(dims) > 0 {
		var err error
		if grid, err = zorder.NewGrid(n, dims); err != nil {
			return nil, err
		}
	}
	total := x.Dep.N()
	p := &plan{
		x:              x,
		snap:           snap,
		grid:           grid,
		dims:           dimNames,
		dimIndex:       make(map[string]int, len(dims)),
		dimCols:        make([][]float64, len(dims)),
		nodes:          make([]*nodeData, total),
		shippedByFlags: make(map[uint64][]string),
		rawTupleBytes:  relation.TupleBytes(len(dimNames)),
	}

	// The columns any node may need: shipped, join and local-predicate
	// attributes.
	cols := make(map[string][]float64)
	need := func(name string) []float64 {
		c, ok := cols[name]
		if !ok {
			c = snap.column(name, x.Workers)
			cols[name] = c
		}
		return c
	}
	preds := make([]query.BoolExpr, n)
	for i := range x.Query.From {
		for _, name := range a.ShippedAttrs[i] {
			need(name)
		}
		if preds[i] = a.LocalPredicate(i); preds[i] != nil {
			preds[i].VisitNums(func(e query.NumExpr) {
				if at, ok := e.(query.Attr); ok {
					need(at.Ref.Name)
				}
			})
		}
	}
	for i, name := range dimNames {
		p.dimIndex[name] = i
		p.dimCols[i] = need(name)
	}
	// With at most 8 aliases, warm the shipped cache for every mask up
	// front: parallel fills and shared (memoized) plans then only read
	// it.
	if n <= 8 {
		for mask := uint64(1); mask < uint64(1)<<n; mask++ {
			p.shipped(mask)
		}
	}

	// fill derives nodes [lo, hi): it writes only their p.nodes entries
	// and returns the member count. Everything it reads is
	// concurrency-safe, so disjoint ranges can run in parallel.
	slab := make([]nodeData, total)
	fill := func(lo, hi int) int {
		members := 0
		var id int
		read := func(name string) float64 { return cols[name][id] }
		envs := make([]query.Env, n)
		for i := range envs {
			envs[i] = query.SingleEnv{Rel: i, Lookup: read}
		}
		coords := make([]uint32, len(dims))
		for id = lo; id < hi; id++ {
			nid := topology.NodeID(id)
			if x.Net != nil && !x.Net.Alive(nid) {
				continue // a dead node contributes no tuple
			}
			var flags uint64
			for i, ref := range x.Query.From {
				if x.Member != nil && !x.Member(nid, ref.Relation) {
					continue
				}
				if preds[i] != nil && !preds[i].Eval(envs[i]) {
					continue
				}
				flags |= zorder.FlagFor(i, n)
			}
			if flags == 0 {
				continue
			}
			nd := &slab[id]
			nd.flags = flags
			if grid != nil {
				for j, d := range dims {
					coords[j] = d.Cell(p.dimCols[j][id])
				}
				nd.key = grid.Interleave(flags, coords)
			}
			nd.tupleBytes = relation.TupleBytes(len(p.shipped(flags)))
			p.nodes[id] = nd
			members++
		}
		return members
	}

	// Membership callbacks are arbitrary user code with no thread-safety
	// contract, so they force the sequential path.
	workers := x.Workers
	if n > 8 || x.Member != nil {
		workers = 1
	}
	counts := make([]int, max(workers, 1))
	forChunks(1, total, workers, func(w, lo, hi int) { counts[w] = fill(lo, hi) })
	for _, c := range counts {
		p.members += c
	}
	return p, nil
}

// freeze readies p for sharing across executions: every flag mask's
// shipped set and the quadtree codec are built now, so no execution
// writes the shared plan, and the building execution is dropped.
func (p *plan) freeze() {
	if p.grid != nil {
		p.codec()
	}
	p.x = nil
}

// retainedBytes estimates the memory a memoized plan keeps alive.
func (p *plan) retainedBytes() int64 {
	return int64(len(p.nodes)) * int64(unsafe.Sizeof(uintptr(0))+unsafe.Sizeof(nodeData{}))
}

// findAttrDef locates the quantization of an attribute among the query's
// relations.
func findAttrDef(x *Exec, name string) (relation.AttrDef, error) {
	for _, ref := range x.Query.From {
		s, err := x.Catalog.Lookup(ref.Relation)
		if err != nil {
			continue
		}
		if def, err := s.Attr(name); err == nil {
			return def, nil
		}
	}
	return relation.AttrDef{}, fmt.Errorf("core: no relation of the query defines attribute %q", name)
}

// shipped returns the sorted union of shipped attributes over the aliases
// set in flags.
func (p *plan) shipped(flags uint64) []string {
	if s, ok := p.shippedByFlags[flags]; ok {
		return s
	}
	n := len(p.x.Query.From)
	set := make(map[string]bool)
	for i := 0; i < n; i++ {
		if flags&zorder.FlagFor(i, n) != 0 {
			for _, name := range p.x.Analysis.ShippedAttrs[i] {
				set[name] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	p.shippedByFlags[flags] = out
	return out
}

// tuple materializes the complete (shipped) tuple of a node for the final
// result computation.
func (p *plan) tuple(id topology.NodeID) finalTuple {
	nd := p.nodes[id]
	return finalTuple{node: id, flags: nd.flags, snap: p.snap, bytes: nd.tupleBytes}
}

// finalTuple is a complete tuple in flight to the base station. Only
// bytes is wire-visible; the rest is simulator-side content: the
// tuple's values are its node's entries in the snapshot columns.
type finalTuple struct {
	node  topology.NodeID
	flags uint64
	snap  *readings
	bytes int
}

// expandStar rewrites SELECT * into one item per attribute per FROM
// entry, qualified by alias, in schema order.
func expandStar(q *query.Query, cat relation.Catalog) error {
	if !q.Star {
		return nil
	}
	var items []query.SelectItem
	for i, ref := range q.From {
		s, err := cat.Lookup(ref.Relation)
		if err != nil {
			return err
		}
		for _, attr := range s.Attrs {
			items = append(items, query.SelectItem{
				Expr: query.Attr{Ref: query.AttrRef{Alias: ref.Alias, Name: attr.Name, Rel: i}},
			})
		}
	}
	q.Star = false
	q.Select = items
	return nil
}

// forExec returns a shallow copy of the plan bound to another execution
// context. Shared-execution cluster members share the node data (the
// compatibility key guarantees it is identical); only the query-side
// fields — analysis, join conditions, SELECT list — differ per member.
func (p *plan) forExec(x *Exec) *plan {
	c := *p
	c.x = x
	return &c
}
