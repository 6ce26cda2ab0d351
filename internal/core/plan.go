package core

import (
	"fmt"
	"sort"
	"sync"

	"sensjoin/internal/quadtree"
	"sensjoin/internal/query"
	"sensjoin/internal/relation"
	"sensjoin/internal/topology"
	"sensjoin/internal/zorder"
)

// nodeData is the per-node view of one execution: which aliases the node
// contributes to, its sensor values, its quantized join-attribute key,
// and the wire size of its complete (shipped) tuple.
type nodeData struct {
	// flags has bit zorder.FlagFor(i, nAliases) set when the node
	// belongs to FROM entry i and passes its local predicates.
	flags uint64
	// vals maps attribute names to the sampled values (shipped and
	// join attributes).
	vals map[string]float64
	// key is the quantized join-attribute tuple (valid when flags != 0
	// and the query has join attributes).
	key zorder.Key
	// tupleBytes is the wire size of the node's complete tuple
	// restricted to the query's shipped attributes.
	tupleBytes int
}

// plan is the global, per-execution view shared by the join engines.
type plan struct {
	x    *Exec
	grid *zorder.Grid
	// dims lists the join-attribute dimension names in grid order.
	dims []string
	// dimIndex maps a dimension name to its grid index.
	dimIndex map[string]int
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

// buildPlan samples the snapshot (each sensor read exactly once, §IV-D)
// and derives every node's flags, key and tuple size.
func buildPlan(x *Exec) (*plan, error) {
	n := len(x.Query.From)
	a := x.Analysis

	// Join-attribute dimensions: the union of join-attribute names over
	// all FROM entries, quantized per the first schema defining them.
	var dims []zorder.Dim
	dimIndex := make(map[string]int)
	var dimNames []string
	nameSet := make(map[string]bool)
	for i := range x.Query.From {
		for _, name := range a.JoinAttrs[i] {
			nameSet[name] = true
		}
	}
	for name := range nameSet {
		dimNames = append(dimNames, name)
	}
	sort.Strings(dimNames)
	for _, name := range dimNames {
		def, err := findAttrDef(x, name)
		if err != nil {
			return nil, err
		}
		d, err := zorder.NewDim(name, def.Min, def.Max, def.Res)
		if err != nil {
			return nil, err
		}
		dimIndex[name] = len(dims)
		dims = append(dims, d)
	}
	var grid *zorder.Grid
	if len(dims) > 0 {
		var err error
		grid, err = zorder.NewGrid(n, dims)
		if err != nil {
			return nil, err
		}
	}

	p := &plan{
		x:              x,
		grid:           grid,
		dims:           dimNames,
		dimIndex:       dimIndex,
		nodes:          make([]*nodeData, x.Dep.N()),
		shippedByFlags: make(map[uint64][]string),
		rawTupleBytes:  relation.TupleBytes(len(dimNames)),
	}

	// Attributes any member node may need: shipped plus join attrs.
	needed := make(map[string]bool)
	for i := range x.Query.From {
		for _, name := range a.ShippedAttrs[i] {
			needed[name] = true
		}
	}
	for _, name := range dimNames {
		needed[name] = true
	}

	// fill samples one node; it writes only p.nodes[id] and reports
	// whether the node is a member. All reads (environment, catalog,
	// predicates, the pre-warmed shipped cache) are concurrency-safe, so
	// disjoint id ranges can run in parallel.
	fill := func(id int) (bool, error) {
		nid := topology.NodeID(id)
		if x.Net != nil && !x.Net.Alive(nid) {
			return false, nil // a dead node contributes no tuple
		}
		var flags uint64
		vals := make(map[string]float64, len(needed))
		read := func(name string) float64 {
			v, ok := vals[name]
			if !ok {
				v = x.Env.Read(name, x.Dep.Pos[id], x.Time)
				vals[name] = v
			}
			return v
		}
		for i, ref := range x.Query.From {
			if x.Member != nil && !x.Member(nid, ref.Relation) {
				continue
			}
			if _, err := x.Catalog.Lookup(ref.Relation); err != nil {
				return false, err
			}
			pred := a.LocalPredicate(i)
			if pred != nil {
				env := query.SingleEnv{Rel: i, Lookup: read}
				if !pred.Eval(env) {
					continue
				}
			}
			flags |= zorder.FlagFor(i, n)
		}
		if flags == 0 {
			return false, nil
		}
		for name := range needed {
			read(name)
		}
		nd := &nodeData{flags: flags, vals: vals}
		if grid != nil {
			joinVals := make([]float64, len(dimNames))
			for j, name := range dimNames {
				joinVals[j] = vals[name]
			}
			nd.key = grid.Encode(flags, joinVals)
		}
		nd.tupleBytes = relation.TupleBytes(len(p.shipped(flags)))
		p.nodes[id] = nd
		return true, nil
	}

	total := x.Dep.N()
	workers := x.Workers
	// Membership callbacks are arbitrary user code with no thread-safety
	// contract, so they force the sequential path.
	if workers > 1 && total >= 4096 && n <= 8 && x.Member == nil {
		// Pre-warm the shipped cache for every possible mask: the
		// parallel workers then only read it.
		for mask := uint64(1); mask < uint64(1)<<n; mask++ {
			p.shipped(mask)
		}
		chunk := (total - 1 + workers - 1) / workers
		counts := make([]int, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := 1 + w*chunk
			hi := lo + chunk
			if lo > total {
				lo = total
			}
			if hi > total {
				hi = total
			}
			wg.Add(1)
			go func(w, lo, hi int) {
				defer wg.Done()
				for id := lo; id < hi; id++ {
					member, err := fill(id)
					if err != nil {
						errs[w] = err
						return
					}
					if member {
						counts[w]++
					}
				}
			}(w, lo, hi)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			if errs[w] != nil {
				return nil, errs[w]
			}
			p.members += counts[w]
		}
		return p, nil
	}
	for id := 1; id < total; id++ {
		member, err := fill(id)
		if err != nil {
			return nil, err
		}
		if member {
			p.members++
		}
	}
	return p, nil
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
	return finalTuple{node: id, flags: nd.flags, vals: nd.vals, bytes: nd.tupleBytes}
}

// finalTuple is a complete tuple in flight to the base station. Only
// bytes is wire-visible; the rest is simulator-side content.
type finalTuple struct {
	node  topology.NodeID
	flags uint64
	vals  map[string]float64
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
