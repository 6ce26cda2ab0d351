package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"sensjoin/internal/field"
	"sensjoin/internal/metrics"
	"sensjoin/internal/topology"
)

// snapshotTimes mixes the suite's usual instants with drifted and
// negative ones and a -0 (its own snapshot: the noise hashes t's bits).
var snapshotTimes = []float64{0, math.Copysign(0, -1), 17.25, 3600, -90, 1e6}

// Every snapshot column must equal a direct Env.Read bit for bit, for
// plain fields, the coupled hum/pres, and the location attributes, on
// both environments, sequential and parallel fills.
func TestSnapshotColumnsMatchDirectRead(t *testing.T) {
	small := testRunner(t, 300, 41)
	large, err := NewRunner(SetupConfig{Nodes: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	attrs := []string{"temp", "hum", "pres", "light", "x", "y"}
	for _, r := range []*Runner{small, large} {
		envs := map[string]*field.Environment{
			"standard": r.Env,
			"quiet":    field.QuietEnvironment(r.Dep.Area, 1042),
		}
		for envName, env := range envs {
			for _, tm := range snapshotTimes {
				snap := snapshotFor(env, r.Dep, tm)
				for _, name := range attrs {
					col := snap.column(name, 4)
					if len(col) != r.Dep.N() {
						t.Fatalf("%s %s t=%g: column has %d entries, want %d", envName, name, tm, len(col), r.Dep.N())
					}
					for id, got := range col {
						want := env.Read(name, r.Dep.Pos[id], tm)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s %s t=%g node %d: column %v, Env.Read %v", envName, name, tm, id, got, want)
						}
					}
				}
			}
		}
	}
}

// Equal (environment, deployment, t) share one snapshot; any difference
// in the three — including the sign of a zero t — does not.
func TestSnapshotSharedPerEnvDeploymentTime(t *testing.T) {
	a := testRunner(t, 120, 43)
	b := testRunner(t, 120, 43) // same config: shared deployment
	if a.Dep != b.Dep {
		t.Fatal("runners on one config must share the deployment")
	}
	if snapshotFor(a.Env, a.Dep, 30) != snapshotFor(b.Env, b.Dep, 30) {
		t.Fatal("pooled runners must share a snapshot")
	}
	if snapshotFor(a.Env, a.Dep, 0) == snapshotFor(a.Env, a.Dep, math.Copysign(0, -1)) {
		t.Fatal("t = +0 and t = -0 read different noise and must not share")
	}
	quiet := field.QuietEnvironment(a.Dep.Area, 1043)
	if snapshotFor(a.Env, a.Dep, 30) == snapshotFor(quiet, a.Dep, 30) {
		t.Fatal("different environments must not share")
	}
	c := testRunner(t, 120, 44)
	if snapshotFor(a.Env, a.Dep, 30) == snapshotFor(a.Env, c.Dep, 30) {
		t.Fatal("different deployments must not share")
	}
}

// planQueries are the X9 serving families and the Ratio33 presets at
// several selectivities (the workload package's Build renders the same
// text), plus a local-predicate and a three-way join.
var planQueries = []string{
	`SELECT A.temp, B.hum FROM Sensors A, Sensors B WHERE A.temp - B.temp > 5.0 ONCE`,
	`SELECT A.temp FROM Sensors A, Sensors B WHERE A.temp = B.temp AND A.hum < 70 ONCE`,
	`SELECT MIN(distance(A.x, A.y, B.x, B.y)) FROM Sensors A, Sensors B WHERE A.temp - B.temp > 6.0 ONCE`,
	`SELECT * FROM Sensors A, Sensors B WHERE A.temp - B.temp > 7.0 AND A.pres < 1015 ONCE`,
	ratio33(0.5), ratio33(4), ratio33(9.25),
	`SELECT A.temp, B.temp, C.light FROM Sensors A, Sensors B, Sensors C WHERE A.temp - B.temp > 6 AND abs(B.hum - C.hum) < 1 AND C.light > 450 ONCE`,
}

func ratio33(delta float64) string {
	return fmt.Sprintf("SELECT A.temp, B.temp, A.hum, B.hum, A.pres, B.pres FROM Sensors A, Sensors B WHERE A.temp - B.temp > %g ONCE", delta)
}

// freshPlan builds x's plan the unshared way: a private, uncached
// snapshot and no memo.
func freshPlan(t *testing.T, x *Exec) *plan {
	t.Helper()
	names, dims, err := planDims(x)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPlan(x, newReadings(x.Env, x.Dep.Pos, x.Time), names, dims)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// samePlan fails unless a and b agree on everything the join methods
// read: dimensions, members, every node's flags, key and tuple size,
// and the shipped set of every flag mask.
func samePlan(t *testing.T, label string, a, b *plan) {
	t.Helper()
	if strings.Join(a.dims, ",") != strings.Join(b.dims, ",") || a.members != b.members ||
		a.rawTupleBytes != b.rawTupleBytes || len(a.nodes) != len(b.nodes) {
		t.Fatalf("%s: dims %v/%v members %d/%d raw %d/%d nodes %d/%d", label,
			a.dims, b.dims, a.members, b.members, a.rawTupleBytes, b.rawTupleBytes, len(a.nodes), len(b.nodes))
	}
	for id := range a.nodes {
		na, nb := a.nodes[id], b.nodes[id]
		if (na == nil) != (nb == nil) {
			t.Fatalf("%s: node %d membership differs", label, id)
		}
		if na != nil && *na != *nb {
			t.Fatalf("%s: node %d: %+v vs %+v", label, id, *na, *nb)
		}
	}
	n := len(a.x.Query.From)
	for mask := uint64(1); mask < uint64(1)<<n; mask++ {
		if fmt.Sprint(a.shipped(mask)) != fmt.Sprint(b.shipped(mask)) {
			t.Fatalf("%s: shipped(%b) %v vs %v", label, mask, a.shipped(mask), b.shipped(mask))
		}
	}
}

// exactRows renders rows bit-exactly in sorted order: the methods
// deliver tuples in different orders, so row order may differ.
func exactRows(rows []Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%x", []float64(r))
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// A memoized plan — built once, then served to a second runner on the
// same snapshot — must equal a fresh, unshared build, and must be a
// per-execution copy over shared node data.
func TestPlanMemoMatchesFreshBuild(t *testing.T) {
	a := testRunner(t, 250, 45)
	b := testRunner(t, 250, 45)
	for _, src := range planQueries {
		prep, err := Prepare(a.Catalog, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, tm := range []float64{0, 45} {
			xa, _ := a.ExecPrepared(prep, tm)
			xb, _ := b.ExecPrepared(prep, tm)
			pa, err := buildPlan(xa)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := buildPlan(xb)
			if err != nil {
				t.Fatal(err)
			}
			if pa.x != xa || pb.x != xb {
				t.Fatalf("%s: a memoized plan must be bound to its own execution", src)
			}
			if &pa.nodes[0] != &pb.nodes[0] {
				t.Fatalf("%s t=%g: the second execution did not reuse the memoized plan", src, tm)
			}
			label := fmt.Sprintf("%s t=%g", src, tm)
			samePlan(t, label, pb, freshPlan(t, xb))
			// ExecSQL prepares its text afresh, so its plan is memoized
			// under its own program and must agree.
			xs, err := a.ExecSQL(src, tm)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := buildPlan(xs)
			if err != nil {
				t.Fatal(err)
			}
			samePlan(t, label+" (ExecSQL)", ps, pa)
		}
	}
}

// A dead node makes the plan execution-specific: killing one between
// two runs must bypass the memo, leave the memo untouched, and still
// give the oracle's answer; reviving it must return to the memo.
func TestPlanMemoBypassedWhileNodeDead(t *testing.T) {
	r := testRunner(t, 200, 46)
	src := planQueries[0]
	prep, err := r.Prepare(src)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := r.ExecPrepared(prep, 0)
	memo, err := buildPlan(x)
	if err != nil {
		t.Fatal(err)
	}
	victim := topology.NodeID(-1)
	for id := range memo.nodes {
		// A leaf: its death loses no other node's tuple.
		if memo.nodes[id] != nil && len(r.Tree.Children[id]) == 0 {
			victim = topology.NodeID(id)
			break
		}
	}
	if victim < 0 {
		t.Fatal("no member node to kill")
	}
	before, err := r.RunPrepared(prep, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}

	r.Net.KillNode(victim)
	x, _ = r.ExecPrepared(prep, 0)
	p, err := buildPlan(x)
	if err != nil {
		t.Fatal(err)
	}
	if &p.nodes[0] == &memo.nodes[0] || p.nodes[victim] != nil || p.members != memo.members-1 {
		t.Fatalf("dead node %d: memo not bypassed (members %d, memo %d)", victim, p.members, memo.members)
	}
	if memo.nodes[victim] == nil {
		t.Fatal("the bypass wrote into the memoized plan")
	}
	samePlan(t, "dead node", p, freshPlan(t, x))
	got, err := r.RunPrepared(prep, External{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	x, _ = r.ExecPrepared(prep, 0)
	want, err := GroundTruth(x)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got.Rows, want.Rows, "external join, node dead", "ground truth")
	if got.MemberNodes != want.MemberNodes || got.ContributingNodes != want.ContributingNodes {
		t.Fatalf("node dead: members/contrib %d/%d, oracle %d/%d",
			got.MemberNodes, got.ContributingNodes, want.MemberNodes, want.ContributingNodes)
	}

	r.Net.ReviveNode(victim)
	x, _ = r.ExecPrepared(prep, 0)
	if p, err = buildPlan(x); err != nil {
		t.Fatal(err)
	}
	if &p.nodes[0] != &memo.nodes[0] {
		t.Fatal("after the revival the memo must serve again")
	}
	after, err := r.RunPrepared(prep, NewSENSJoin(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, after.Rows, before.Rows, "after revival", "before the kill")
}

// A membership callback also bypasses the memo.
func TestPlanMemoBypassedWithMembership(t *testing.T) {
	r := testRunner(t, 150, 47)
	prep, err := r.Prepare(planQueries[1])
	if err != nil {
		t.Fatal(err)
	}
	x, _ := r.ExecPrepared(prep, 0)
	memo, err := buildPlan(x)
	if err != nil {
		t.Fatal(err)
	}
	r.Member = func(id topology.NodeID, _ string) bool { return id%2 == 0 }
	x, _ = r.ExecPrepared(prep, 0)
	p, err := buildPlan(x)
	if err != nil {
		t.Fatal(err)
	}
	if &p.nodes[0] == &memo.nodes[0] {
		t.Fatal("a membership callback must bypass the memo")
	}
	for id, nd := range p.nodes {
		if nd != nil && id%2 != 0 {
			t.Fatalf("node %d is not a member but has a tuple", id)
		}
	}
	samePlan(t, "membership", p, freshPlan(t, x))
}

// Pooled runners on one deployment run RunPrepared concurrently at one
// t: they share the snapshot, its columns and the memoized plans, and
// every result must equal the sequential one. Run with -race.
func TestSnapshotPreparedConcurrentRunners(t *testing.T) {
	const workers, rounds = 6, 8
	srcs := planQueries[:4]
	ref := testRunner(t, 180, 48)
	resetSnapshots() // start cold so the racing runners build the memo
	preps := make([]*Prepared, len(srcs))
	want := make([]*Result, len(srcs))
	for i, src := range srcs {
		var err error
		if preps[i], err = ref.Prepare(src); err != nil {
			t.Fatal(err)
		}
		x, err := ref.ExecSQL(src, 30)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = GroundTruth(x); err != nil {
			t.Fatal(err)
		}
	}
	resetSnapshots()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r, err := NewRunner(SetupConfig{Nodes: 180, Seed: 48})
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < rounds; k++ {
				i := (w + k) % len(srcs)
				var m Method = NewSENSJoin()
				if k%2 == 1 {
					m = External{}
				}
				res, err := r.RunPrepared(preps[i], m, 30)
				if err != nil {
					errs <- err
					return
				}
				if exactRows(res.Rows) != exactRows(want[i].Rows) ||
					res.ContributingNodes != want[i].ContributingNodes || res.MemberNodes != want[i].MemberNodes {
					errs <- fmt.Errorf("worker %d, %s via %s: result differs from the oracle", w, srcs[i], m.Name())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Ten thousand distinct t through one runner must keep the cache within
// its bounds, evicting as it goes, and ResetSetupCache must empty it.
func TestSnapshotCacheBoundedUnderDistinctTimes(t *testing.T) {
	reg := metrics.New()
	SetCacheMetrics(reg)
	defer SetCacheMetrics(nil)
	r := testRunner(t, 60, 49)
	prep, err := r.Prepare(planQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	const distinct = 10000
	for i := 0; i < distinct; i++ {
		if _, err := r.RunPrepared(prep, External{}, float64(i)*0.37+0.01); err != nil {
			t.Fatal(err)
		}
		if n, b := SnapshotCacheStats(); n > SnapshotLimit || b > SnapshotBudget {
			t.Fatalf("after %d distinct t the cache retains %d snapshots, %d bytes", i+1, n, b)
		}
	}
	evictions := reg.Counter("sensjoin_core_snapshot_cache_evictions_total", "").Value()
	misses := reg.Counter("sensjoin_core_snapshot_cache_misses_total", "").Value()
	if misses < distinct || evictions < distinct-SnapshotLimit {
		t.Fatalf("misses %d, evictions %d: want >= %d and >= %d", misses, evictions, distinct, distinct-SnapshotLimit)
	}
	ResetSetupCache()
	if n, b := SnapshotCacheStats(); n != 0 || b != 0 {
		t.Fatalf("ResetSetupCache left %d snapshots, %d bytes", n, b)
	}
}

// Large snapshots hit the byte budget before the count limit: the
// least recently used are evicted, down to the newest one alone when a
// single snapshot outgrows the budget.
func TestSnapshotCacheByteBudget(t *testing.T) {
	r, err := NewRunner(SetupConfig{Nodes: 9000, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	resetSnapshots()
	perSnapshot := int64(r.Dep.N()) * (16 + 8) // positions + one column
	if 2*perSnapshot > SnapshotBudget || 3*perSnapshot <= SnapshotBudget {
		t.Fatalf("a snapshot of %d bytes does not exercise the %d-byte budget", perSnapshot, SnapshotBudget)
	}
	var snaps []*readings
	for i := 0; i < 3; i++ {
		s := snapshotFor(r.Env, r.Dep, float64(i))
		s.column("temp", 2)
		snaps = append(snaps, s)
		if n, b := SnapshotCacheStats(); b > SnapshotBudget || int64(n) > SnapshotBudget/perSnapshot {
			t.Fatalf("after %d snapshots the cache retains %d snapshots, %d bytes", i+1, n, b)
		}
	}
	if snapshotFor(r.Env, r.Dep, 2) != snaps[2] {
		t.Fatal("the most recent snapshot was evicted")
	}
	if snapshotFor(r.Env, r.Dep, 0) == snaps[0] {
		t.Fatal("the least recently used snapshot survived past the budget")
	}
	s := snapshotFor(r.Env, r.Dep, 99)
	for _, name := range []string{"temp", "hum", "pres", "light", "x", "y"} {
		s.column(name, 2) // 9000 nodes × (16 + 6×8) B > budget
	}
	if n, b := SnapshotCacheStats(); n != 0 || b != 0 {
		t.Fatalf("a snapshot larger than the budget must not stay cached: %d snapshots, %d bytes", n, b)
	}
}

// A memo holds at most maxPlansPerSnapshot plans per snapshot.
func TestPlanMemoBoundedPerSnapshot(t *testing.T) {
	r := testRunner(t, 80, 50)
	snap := snapshotFor(r.Env, r.Dep, 12.5)
	for i := 0; i < 3*maxPlansPerSnapshot; i++ {
		prep, err := r.Prepare(ratio33(float64(i) / 4))
		if err != nil {
			t.Fatal(err)
		}
		x, _ := r.ExecPrepared(prep, 12.5)
		if _, err := buildPlan(x); err != nil {
			t.Fatal(err)
		}
	}
	snapMu.Lock()
	held := len(snap.plans)
	snapMu.Unlock()
	if held != maxPlansPerSnapshot {
		t.Fatalf("snapshot holds %d plans, want the bound %d", held, maxPlansPerSnapshot)
	}
}

// BenchmarkBuildPlan measures plan building on the paper's 1500-node
// deployment for the Ratio33 query: cold samples a new snapshot every
// iteration (a fresh t: every sensor read once, then the plan derived),
// memo reuses the snapshot's memoized plan (the repeated-execution
// path).
func BenchmarkBuildPlan(b *testing.B) {
	r, err := NewRunner(SetupConfig{Nodes: 1500, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	prep, err := r.Prepare(ratio33(4))
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, at func(i int) float64) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			x, _ := r.ExecPrepared(prep, at(i))
			if _, err := buildPlan(x); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, func(i int) float64 { return float64(i) + 0.5 }) })
	b.Run("memo", func(b *testing.B) { run(b, func(int) float64 { return 0 }) })
}
