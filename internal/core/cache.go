package core

import (
	"sync"

	"sensjoin/internal/field"
	"sensjoin/internal/metrics"
	"sensjoin/internal/routing"
	"sensjoin/internal/topology"
)

// Shared deployment cache.
//
// topology.Generate, field.StandardEnvironment and routing.BuildTree are
// pure functions of the topology configuration (nodes, area, range, base
// placement, seed): the same config always yields the same placement,
// fields and tree. The experiment harness builds hundreds of runners
// over a handful of distinct configs, so the three expensive artifacts
// are computed once per config and shared across runners.
//
// Sharing is safe because all three are immutable after construction —
// this is an audited contract, documented at the type definitions:
//
//   - topology.Deployment: Pos/Neighbors/Area/Range are built by
//     place/buildNeighbors and never written afterwards.
//   - field.Environment: its field and coupling maps are populated only
//     during StandardEnvironment/QuietEnvironment construction; Read is
//     a pure function of them (concurrent map reads are safe).
//   - routing.Tree: filled by BuildTree, read-only accessors only.
//     Runner.RebuildTree *replaces* the runner's tree pointer with a
//     newly built tree; it never mutates the shared one.
//
// All mutable simulation state — the event queue, link/node failure
// state, transmission counters — lives in the per-runner netsim.Sim,
// netsim.Network and stats.Collector, which are always fresh.
type sharedSetup struct {
	dep  *topology.Deployment
	env  *field.Environment
	tree *routing.Tree
}

var (
	setupMu    sync.Mutex
	setupCache = map[topology.Config]*sharedSetup{}
	// Cache instruments, guarded by setupMu like the cache itself; nil
	// (the default) disables them.
	cacheHits, cacheMisses *metrics.Counter
)

// SetCacheMetrics registers hit/miss counters for the shared deployment
// cache, and hit/miss/eviction counters for the snapshot cache
// (snapshot.go), on reg (nil disables them again).
func SetCacheMetrics(reg *metrics.Registry) {
	setupMu.Lock()
	defer setupMu.Unlock()
	cacheHits = reg.Counter("sensjoin_core_setup_cache_hits_total", "shared deployment cache hits")
	cacheMisses = reg.Counter("sensjoin_core_setup_cache_misses_total", "shared deployment cache misses")
	snapMu.Lock()
	defer snapMu.Unlock()
	snapHits = reg.Counter("sensjoin_core_snapshot_cache_hits_total", "readings snapshot cache hits")
	snapMisses = reg.Counter("sensjoin_core_snapshot_cache_misses_total", "readings snapshot cache misses")
	snapEvictions = reg.Counter("sensjoin_core_snapshot_cache_evictions_total", "readings snapshots evicted to stay within the byte budget")
}

// sharedSetupFor returns the cached artifacts for tcfg, generating them
// on first use. tcfg must be fully normalized (defaults resolved) so
// that equal configurations hit the same entry. The environment seed is
// derived from the topology seed exactly as NewRunner historically did
// (seed+1000), keeping cached and uncached runners byte-identical.
func sharedSetupFor(tcfg topology.Config) (*sharedSetup, error) {
	setupMu.Lock()
	defer setupMu.Unlock()
	if s, ok := setupCache[tcfg]; ok {
		cacheHits.Inc()
		return s, nil
	}
	cacheMisses.Inc()
	dep, err := topology.Generate(tcfg)
	if err != nil {
		return nil, err
	}
	s := &sharedSetup{
		dep:  dep,
		env:  field.StandardEnvironment(dep.Area, tcfg.Seed+1000),
		tree: routing.BuildTree(dep.Neighbors, topology.BaseStation),
	}
	setupCache[tcfg] = s
	return s, nil
}

// ResetSetupCache drops all cached deployments and readings snapshots.
// The deployment cache is unbounded by design (an experiment session
// touches a handful of configs); long-lived embedders that sweep many
// distinct configurations can release the memory explicitly.
func ResetSetupCache() {
	setupMu.Lock()
	setupCache = map[topology.Config]*sharedSetup{}
	setupMu.Unlock()
	resetSnapshots()
}
