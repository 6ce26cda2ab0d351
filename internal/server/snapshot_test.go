package server

import (
	"sync"
	"testing"

	"sensjoin/internal/core"
	"sensjoin/pkg/client"
)

// Clients asking for ten thousand distinct snapshot times must not grow
// the daemon's readings cache past its bounds: every t samples a new
// snapshot, and least-recently-used ones are evicted.
func TestSnapshotCacheBoundedUnderDistinctTimes(t *testing.T) {
	const clients, perClient = 4, 2500
	s, _ := startTestServer(t, Config{})
	src := testQueries[0]
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < perClient; i++ {
				at := float64(c*perClient+i)*0.37 + 0.01
				if _, err := cl.QueryOpts(src, client.Options{Method: "external", At: at, Nodes: 40}); err != nil {
					errs <- err
					return
				}
				if n, b := core.SnapshotCacheStats(); n > core.SnapshotLimit || b > core.SnapshotBudget {
					t.Errorf("cache retains %d snapshots, %d bytes", n, b)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n, _ := core.SnapshotCacheStats(); n != core.SnapshotLimit {
		t.Fatalf("cache holds %d snapshots: the load never filled it, so it proves nothing", n)
	}
}

// A client-chosen snapshot time far beyond any drift period must be
// answered like any other, not hang an execution slot.
func TestSnapshotHugeTimeAnswered(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, at := range []float64{1e11, 1e20} {
		if _, err := c.QueryOpts(testQueries[0], client.Options{At: at}); err != nil {
			t.Fatalf("At %g: %v", at, err)
		}
	}
}
