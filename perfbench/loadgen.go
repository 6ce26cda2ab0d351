package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sensjoin/pkg/client"
)

// The load generator is an open loop: every request has a due time
// fixed before the rung starts, a stall delays later sends instead of
// thinning the load, and each request is timed from when it was due to
// the arrival of its Done frame. It pipelines requests over at most
// nproc client connections, from the daemon's process, as X9 does.

// request is one scheduled query.
type request struct {
	due    time.Duration // offset from the rung's start
	src    string
	at     float64
	rounds int
	// ref is the digest of the expected table of each epoch.
	ref []digest
	// id is the client-chosen trace ID (matches flight records).
	id string
}

// reply is what the generator observed for one request.
type reply struct {
	due     time.Time
	lag     time.Duration // sent − due
	latency time.Duration // Done − due
	done    time.Time
	err     string // "" for a correct, complete answer
}

// rungStats summarizes one rung of the rate ladder.
type rungStats struct {
	Rate     float64 `json:"rate_qps"`
	Requests int     `json:"requests"`
	Seconds  float64 `json:"seconds"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	LagP50Ms float64 `json:"lag_p50_ms"`
	LagP99Ms float64 `json:"lag_p99_ms"`
	// Backlog is the number of requests still unanswered when the rung's
	// last request was sent; Growth is how much the mean unanswered count
	// rose from the rung's second quarter to its last quarter.
	Backlog int     `json:"backlog"`
	Growth  float64 `json:"backlog_growth"`
	Failed  int     `json:"failed"`
	// Score is max(p99/limit, growth/(rate·limit)); the rung passes
	// when it is at most 1 and nothing failed.
	Score float64 `json:"score"`
	Pass  bool    `json:"pass"`
}

// dialPool opens the generator's connections.
func dialPool(addr string) ([]*client.Client, error) {
	n := max(1, runtime.NumCPU())
	conns := make([]*client.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := client.DialWith(client.DialConfig{Addr: addr, Timeout: 10 * time.Second})
		if err != nil {
			closePool(conns)
			return nil, err
		}
		conns = append(conns, c)
	}
	return conns, nil
}

func closePool(conns []*client.Client) {
	for _, c := range conns {
		c.Close()
	}
}

// poissonDues returns n arrival offsets at rate/s, grouped in bursts of
// size burst (every member of a burst is due at the same instant). The
// bursts are a Poisson process conditioned on its count: uniform
// instants over exactly n/rate seconds, sorted. Arrivals are as bursty
// as Poisson ones, but every schedule offers exactly the rate.
func poissonDues(rng *rand.Rand, rate float64, n, burst int) []time.Duration {
	span := float64(n) / rate
	at := make([]float64, (n+burst-1)/burst)
	for i := range at {
		at[i] = rng.Float64() * span
	}
	sort.Float64s(at)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(at[i/burst] * float64(time.Second))
	}
	return out
}

// runRung sends reqs on schedule from start and waits for every
// answer, checking each returned table against the request's
// reference. It also returns how many requests were unanswered as each
// was sent.
func runRung(conns []*client.Client, reqs []request, start time.Time) ([]reply, []int) {
	replies := make([]reply, len(reqs))
	outstanding := make([]int, len(reqs))
	var answered atomic.Int64
	var wg sync.WaitGroup
	for i := range reqs {
		rq := &reqs[i]
		due := start.Add(rq.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		replies[i].due = due
		replies[i].lag = time.Since(due)
		outstanding[i] = i - int(answered.Load())
		st, err := conns[i%len(conns)].Stream(rq.src, client.Options{
			At: rq.at, Rounds: rq.rounds, Timeout: 60 * time.Second, TraceID: rq.id,
		})
		if err != nil {
			replies[i].err = "submit: " + err.Error()
			replies[i].done = time.Now()
			answered.Add(1)
			continue
		}
		wg.Add(1)
		go func(rp *reply, rq *request, st *client.Stream, due time.Time) {
			defer wg.Done()
			defer answered.Add(1)
			var tabs []*client.Table
			for {
				tb, err := st.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					rp.err = err.Error()
					break
				}
				tabs = append(tabs, tb)
			}
			rp.done = time.Now()
			rp.latency = rp.done.Sub(due)
			if rp.err == "" {
				rp.err = checkTables(rq, tabs)
			}
		}(&replies[i], rq, st, due)
	}
	wg.Wait()
	return replies, outstanding
}

// checkTables compares every epoch's table with its reference.
func checkTables(rq *request, tabs []*client.Table) string {
	if len(tabs) != len(rq.ref) {
		return "wrong epoch count"
	}
	for e, tb := range tabs {
		if clientTable(tb).digest() != rq.ref[e] {
			return fmt.Sprintf("wrong table: epoch %d of %q at t=%g differs from the library's", e, rq.src, rq.at)
		}
	}
	return ""
}

// summarize folds a rung's replies; failed requests count as missing
// the latency limit (+Inf latency).
func summarize(rate float64, replies []reply, outstanding []int, limit time.Duration) rungStats {
	n := len(replies)
	s := rungStats{Rate: rate, Requests: n, Backlog: outstanding[n-1]}
	avg := func(lo, hi int) float64 {
		sum := 0
		for _, v := range outstanding[lo:max(hi, lo+1)] {
			sum += v
		}
		return float64(sum) / float64(max(hi-lo, 1))
	}
	s.Growth = avg(3*n/4, n) - avg(n/4, n/2)
	lat := make([]float64, 0, len(replies))
	lag := make([]float64, 0, len(replies))
	var first, last time.Time
	for i, rp := range replies {
		lag = append(lag, ms(rp.lag))
		if rp.err != "" {
			s.Failed++
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, ms(rp.latency))
		}
		if i == 0 || rp.done.Before(first) {
			first = rp.done
		}
		if rp.done.After(last) {
			last = rp.done
		}
	}
	s.Seconds = last.Sub(first).Seconds()
	s.P50Ms = quantile(lat, 0.50)
	s.P99Ms = quantile(lat, 0.99)
	s.LagP50Ms = quantile(lag, 0.50)
	s.LagP99Ms = quantile(lag, 0.99)
	limMs := ms(limit)
	s.Score = math.Max(s.P99Ms/limMs, s.Growth/(rate*limit.Seconds()))
	s.Pass = s.Failed == 0 && s.Score <= 1
	return s
}

// sustainedRate interpolates the highest passing rate of an ascending
// ladder: between the last passing rung and the first failing one, in
// log(score), where score 1 is the limit. It reports whether the ladder
// ended without a failing rung (the value is then the top rate).
func sustainedRate(rungs []rungStats) (float64, bool) {
	for j, r := range rungs {
		if r.Pass {
			continue
		}
		sj := math.Max(r.Score, 1.0001)
		if math.IsInf(sj, 1) || math.IsNaN(sj) {
			sj = 1e6
		}
		if j == 0 {
			return r.Rate / sj, false
		}
		p := rungs[j-1]
		si := math.Max(p.Score, 1e-6)
		f := math.Log(1/si) / (math.Log(sj) - math.Log(si))
		return p.Rate + f*(r.Rate-p.Rate), false
	}
	return rungs[len(rungs)-1].Rate, true
}
