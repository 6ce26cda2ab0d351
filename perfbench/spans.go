package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run records its own spans around each call into a layer's
// public functions. Spans stay in memory and are written out as JSON
// lines when the run ends. A span's self time is its duration minus the
// part of it that its children cover.

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"` // since the log's origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span and returns its ID. A nil log records
// nothing, so untraced code paths need no guards.
func (l *spanLog) add(name, req string, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(l.origin)), End: int64(end.Sub(l.origin)),
	})
	return id
}

// begin opens a span whose end is set by end; children may name it as
// their parent in between.
func (l *spanLog) begin(name, req string, parent int) int {
	now := time.Now()
	return l.add(name, req, parent, now, now)
}

func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = int64(time.Since(l.origin))
}

// time runs f inside a span and returns its duration.
func (l *spanLog) time(name, req string, parent int, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	l.add(name, req, parent, start, end)
	return end.Sub(start)
}

// selfTimes returns the self times (ms) of every span with this name:
// duration minus the union of its children's intervals.
func (l *spanLog) selfTimes(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range l.spans {
		if s.Name != name {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out = append(out, ms(time.Duration(s.End-s.Start-covered)))
	}
	return out
}

func (l *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
