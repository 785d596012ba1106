package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Start and End are nanoseconds since the recorder was made.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent,omitempty"`
	Req      int64  `json:"req"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Class    string `json:"class,omitempty"`
	Workload string `json:"workload"`
	// Sig ties a routed request to its shard legs (see sigOf).
	Sig string `json:"sig,omitempty"`
	// Replayed marks a span whose duration was measured by replaying the
	// request on the twin system after the timed phase, and which was then
	// placed inside its parent; its Start is not an observed time.
	Replayed bool `json:"replayed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	workload string
	epoch    time.Time
	nextID   atomic.Int64
	mu       sync.Mutex
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() int64 { return r.nextID.Add(1) }

func (r *recorder) add(s span) {
	s.Workload = r.workload
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// tree indexes spans by parent.
type tree struct {
	byID     map[int64]span
	children map[int64][]span
	roots    []span
}

func buildTree(spans []span) *tree {
	t := &tree{byID: make(map[int64]span, len(spans)), children: make(map[int64][]span)}
	for _, s := range spans {
		t.byID[s.ID] = s
	}
	for _, s := range spans {
		if _, ok := t.byID[s.Parent]; s.Parent != 0 && ok {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		} else {
			t.roots = append(t.roots, s)
		}
	}
	return t
}

// self is the span's duration minus the part of its interval its children
// cover. Children that overlap each other (parallel shard legs) are
// counted once; a child reaching outside its parent is clipped.
func (t *tree) self(s span) int64 { return t.selfOver(s, t.children[s.ID]) }

// selfOver is self with the children given.
func (t *tree) selfOver(s span, children []span) int64 {
	kids := append([]span(nil), children...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, edge := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			edge = hi
		}
	}
	return s.dur() - covered
}

// blocking returns the spans on the path that set the root's duration:
// the root, and under every span the children walked backwards from the
// one that ended last, skipping any that ran beside one already taken.
// Of parallel shard legs only the slowest is on it.
func (t *tree) blocking(root span) []span {
	path := []span{root}
	kids := append([]span(nil), t.children[root.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].End > kids[j].End })
	edge := root.End + 1
	for _, k := range kids {
		if k.End <= edge {
			path = append(path, t.blocking(k)...)
			edge = k.Start
		}
	}
	return path
}

// unaccounted is the replayed time under root that did not fit where it
// was placed: for every span, how far its replayed children add up beyond
// what its observed children leave of it. It is zero when the twin's
// layer timings are consistent with what the server was seen to take.
func (t *tree) unaccounted(root span) int64 {
	var replayed, observed []span
	for _, k := range t.children[root.ID] {
		if k.Replayed {
			replayed = append(replayed, k)
		} else {
			observed = append(observed, k)
		}
	}
	over := int64(0)
	if len(replayed) > 0 {
		room := t.selfOver(root, observed)
		for _, k := range replayed {
			room -= k.dur()
		}
		over = max(0, -room)
	}
	for _, k := range observed {
		over += t.unaccounted(k)
	}
	return over
}
