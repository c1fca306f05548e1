package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one recorded interval around a call into a solver layer. Times
// are nanoseconds since the recorder started; Parent is -1 for a root.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// CounterDelta is the change of a program counter across one span.
type CounterDelta struct {
	Span  int     `json:"span"`
	Name  string  `json:"name"`
	Delta float64 `json:"delta"`
}

// Recorder keeps the spans and counter deltas of one traced run in memory
// and writes them out once, at exit. A nil *Recorder records nothing, so
// untraced runs pass nil through the same code.
type Recorder struct {
	RunID string

	mu       sync.Mutex
	t0       time.Time
	spans    []Span
	counters []CounterDelta
}

func newRecorder(runID string) *Recorder {
	return &Recorder{RunID: runID, t0: time.Now()}
}

// Start opens a span and returns its id (-1 on a nil recorder).
func (r *Recorder) Start(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// End closes span id.
func (r *Recorder) End(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// Count records how much a program counter moved across span id.
func (r *Recorder) Count(id int, name string, delta float64) {
	if r == nil || id < 0 {
		return
	}
	r.mu.Lock()
	r.counters = append(r.counters, CounterDelta{Span: id, Name: name, Delta: delta})
	r.mu.Unlock()
}

// Spans returns a copy of the closed spans.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// CounterSum totals the deltas of one counter over every span.
func (r *Recorder) CounterSum(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sum float64
	for _, c := range r.counters {
		if c.Name == name {
			sum += c.Delta
		}
	}
	return sum
}

// WriteFile writes every span and counter delta as one JSON document.
func (r *Recorder) WriteFile(path string) error {
	r.mu.Lock()
	doc := struct {
		RunID    string         `json:"run_id"`
		Spans    []Span         `json:"spans"`
		Counters []CounterDelta `json:"counters"`
	}{r.RunID, r.spans, r.counters}
	data, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds, indexed by span
// id: its duration minus the part of its interval covered by its children
// (overlapping children are counted once).
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to the
// parent's.
func covered(parent Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		if open && v[0] <= curHi {
			curHi = max(curHi, v[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v[0], v[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durations lists the durations (seconds) of every span with the name.
func durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}
