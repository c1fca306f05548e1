package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: "step", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 35},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - (40 + 10), 1: 20, 2: 30 - 10, 3: 30, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %d, want %d", id, self[id], w)
		}
	}
	if got := durations(spans, "a"); len(got) != 1 || got[0] != 20e-9 {
		t.Errorf("durations(a) = %v, want [2e-08]", got)
	}
}

func TestSelfTimeWithoutChildrenIsDuration(t *testing.T) {
	self := selfTimes([]Span{{ID: 0, Parent: -1, Start: 5, End: 17}})
	if self[0] != 12 {
		t.Errorf("self = %d, want 12", self[0])
	}
}

func TestRecorderKeepsSpansAndCounters(t *testing.T) {
	r := newRecorder("run-1")
	root := r.Start("step", -1)
	kid := r.Start("cluster.rk", root)
	r.End(kid)
	r.Count(root, "node.tasks", 16)
	r.Count(root, "node.tasks", 16)
	open := r.Start("unfinished", root)
	r.End(root)
	_ = open

	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
	if got := r.CounterSum("node.tasks"); got != 32 {
		t.Errorf("CounterSum = %g, want 32", got)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunID string `json:"run_id"`
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunID != "run-1" || len(doc.Spans) != 3 {
		t.Errorf("written trace: run %q with %d spans", doc.RunID, len(doc.Spans))
	}

	var off *Recorder // untraced runs pass nil
	off.End(off.Start("step", -1))
	off.Count(-1, "x", 1)
}
