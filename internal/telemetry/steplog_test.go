package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestStepLoggerNil(t *testing.T) {
	var l *StepLogger
	if err := l.Log(StepRecord{Step: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStepLoggerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	l := NewStepLogger(&buf)
	recs := []StepRecord{
		{Step: 1, Time: 1e-6, DT: 1e-6, WallMS: 2.5,
			KernelMS: map[string]float64{"RHS": 2.0, "UP": 0.3}, Imbalance: ptr(0.1)},
		{Step: 2, Time: 2e-6, DT: 1e-6, WallMS: 2.4,
			DumpRates: map[string]float64{"p": 12.5}, DumpMBps: 80,
			HasDiag: true, MaxPressure: 1e7, EquivRadius: 0.2},
	}
	for _, r := range recs {
		if err := l.Log(r); err != nil {
			t.Fatal(err)
		}
	}
	sc := bufio.NewScanner(&buf)
	var got []StepRecord
	for sc.Scan() {
		var r StepRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line not valid JSON: %v", err)
		}
		got = append(got, r)
	}
	if len(got) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(got))
	}
	if got[0].KernelMS["RHS"] != 2.0 || got[1].DumpRates["p"] != 12.5 || !got[1].HasDiag {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}

type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func TestStepLoggerConcurrent(t *testing.T) {
	var buf syncBuffer
	l := NewStepLogger(&buf)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := l.Log(StepRecord{Step: w*100 + i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	buf.mu.Lock()
	defer buf.mu.Unlock()
	sc := bufio.NewScanner(&buf.buf)
	lines := 0
	for sc.Scan() {
		var r StepRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("interleaved/corrupt line: %v", err)
		}
		lines++
	}
	if lines != 800 {
		t.Fatalf("expected 800 lines, got %d", lines)
	}
}

func ptr[T any](v T) *T { return &v }

// TestStepRecordSchema: a plain step's line carries no audit arrays, a
// measured imbalance of exactly 0 stays on the line, and an audit step
// keeps its arrays even when they are all zero.
func TestStepRecordSchema(t *testing.T) {
	keys := func(rec StepRecord) map[string]json.RawMessage {
		t.Helper()
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain := keys(StepRecord{Step: 1, DT: 1e-6, WallMS: 2, Imbalance: ptr(0.0)})
	for _, k := range []string{"total_momentum", "gamma_range", "pi_range", "has_totals"} {
		if v, ok := plain[k]; ok {
			t.Errorf("plain record carries %q: %s", k, v)
		}
	}
	if v, ok := plain["imbalance"]; !ok || string(v) != "0" {
		t.Errorf("measured zero imbalance encoded as %q (present %v), want 0", v, ok)
	}
	if _, ok := keys(StepRecord{Step: 1})["imbalance"]; ok {
		t.Error("unmeasured imbalance is on the line")
	}

	audit := keys(StepRecord{
		Step: 2, HasTotals: true, TotalMass: 1.5, TotalMom: &[3]float64{},
		TotalEnergy: 2.5, GammaRange: &[2]float64{1.4, 6.1}, PiRange: &[2]float64{0, 2.6e4},
	})
	for k, want := range map[string]string{
		"total_momentum": "[0,0,0]", "gamma_range": "[1.4,6.1]", "pi_range": "[0,26000]", "has_totals": "true",
	} {
		if got := string(audit[k]); got != want {
			t.Errorf("audit record %q = %q, want %q", k, got, want)
		}
	}
}
