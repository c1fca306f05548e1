package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"cubism/internal/service"
)

func TestJobInputsSeeded(t *testing.T) {
	a := jobInputs(7, 4, 200)
	if !reflect.DeepEqual(a, jobInputs(7, 4, 200)) {
		t.Fatal("same seed gave different arrivals")
	}
	if reflect.DeepEqual(a, jobInputs(8, 4, 200)) {
		t.Fatal("different seeds gave the same arrivals")
	}
	if len(a) != 200 {
		t.Fatalf("%d arrivals, want 200", len(a))
	}
	shock := 0
	for _, in := range a {
		if in.spec.Scenario == "shockbubble" {
			shock++
		}
	}
	if shock != 50 {
		t.Errorf("%d shockbubble jobs of 200, want 50", shock)
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	// 200 arrivals at 4/s fall in a 50 s window, about evenly: the first
	// and second half each hold 100 ± 4σ (σ ≈ 7).
	if last := a[len(a)-1].due; last > 50*time.Second {
		t.Errorf("last of 200 arrivals at 4/s due at %v, past the 50 s window", last)
	}
	first := 0
	for _, in := range a {
		if in.due < 25*time.Second {
			first++
		}
	}
	if first < 72 || first > 128 {
		t.Errorf("%d of 200 arrivals in the first half of the window", first)
	}
}

// fakeService answers the three calls the open loop makes. Job "slow"
// holds its event stream for hold before finishing.
func fakeService(t *testing.T, hold time.Duration) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec service.JobSpec
		if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
			t.Error(err)
		}
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(service.Status{ID: spec.Nonce})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") == "slow" {
			time.Sleep(hold)
		}
		enc := json.NewEncoder(w)
		seq := 0
		emit := func(e service.Event) {
			e.Seq = seq
			seq++
			enc.Encode(e)
		}
		emit(service.Event{Type: "state", State: service.StateRunning})
		for s := 1; s <= jobSteps; s++ {
			emit(service.Event{Type: "step", Step: &service.StepEvent{Step: s}})
		}
		emit(service.Event{Type: "state", State: service.StateSucceeded})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		now := time.Now()
		started := now.Add(-time.Millisecond)
		json.NewEncoder(w).Encode(service.Status{
			ID: r.PathValue("id"), Created: now.Add(-3 * time.Millisecond),
			Started: &started, Finished: &now,
		})
	})
	return httptest.NewServer(mux)
}

func TestOpenLoopSendsOnScheduleAndTimesFromDue(t *testing.T) {
	const hold = 300 * time.Millisecond
	srv := fakeService(t, hold)
	defer srv.Close()
	inputs := []jobInput{
		{spec: service.JobSpec{Nonce: "slow"}, due: 0},
		{spec: service.JobSpec{Nonce: "fast"}, due: 50 * time.Millisecond},
	}
	out := runOpenLoop(srv.URL, inputs, nil)
	for i, o := range out {
		if o.err != nil {
			t.Fatalf("job %d: %v", i, o.err)
		}
	}
	// The slow job's stream does not hold back the next arrival.
	if out[1].late > 40*time.Millisecond {
		t.Errorf("second arrival sent %v late behind a stalled job", out[1].late)
	}
	if out[0].terminal < hold || out[1].terminal >= hold {
		t.Errorf("turnarounds %v, %v: want the slow job ≥ %v and the fast one below", out[0].terminal, out[1].terminal, hold)
	}
	if out[0].firstStep > out[0].terminal || out[0].events != jobSteps+2 {
		t.Errorf("slow job: first step %v, terminal %v, %d events", out[0].firstStep, out[0].terminal, out[0].events)
	}
	if out[1].queueWait != 2*time.Millisecond || out[1].runTime != time.Millisecond {
		t.Errorf("status times: queue %v run %v", out[1].queueWait, out[1].runTime)
	}
}

func TestJobLatencyCountsFromDueTime(t *testing.T) {
	srv := fakeService(t, 0)
	defer srv.Close()
	// An arrival sent 200 ms after it was due carries those 200 ms.
	due := time.Now().Add(-200 * time.Millisecond)
	o := runJob(srv.Client(), srv.URL, service.JobSpec{Nonce: "fast"}, due, nil)
	if o.err != nil {
		t.Fatal(o.err)
	}
	if o.terminal < 200*time.Millisecond || o.firstStep < 200*time.Millisecond {
		t.Errorf("latencies %v / %v not measured from the due time", o.firstStep, o.terminal)
	}
}

func TestJobStreamOutOfOrderFails(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(service.Status{ID: "j"})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(service.Event{Seq: 1, Type: "state", State: service.StateSucceeded})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	if o := runJob(srv.Client(), srv.URL, service.JobSpec{}, time.Now(), nil); o.err == nil {
		t.Error("a stream starting at seq 1 passed")
	}
}
