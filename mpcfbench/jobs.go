package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cubism/internal/service"
)

const (
	// jobRate is the open loop's fixed Poisson arrival rate, jobs per
	// second, below what this service sustains with two running jobs.
	jobRate = 4.0
	// jobSteps is the length of every job.
	jobSteps = 4
	// jobDrain bounds how long a run waits for jobs still running when
	// the arrival window closes.
	jobDrain = 60 * time.Second
)

// jobInput is one generated arrival: the spec and when it is due, as an
// offset from the start of the arrival window.
type jobInput struct {
	spec service.JobSpec
	due  time.Duration
}

// jobInputs draws n arrivals from the seed: a Poisson process at rate
// (jobs/s) conditioned on n arrivals in a window of n/rate seconds — n
// uniform times in the window, sorted — so every seed offers the same
// load. Each job is a small in-process case (16³, one block, one worker)
// for one of two tenants. Exactly one job in four is a shockbubble, the
// rest seeded clouds, in seeded order: a fixed mix keeps the median and
// the tail inside one job kind's turnaround instead of on the edge
// between two.
func jobInputs(seed int64, rate float64, n int) []jobInput {
	rng := rand.New(rand.NewSource(seed))
	window := float64(n) / rate
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * window
	}
	sort.Float64s(due)
	kind := rng.Perm(n)
	out := make([]jobInput, 0, n)
	for i := 0; i < n; i++ {
		p := service.SpecParams{
			Blocks: [3]int{1, 1, 1}, BlockSize: 16, Steps: jobSteps, Workers: 1,
		}
		name := "shockbubble"
		if kind[i] >= n/4 {
			name = "cloud"
			p.Seed = 1 + rng.Int63n(1<<20)
		}
		out = append(out, jobInput{
			spec: service.JobSpec{
				Scenario: name, Tenant: fmt.Sprintf("t%d", i%2), Mode: service.ModeInproc,
				Nonce: fmt.Sprintf("s%d-%d", seed, i), Params: p,
			},
			due: time.Duration(due[i] * float64(time.Second)),
		})
	}
	return out
}

// jobOutcome is what one job's client observed, all times measured from
// when the arrival was due.
type jobOutcome struct {
	late       time.Duration // send time minus due time
	firstStep  time.Duration
	terminal   time.Duration
	events     int
	eventBytes int64
	queueWait  time.Duration // service Status: started - created
	runTime    time.Duration // service Status: finished - started
	err        error
}

// jobServer is a started service behind a loopback HTTP listener.
type jobServer struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan struct{}
}

func startJobServer(dir string) (*jobServer, error) {
	svc, err := service.New(service.Config{
		DataDir: dir, Workers: 2, TenantRunning: 2, TenantQueued: 256, MaxQueue: 512,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	js := &jobServer{svc: svc, srv: &http.Server{Handler: svc.Handler()},
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(js.done)
		js.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return js, nil
}

// stopHTTP closes the listener and every connection and waits for the
// server to return; the service and its jobs stay.
func (js *jobServer) stopHTTP() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	js.srv.Shutdown(ctx)
	<-js.done
}

func (js *jobServer) close() {
	js.stopHTTP()
	js.svc.Close()
}

// runOpenLoop sends the arrivals on schedule regardless of completions,
// one client goroutine per job, and waits for every job to end. rec, when
// set, records a span per job with submit and stream children.
func runOpenLoop(base string, inputs []jobInput, rec *Recorder) []jobOutcome {
	out := make([]jobOutcome, len(inputs))
	// Independent users share no connections: every request dials anew.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	var wg sync.WaitGroup
	start := time.Now()
	for i, in := range inputs {
		due := start.Add(in.due)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		wg.Add(1)
		go func(i int, in jobInput) {
			defer wg.Done()
			out[i] = runJob(client, base, in.spec, due, rec)
			out[i].late = late
		}(i, in)
	}
	wg.Wait()
	return out
}

// runJob submits one job, follows its event stream to the terminal state
// and checks the stream is complete and seq-ordered.
func runJob(client *http.Client, base string, spec service.JobSpec, due time.Time, rec *Recorder) jobOutcome {
	var o jobOutcome
	ctx, cancel := context.WithTimeout(context.Background(), jobDrain)
	defer cancel()
	root := rec.Start("job", -1)
	defer rec.End(root)

	sp := rec.Start("service.submit", root)
	body, _ := json.Marshal(spec)
	var st service.Status
	o.err = doJSON(ctx, client, http.MethodPost, base+"/v1/jobs", body, http.StatusCreated, &st)
	rec.End(sp)
	if o.err != nil {
		return o
	}

	sp = rec.Start("service.stream", root)
	o.err = o.follow(ctx, client, base+"/v1/jobs/"+st.ID+"/events", due)
	rec.End(sp)
	if o.err != nil {
		return o
	}
	if o.err = doJSON(ctx, client, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, http.StatusOK, &st); o.err != nil {
		return o
	}
	if st.Started == nil || st.Finished == nil {
		o.err = fmt.Errorf("job %s: status lacks start or finish time", st.ID)
		return o
	}
	o.queueWait = st.Started.Sub(st.Created)
	o.runTime = st.Finished.Sub(*st.Started)
	return o
}

// follow reads the job's JSONL event stream to its end.
func (o *jobOutcome) follow(ctx context.Context, client *http.Client, url string, due time.Time) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	steps := 0
	var final service.JobState
	for sc.Scan() {
		now := time.Since(due)
		line := sc.Bytes()
		o.eventBytes += int64(len(line)) + 1
		var ev service.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("events: %w", err)
		}
		if ev.Seq != o.events {
			return fmt.Errorf("events: seq %d at position %d", ev.Seq, o.events)
		}
		o.events++
		switch ev.Type {
		case "step":
			if steps == 0 {
				o.firstStep = now
			}
			steps++
		case "state":
			if ev.State.Terminal() {
				final = ev.State
				o.terminal = now
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events: %w", err)
	}
	if final != service.StateSucceeded {
		return fmt.Errorf("job ended %q, want succeeded", final)
	}
	if steps != jobSteps {
		return fmt.Errorf("stream carried %d step events, want %d", steps, jobSteps)
	}
	return nil
}

func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: HTTP %d, want %d", method, url, resp.StatusCode, want)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func runJobsOpen(env *Env) (*Result, error) {
	res := &Result{}
	// Set-up: service start (data directory, drain-snapshot requeue,
	// worker pool), the loopback listener, and one warm-up job run end to
	// end, so the timed jobs do not pay first-use costs (connection,
	// scenario code paths, heap growth).
	var js *jobServer
	warm := jobInputs(env.Seed, jobRate, 1)[0].spec
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	setup, err := repeatSetup(env, func(i int) error {
		if js != nil {
			js.close()
		}
		var err error
		if js, err = startJobServer(filepath.Join(env.Dir, fmt.Sprintf("svc%d", i))); err != nil {
			return err
		}
		warm.Nonce = fmt.Sprintf("warm-up-%d", i)
		if o := runJob(client, js.base, warm, time.Now(), nil); o.err != nil {
			return fmt.Errorf("warm-up job: %w", o.err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer js.close()
	res.WorkingSetBytes = stateBytes(16 * 16 * 16 * 2) // two running jobs

	part := 1.0
	if env.Trace {
		part = 0.5
	}
	n := env.opsFor(part, 1/jobRate)
	outs := runOpenLoop(js.base, jobInputs(env.Seed, jobRate, n), nil)
	e2e := jobTimings(res, outs)
	if !env.Trace {
		// The service keeps every finished job: read its retained heap
		// once the connections are gone.
		js.stopHTTP()
		env.collect()
		res.timing("job", e2e.turnaround)
		res.named("first_step_p50_s", median(e2e.firstStep), "s", len(e2e.firstStep))
		res.named("late_p90_s", quantile(e2e.late, 0.9), "s", len(e2e.late))
		opMetrics(res, setup, e2e.turnaround)
		return res, nil
	}

	L := map[string]float64{}
	res.Layers = L
	// The traced window is a second draw of the same arrival process.
	traced := runOpenLoop(js.base, jobInputs(env.Seed+1, jobRate, n), env.Rec)
	tt := jobTimings(res, traced)
	L["service.queue_wait_p50_s"] = median(tt.queueWait)
	L["service.run_p50_s"] = median(tt.run)
	L["service.events_per_job"] = median(tt.events)
	L["service.event_bytes_per_job"] = median(tt.eventBytes)
	L["loadgen.late_p90_s"] = quantile(tt.late, 0.9)
	L["bench.trace_overhead_frac"] = (median(tt.turnaround) - median(e2e.turnaround)) / median(e2e.turnaround)
	return res, nil
}

// jobSamples gathers the per-job figures of the jobs that succeeded.
type jobSamples struct {
	turnaround, firstStep, late        []float64
	queueWait, run, events, eventBytes []float64
}

func jobTimings(res *Result, outs []jobOutcome) jobSamples {
	var s jobSamples
	for i, o := range outs {
		res.Attempted++
		s.late = append(s.late, o.late.Seconds())
		if o.err != nil {
			res.fail("job %d: %v", i, o.err)
			continue
		}
		s.turnaround = append(s.turnaround, o.terminal.Seconds())
		s.firstStep = append(s.firstStep, o.firstStep.Seconds())
		s.queueWait = append(s.queueWait, o.queueWait.Seconds())
		s.run = append(s.run, o.runTime.Seconds())
		s.events = append(s.events, float64(o.events))
		s.eventBytes = append(s.eventBytes, float64(o.eventBytes))
	}
	return s
}
