package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"cubism"
	"cubism/internal/cluster"
	"cubism/internal/grid"
	"cubism/internal/mpi"
	"cubism/internal/scenario"
	"cubism/internal/sim"
	"cubism/internal/telemetry"
	"cubism/internal/verify"
)

const (
	// rhsPerStep is the RHS evaluations of one low-storage RK3 step.
	rhsPerStep = 3

	// cloudSteps is the length of one cloud-compute repeat. Every repeat
	// starts from the same seeded state and must end on bitwise-identical
	// conserved totals.
	cloudSteps = 10
	// haloSteps is the length of one halo-tcp repeat: one observatory
	// artifact rewrite (every 16 steps by default) per repeat, so every
	// repeat has the same make-up of steps.
	haloSteps = 17

	// cloudRepeatSeconds and haloRepeatSeconds are the nominal wall times
	// of one repeat on a 2-core x86-64 host; they size each run's fixed
	// repeat count (Env.opsFor).
	cloudRepeatSeconds = 3.5
	haloRepeatSeconds  = 1.06
)

// cloudCase builds the paper's production shape: the seeded lognormal
// cloud over the reflecting wall in 32³ blocks on one rank, 1×2×2 blocks
// (two per worker on a two-core host; the domain is 1×2×2 with the cloud
// inside it).
func cloudCase(seed int64, workers int) (*scenario.Case, error) {
	return scenario.Build("cloud", scenario.Params{
		Blocks: [3]int{1, 2, 2}, BlockSize: 32, Workers: workers, Seed: seed,
	})
}

// haloCase is the same cloud on two ranks of 1×4×4 blocks of 8³, so every
// block touches the rank boundary; one worker per rank.
func haloCase(seed int64) (*scenario.Case, error) {
	c, err := scenario.Build("cloud", scenario.Params{
		Ranks: [3]int{2, 1, 1}, Blocks: [3]int{1, 4, 4}, BlockSize: 8, Workers: 1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	c.Config.Cluster.Pipeline = true
	c.Config.AuditEvery = 0
	return c, nil
}

func cells(c *scenario.Case) int64 {
	cc := c.Config.Cluster
	n := int64(cc.BlockSize)
	var total int64 = 1
	for d := 0; d < 3; d++ {
		total *= int64(cc.RankDims[d] * cc.BlockDims[d])
	}
	return total * n * n * n
}

// stateBytes is the float32 solver state of one cell: the conserved
// quantities plus the low-storage register and the RHS buffer.
func stateBytes(c int64) int64 { return c * int64(grid.NQ) * 4 * 3 }

// stepClock turns successive step callbacks into step wall times. The
// first step of a run has no preceding callback and is not timed: it is
// the warm-up step in which caches fill.
type stepClock struct {
	last  time.Time
	steps []float64
}

func (s *stepClock) tick() {
	now := time.Now()
	if !s.last.IsZero() {
		s.steps = append(s.steps, now.Sub(s.last).Seconds())
	}
	s.last = now
}

// checksums reads the conserved-totals file cubism.Run writes with
// ChecksumPath: hex float64 bit patterns per quantity, plus the count of
// non-finite cells.
func checksums(path string) (map[string]uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	bits := map[string]uint64{}
	var nonFinite int64 = -1
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			return nil, 0, fmt.Errorf("checksums %s: bad line %q", path, sc.Text())
		}
		if k == "nonfinite" {
			nonFinite, err = strconv.ParseInt(v, 10, 64)
		} else {
			bits[k], err = strconv.ParseUint(v, 16, 64)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("checksums %s: %w", path, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if nonFinite < 0 || len(bits) == 0 {
		return nil, 0, fmt.Errorf("checksums %s: incomplete", path)
	}
	return bits, nonFinite, nil
}

// massBand is the cloud.mass_drift band of the verification ladder's short
// mode, the run length closest to a repeat.
func massBand() (float64, error) {
	bands, err := verify.DefaultBands()
	if err != nil {
		return 0, err
	}
	b, ok := bands["short"]["cloud.mass_drift"]
	if !ok || b.Op != "le" {
		return 0, fmt.Errorf("tolerances: no cloud.mass_drift le band in short mode")
	}
	return b.Bound, nil
}

// cloudRun is one cubism.Run of the cloud case from a fresh seeded build.
// After the last step's callback it collects garbage, so the live heap is
// sampled with the whole state in place.
func cloudRun(env *Env, steps int, sumPath string, clock *stepClock) error {
	c, err := cloudCase(env.Seed, env.Nproc)
	if err != nil {
		return err
	}
	cfg := cubism.ScenarioConfig(c)
	cfg.Pipeline = true
	cfg.Steps = steps
	cfg.ChecksumPath = sumPath
	var onStep func(cubism.StepInfo)
	if clock != nil {
		onStep = func(info cubism.StepInfo) {
			clock.tick()
			if info.Step == steps {
				env.collect()
			}
		}
	}
	_, err = cubism.Run(cfg, onStep)
	return err
}

// cloudPhase runs repeats of cloudSteps steps, checking every repeat, and
// returns the timed step walls.
func cloudPhase(env *Env, res *Result, repeats int, mass0 float64) ([]float64, error) {
	band, err := massBand()
	if err != nil {
		return nil, err
	}
	sumPath := filepath.Join(env.Dir, "cloud.sums")
	var steps []float64
	var want map[string]uint64
	for rep := 0; rep < repeats; rep++ {
		env.collect()
		clock := &stepClock{}
		if err := cloudRun(env, cloudSteps, sumPath, clock); err != nil {
			return nil, err
		}
		res.Attempted += cloudSteps
		steps = append(steps, clock.steps...)
		bits, nonFinite, err := checksums(sumPath)
		if err != nil {
			return nil, err
		}
		if nonFinite != 0 {
			res.fail("cloud repeat %d: %d non-finite cells", rep, nonFinite)
		}
		if drift := math.Abs(math.Float64frombits(bits["mass"])-mass0) / math.Abs(mass0); !(drift <= band) {
			res.fail("cloud repeat %d: mass drift %.3g outside band %.3g", rep, drift, band)
		}
		if want == nil {
			want = bits
		} else if !sameBits(bits, want) {
			res.fail("cloud repeat %d: conserved totals differ bitwise from the first repeat", rep)
		}
	}
	return steps, nil
}

func sameBits(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// cloudSetup times the zero-step run — scenario build and cloud sampling,
// rank, grid and pool construction, the initial condition — and returns
// the set-up times and the initial mass.
func cloudSetup(env *Env) ([]float64, float64, error) {
	sumPath := filepath.Join(env.Dir, "cloud0.sums")
	setup, err := repeatSetup(env, func(int) error { return cloudRun(env, 0, sumPath, nil) })
	if err != nil {
		return nil, 0, err
	}
	bits, _, err := checksums(sumPath)
	if err != nil {
		return nil, 0, err
	}
	return setup, math.Float64frombits(bits["mass"]), nil
}

func runCloudCompute(env *Env) (*Result, error) {
	res := &Result{}
	c, err := cloudCase(env.Seed, env.Nproc)
	if err != nil {
		return nil, err
	}
	nCells := cells(c)
	res.WorkingSetBytes = stateBytes(nCells)
	setup, mass0, err := cloudSetup(env)
	if err != nil {
		return nil, err
	}
	if !env.Trace {
		steps, err := cloudPhase(env, res, env.opsFor(1, cloudRepeatSeconds), mass0)
		if err != nil {
			return nil, err
		}
		t := summarize(steps)
		res.named("grind_ns", grindNS(t.P50, nCells, rhsPerStep), "ns", t.N)
		res.timing("step", steps)
		opMetrics(res, setup, steps)
		return res, nil
	}

	// Traced run: an untraced phase for the reference median, then the
	// same steps driven layer by layer with spans, then the kernels alone.
	steps, err := cloudPhase(env, res, env.opsFor(0.4, cloudRepeatSeconds), mass0)
	if err != nil {
		return nil, err
	}
	e2e := median(steps)
	L := map[string]float64{}
	res.Layers = L
	tracedSteps := env.opsFor(0.4, cloudRepeatSeconds/cloudSteps)
	world := mpi.NewWorld(1)
	world.Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, withPipeline(c.Config.Cluster))
		defer r.Close()
		dt := driveLayers(r, tracedSteps, c.Config, env.Rec, nil)
		res.Attempted += tracedSteps
		if nf := r.ConservedTotals().NonFinite; nf != 0 {
			res.fail("traced steps: %d non-finite cells", nf)
		}
		stepLayers(L, env.Rec, e2e, e2e, len(r.Links()))
		t0 := time.Now()
		r.Mon.Kernel("RHSUP").Stats()
		L["perf.stats_us"] = float64(time.Since(t0).Nanoseconds()) / 1e3
		coreLayers(r, env.Seconds/5, dt, L)
	})
	L["node.parallel_eff"] = L["core.rhsup_ns_per_cell"] /
		(float64(env.Nproc) * grindNS(e2e, nCells, rhsPerStep))
	return res, nil
}

func withPipeline(cc cluster.Config) cluster.Config {
	cc.Pipeline = true
	return cc
}

// driveLayers advances r by n steps calling each cluster-layer function
// itself — MaxDT, RKStep and, on the scenario's cadence, Diagnose — with a
// span around each call and the program's counters (comm phases, pool
// stats, wire bytes) recorded at the step boundaries. rec may be nil (the
// other ranks of a traced multi-rank run); netSent may be nil. It returns
// the last time step.
func driveLayers(r *cluster.Rank, n int, cfg sim.Config, rec *Recorder, netSent func() int64) float64 {
	var dt float64
	for i := 0; i < n; i++ {
		g0, w0 := r.CommPhases()
		p0 := r.Engine.PoolStats()
		var b0 int64
		if netSent != nil {
			b0 = netSent()
		}
		st := rec.Start("step", -1)
		sp := rec.Start("cluster.dt", st)
		dt = r.MaxDT()
		rec.End(sp)
		sp = rec.Start("cluster.rk", st)
		r.RKStep(dt)
		rec.End(sp)
		if cfg.DiagEvery == 0 || r.Step%max(cfg.DiagEvery, 1) == 0 {
			sp = rec.Start("cluster.diag", st)
			r.Diagnose(cfg.Wall, cfg.HasWall)
			rec.End(sp)
		}
		rec.End(st)
		g1, w1 := r.CommPhases()
		p1 := r.Engine.PoolStats()
		rec.Count(st, "cluster.ghost_ns", float64(g1-g0))
		rec.Count(st, "cluster.wait_ns", float64(w1-w0))
		rec.Count(st, "node.busy_ns", float64(p1.BusyNS-p0.BusyNS))
		rec.Count(st, "node.idle_ns", float64(p1.IdleNS-p0.IdleNS))
		rec.Count(st, "node.tasks", float64(p1.TasksRun-p0.TasksRun))
		if netSent != nil {
			rec.Count(st, "transport.bytes_sent", float64(netSent()-b0))
		}
	}
	return dt
}

// stepLayers reports the cluster, node and residual metrics of the steps
// driveLayers recorded in rec. e2e is the untraced median step of the
// workload's end-to-end configuration; bare is the untraced median step of
// the configuration the traced steps reproduce (the same, unless the
// workload's program telemetry is on). links is the rank's link count.
func stepLayers(L map[string]float64, rec *Recorder, e2e, bare float64, links int) {
	spans := rec.Spans()
	self := selfTimes(spans)
	var steps, layerSum []float64
	for _, s := range spans {
		if s.Name == "step" {
			d := float64(s.End-s.Start) / 1e9
			steps = append(steps, d)
			layerSum = append(layerSum, d-float64(self[s.ID])/1e9)
		}
	}
	n := float64(len(steps))
	var diag float64
	for _, d := range durations(spans, "cluster.diag") {
		diag += d
	}
	L["cluster.dt_s_per_step"] = median(durations(spans, "cluster.dt"))
	L["cluster.rk_s_per_step"] = median(durations(spans, "cluster.rk"))
	L["cluster.diag_s_per_step"] = diag / n
	L["cluster.ghost_s_per_step"] = rec.CounterSum("cluster.ghost_ns") / 1e9 / n
	L["cluster.halo_wait_s_per_step"] = rec.CounterSum("cluster.wait_ns") / 1e9 / n
	L["cluster.ghost_msgs_per_step"] = float64(rhsPerStep * links)
	busy, idle := rec.CounterSum("node.busy_ns"), rec.CounterSum("node.idle_ns")
	if busy+idle > 0 {
		L["node.busy_frac"] = busy / (busy + idle)
	}
	L["node.idle_s_per_step"] = idle / 1e9 / n
	L["node.tasks_per_step"] = rec.CounterSum("node.tasks") / n
	L["transport.bytes_per_step"] = rec.CounterSum("transport.bytes_sent") / n
	L["sim.unattributed_frac"] = (e2e - median(layerSum)) / e2e
	L["bench.trace_overhead_frac"] = (median(steps) - bare) / bare
}

// --- halo-tcp ---------------------------------------------------------------

// tcpPair connects two single-rank TCP worlds over loopback in this
// process, the way two mpcf-sim processes rendezvous. regs, when non-nil,
// receives each rank's transport counters.
func tcpPair(regs []*telemetry.Registry, onErr func(error)) ([]*mpi.World, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	worlds := make([]*mpi.World, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for rank := 0; rank < 2; rank++ {
		cfg := mpi.TCPConfig{Rank: rank, Size: 2, Coord: ln.Addr().String(), OnError: onErr}
		if rank == 0 {
			cfg.CoordListener = ln
		}
		if regs != nil {
			cfg.Registry = regs[rank]
		}
		wg.Add(1)
		go func(rank int, cfg mpi.TCPConfig) {
			defer wg.Done()
			worlds[rank], errs[rank] = mpi.ConnectTCP(cfg)
		}(rank, cfg)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tcp rank %d connect: %w", rank, err)
		}
	}
	return worlds, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// haloRun is one two-rank TCP sim.Run of the halo case. With telemetry on,
// each rank carries a tracer, a metrics registry and a step log, and the
// observatory writes the merged trace on rank 0 — the production
// multi-rank configuration. It returns rank 0's final conserved totals.
type haloRun struct {
	steps     int
	telemetry bool
	clock     *stepClock
	dir       string
	env       *Env // collects garbage after the last step when set

	totals       cluster.Totals
	stepLogBytes int64
	mergedSpans  int
}

func (h *haloRun) run(c *scenario.Case, wireErr func(error)) error {
	worlds, err := tcpPair(nil, wireErr)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	var logW *countingWriter
	tracePath := filepath.Join(h.dir, "merged.trace.json")
	for rank := 0; rank < 2; rank++ {
		cfg := c.Config
		cfg.Steps = h.steps
		cfg.World = worlds[rank]
		root := rank == 0
		cfg.OnFinish = func(r *cluster.Rank) {
			tot := r.ConservedTotals() // collective
			if root {
				h.totals = tot
			}
		}
		var closeLog func() error
		if h.telemetry {
			f, err := os.Create(filepath.Join(h.dir, fmt.Sprintf("steps.%d.jsonl", rank)))
			if err != nil {
				return err
			}
			cw := &countingWriter{w: f}
			if root {
				logW = cw
			}
			closeLog = f.Close
			cfg.Telemetry = &telemetry.Set{
				Tracer: telemetry.NewTracer(), Metrics: telemetry.NewRegistry(),
				StepLog: telemetry.NewStepLogger(cw),
			}
			cfg.Observe = &sim.ObserveConfig{TracePath: tracePath}
		}
		var onStep func(sim.StepInfo)
		if root && h.clock != nil {
			onStep = func(info sim.StepInfo) {
				h.clock.tick()
				if info.Step == h.steps && h.env != nil {
					h.env.collect()
				}
			}
		}
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			_, errs[rank] = sim.Run(cfg, onStep)
			if closeLog != nil {
				if err := closeLog(); err != nil && errs[rank] == nil {
					errs[rank] = err
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("halo rank %d: %w", rank, err)
		}
	}
	if h.telemetry {
		h.stepLogBytes = logW.n
		n, err := countTraceSpans(tracePath)
		if err != nil {
			return err
		}
		h.mergedSpans = n
	}
	return nil
}

// countTraceSpans counts the complete ("X") events of a Chrome trace file.
func countTraceSpans(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var tf struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return 0, fmt.Errorf("merged trace %s: %w", path, err)
	}
	n := 0
	for _, e := range tf.TraceEvents {
		if e.Ph == "X" {
			n++
		}
	}
	return n, nil
}

// haloReference runs the halo case in one process (inproc transport) and
// returns its final conserved totals: the bits every TCP repeat must match.
func haloReference(c *scenario.Case) (cluster.Totals, error) {
	cfg := c.Config
	cfg.Steps = haloSteps
	var ref cluster.Totals
	cfg.OnFinish = func(r *cluster.Rank) {
		tot := r.ConservedTotals()
		if r.Comm.Rank() == 0 {
			ref = tot
		}
	}
	_, err := sim.Run(cfg, nil)
	return ref, err
}

func totalsBits(t cluster.Totals) [11]uint64 {
	return [11]uint64{
		math.Float64bits(t.Mass), math.Float64bits(t.MomX), math.Float64bits(t.MomY),
		math.Float64bits(t.MomZ), math.Float64bits(t.Energy), math.Float64bits(t.AbsMomSum),
		math.Float64bits(t.GammaMin), math.Float64bits(t.GammaMax),
		math.Float64bits(t.PiMin), math.Float64bits(t.PiMax), uint64(t.NonFinite),
	}
}

// haloPhase runs repeats of haloSteps-step TCP runs, checking each against
// the in-process reference.
func haloPhase(env *Env, res *Result, c *scenario.Case, ref cluster.Totals, telem bool, repeats int) ([]float64, *haloRun, error) {
	var steps []float64
	var last *haloRun
	for rep := 0; rep < repeats; rep++ {
		env.collect()
		h := &haloRun{steps: haloSteps, telemetry: telem, clock: &stepClock{}, dir: env.Dir, env: env}
		err := h.run(c, func(err error) { res.fail("halo repeat %d: wire error: %v", rep, err) })
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += haloSteps
		steps = append(steps, h.clock.steps...)
		if totalsBits(h.totals) != totalsBits(ref) {
			res.fail("halo repeat %d: tcp checksums differ bitwise from the in-process run", rep)
		}
		last = h
	}
	return steps, last, nil
}

func runHaloTCP(env *Env) (*Result, error) {
	res := &Result{}
	c, err := haloCase(env.Seed)
	if err != nil {
		return nil, err
	}
	nCells := cells(c)
	res.WorkingSetBytes = stateBytes(nCells)

	// Set-up: scenario build, TCP rendezvous, rank, grid and pool
	// construction and the initial condition (a zero-step run).
	setup, err := repeatSetup(env, func(int) error {
		cs, err := haloCase(env.Seed)
		if err != nil {
			return err
		}
		h := &haloRun{steps: 0, dir: env.Dir}
		return h.run(cs, func(err error) { res.fail("halo setup: wire error: %v", err) })
	})
	if err != nil {
		return nil, err
	}
	// The in-process reference run happens outside the timed region.
	ref, err := haloReference(c)
	if err != nil {
		return nil, err
	}

	if !env.Trace {
		steps, _, err := haloPhase(env, res, c, ref, true, env.opsFor(1, haloRepeatSeconds))
		if err != nil {
			return nil, err
		}
		t := summarize(steps)
		res.named("grind_ns", grindNS(t.P50, nCells, rhsPerStep), "ns", t.N)
		res.timing("step", steps)
		opMetrics(res, setup, steps)
		return res, nil
	}

	L := map[string]float64{}
	res.Layers = L
	on, last, err := haloPhase(env, res, c, ref, true, env.opsFor(0.3, haloRepeatSeconds))
	if err != nil {
		return nil, err
	}
	off, _, err := haloPhase(env, res, c, ref, false, env.opsFor(0.3, haloRepeatSeconds))
	if err != nil {
		return nil, err
	}
	e2e := median(on)
	L["telemetry.overhead_frac"] = (e2e - median(off)) / median(off)
	L["telemetry.spans_per_step"] = float64(last.mergedSpans) / haloSteps
	L["telemetry.steplog_bytes_per_step"] = float64(last.stepLogBytes) / haloSteps

	tracedSteps := env.opsFor(0.25, haloRepeatSeconds/haloSteps)
	if err := haloTraced(env, res, c, tracedSteps, e2e, median(off), L); err != nil {
		return nil, err
	}
	// The kernels alone, on a single-rank copy of the same problem
	// (two ranks' blocks side by side) after one step.
	cc := withPipeline(c.Config.Cluster)
	cc.RankDims = [3]int{1, 1, 1}
	cc.BlockDims = [3]int{2, 4, 4}
	mpi.NewWorld(1).Run(func(comm *mpi.Comm) {
		r := cluster.NewRank(comm, cc)
		defer r.Close()
		dt := r.Advance()
		coreLayers(r, env.Seconds*3/20, dt, L)
	})
	L["node.parallel_eff"] = L["core.rhsup_ns_per_cell"] / grindNS(e2e, nCells/2, rhsPerStep)
	return res, nil
}

// haloTraced drives both TCP ranks layer by layer for n steps (telemetry
// off, as the program's own instrumentation is not part of the layers
// traced); rank 0 records spans and the wire counters.
func haloTraced(env *Env, res *Result, c *scenario.Case, n int, e2e, bare float64, L map[string]float64) error {
	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	worlds, err := tcpPair(regs, func(err error) { res.fail("halo traced: wire error: %v", err) })
	if err != nil {
		return err
	}
	rankLabel := telemetry.Labels{"rank": "0"}
	sent := regs[0].Counter("mpcf_net_bytes_sent", "", rankLabel)
	var wg sync.WaitGroup
	var links int
	var statsUS float64
	for rank := 0; rank < 2; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			worlds[rank].Run(func(comm *mpi.Comm) {
				r := cluster.NewRank(comm, c.Config.Cluster)
				defer r.Close()
				if rank != 0 {
					driveLayers(r, n, c.Config, nil, nil)
					r.ConservedTotals() // collective
					return
				}
				driveLayers(r, n, c.Config, env.Rec, sent.Value)
				links = len(r.Links())
				if nf := r.ConservedTotals().NonFinite; nf != 0 {
					res.fail("traced steps: %d non-finite cells", nf)
				}
				t0 := time.Now()
				r.Mon.Kernel("RHSUP").Stats()
				statsUS = float64(time.Since(t0).Nanoseconds()) / 1e3
			})
		}(rank)
	}
	wg.Wait()
	for _, w := range worlds {
		if err := w.Err(); err != nil {
			return err
		}
	}
	res.Attempted += n
	stepLayers(L, env.Rec, e2e, bare, links)
	L["perf.stats_us"] = statsUS
	L["transport.retransmits"] = float64(regs[0].Counter("mpcf_net_retransmits", "", rankLabel).Value())
	L["transport.reconnects"] = float64(regs[0].Counter("mpcf_net_reconnects", "", rankLabel).Value())
	return nil
}
