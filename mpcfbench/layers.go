package main

import (
	"runtime"
	"runtime/metrics"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/core"
	"cubism/internal/grid"
	"cubism/internal/wavelet"
)

// layerMetric names one per-layer metric of the traced run. Every traced
// run reports every name; a layer the workload does not exercise reads 0.
type layerMetric struct {
	Name, Unit string
}

var layerMetrics = []layerMetric{
	{"core.rhsup_ns_per_cell", "ns"},
	{"core.rhs_gflops", "GFLOP/s"},
	{"core.rhs_flop_per_byte", "FLOP/B"},
	{"core.up_ns_per_value", "ns"},
	{"core.dt_ns_per_cell", "ns"},
	{"grid.lab_load_ns_per_cell", "ns"},
	{"node.busy_frac", "frac"},
	{"node.idle_s_per_step", "s"},
	{"node.tasks_per_step", "count"},
	{"node.parallel_eff", "frac"},
	{"cluster.dt_s_per_step", "s"},
	{"cluster.rk_s_per_step", "s"},
	{"cluster.diag_s_per_step", "s"},
	{"cluster.ghost_s_per_step", "s"},
	{"cluster.halo_wait_s_per_step", "s"},
	{"cluster.ghost_msgs_per_step", "count"},
	{"transport.bytes_per_step", "B"},
	{"transport.retransmits", "count"},
	{"transport.reconnects", "count"},
	{"wavelet.fwt_ns_per_cell", "ns"},
	{"compress.dec_s", "s"},
	{"compress.enc_s", "s"},
	{"compress.enc_imbalance", "frac"},
	{"compress.rate_p", "ratio"},
	{"compress.rate_g", "ratio"},
	{"dump.write_s", "s"},
	{"dump.bytes_per_snapshot", "B"},
	{"checkpoint.write_mb_per_s", "MB/s"},
	{"checkpoint.read_mb_per_s", "MB/s"},
	{"checkpoint.bytes", "B"},
	{"perf.stats_us", "us"},
	{"telemetry.spans_per_step", "count"},
	{"telemetry.steplog_bytes_per_step", "B"},
	{"telemetry.overhead_frac", "frac"},
	{"sim.unattributed_frac", "frac"},
	{"service.queue_wait_p50_s", "s"},
	{"service.run_p50_s", "s"},
	{"service.events_per_job", "count"},
	{"service.event_bytes_per_job", "B"},
	{"loadgen.late_p90_s", "s"},
	{"bench.trace_overhead_frac", "frac"},
}

// coreLayers times the single-threaded kernels on one block of a live
// single-rank state: lab assembly, the fused RHS+UP stage, the bare RHS, the
// UP update and the DT reduction. Each figure is the median over passes
// filling budget. The rank's halos must be loadable (a single-rank world).
func coreLayers(r *cluster.Rank, budget time.Duration, dt float64, into map[string]float64) {
	b := r.G.Blocks[0]
	n := r.G.N
	cells := float64(n * n * n)
	values := cells * grid.NQ
	lab := grid.NewLab(n)
	rhs := core.NewRHS(n)
	u := make([]float32, len(b.Data))
	reg := make([]float32, len(b.Data))
	out := make([]float32, len(b.Data))
	each := budget / 5

	into["grid.lab_load_ns_per_cell"] = timePasses(each, nil, func() { lab.Load(r.G, r.Cfg.BC, b) }) * 1e9 / cells
	lab.Load(r.G, r.Cfg.BC, b)
	reset := func() { copy(u, b.Data); clear(reg) }
	into["core.rhsup_ns_per_cell"] = timePasses(each, reset, func() {
		rhs.ComputeFused(lab, r.G.H, u, reg, core.RK3A[0], core.RK3B[0], dt)
	}) * 1e9 / cells
	rhsS := timePasses(each, nil, func() { rhs.Compute(lab, r.G.H, out) })
	into["core.rhs_gflops"] = float64(core.RHSFlopsPerCell(n)) * cells / rhsS / 1e9
	into["core.rhs_flop_per_byte"] = core.OperationalIntensityRHS(n) // computed, not measured
	into["core.up_ns_per_value"] = timePasses(each, reset, func() {
		core.UpdateScalar(u, reg, out, core.RK3A[1], core.RK3B[1], dt)
	}) * 1e9 / values
	into["core.dt_ns_per_cell"] = timePasses(each, nil, func() { core.MaxCharVelScalar(b.Data) }) * 1e9 / cells
}

// waveletLayer times the single-threaded forward wavelet transform of one
// block's pressure field.
func waveletLayer(r *cluster.Rank, budget time.Duration, into map[string]float64) {
	n := r.G.N
	field := make([]float32, n*n*n)
	src := make([]float32, n*n*n)
	compress.Pressure.Extract(r.G.Blocks[0], src)
	plan := wavelet.NewFWT3(n)
	into["wavelet.fwt_ns_per_cell"] = timePasses(budget, func() { copy(field, src) },
		func() { plan.Forward(field) }) * 1e9 / float64(n*n*n)
}

// timePasses runs body repeatedly for about budget (at least 5 passes),
// calling reset untimed before each, and returns the median pass time in
// seconds.
func timePasses(budget time.Duration, reset, body func()) float64 {
	var samples []float64
	end := time.Now().Add(budget)
	for len(samples) < 5 || time.Now().Before(end) {
		if reset != nil {
			reset()
		}
		t0 := time.Now()
		body()
		samples = append(samples, time.Since(t0).Seconds())
	}
	return median(samples)
}

// heapPeak tracks the Go heap high-water mark at operation boundaries:
// the live heap a forced collection leaves (Env.collect). Reading it only
// there, never mid-operation, makes the figure independent of when the
// collector happens to run.
type heapPeak struct {
	peak    float64
	samples int
}

func (h *heapPeak) collect() {
	// Twice: the first collection moves sync.Pool contents to the victim
	// cache, the second frees them.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	h.peak = max(h.peak, float64(s[0].Value.Uint64()))
	h.samples++
}
