// Command mpcfbench is the solver's benchmark: it drives the program from
// outside through the public functions of each layer, on one of four
// seeded workloads, checks every output for correctness, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}
//
// Run it from the repository root, through the wrapper that builds it:
//
//	bash mpcfbench/run.sh --workload cloud-compute --seed 1 --seconds 20 --trace 0
//
// See mpcfbench/README.md for the workloads, the metrics and the
// predictions each layer metric makes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// outDir holds run artifacts (records, traces, scratch files), relative to
// the directory the benchmark runs in.
const outDir = ".mpcfbench"

// Env is what a workload is given: its seed, its measuring time, whether
// this is the traced run, and a private scratch directory.
type Env struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	Nproc   int
	Dir     string
	Rec     *Recorder // nil on untraced runs
	heap    heapPeak
}

// collect runs a garbage collection outside any timed region, at an
// operation boundary, and samples the live heap it leaves. It is safe to
// call only from one goroutine at a time.
func (e *Env) collect() { e.heap.collect() }

// opsFor sizes a run: the number of operations of about opSeconds each
// that fill part of the run's measuring time (at least one). A fixed count
// per --seconds keeps the work, and so the tail percentile, the same on
// every run and on both sides of a comparison.
func (e *Env) opsFor(part, opSeconds float64) int {
	return max(1, int(e.Seconds.Seconds()*part/opSeconds+0.5))
}

// Metric is one reported value with its unit and sample count.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Pct is the percentile a tail timing reports (0 for other metrics).
	Pct float64 `json:"pct,omitempty"`
}

// Result is what a workload run returns.
type Result struct {
	Attempted int
	mu        sync.Mutex // guards Failures: wire-error callbacks report from transport goroutines
	Failures  []string
	// EndToEnd are the gated metrics of an untraced run (BENCHMARK.json): every
	// workload reports the same names.
	EndToEnd []Metric
	// Named are the workload's own end-to-end figures under their own
	// names (grind_ns, snapshot_p50_s, job_p50_s, ...), printed with unit
	// and sample count next to EndToEnd.
	Named []Metric
	// Layers are the per-layer metrics of a traced run.
	Layers map[string]float64
	// WorkingSetBytes is the solver state the workload keeps live.
	WorkingSetBytes int64
	// Samples keeps the raw timings behind each named timing, in run
	// order, for the run record.
	Samples map[string][]float64
}

func (r *Result) fail(format string, args ...any) {
	r.mu.Lock()
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	r.mu.Unlock()
}

func (r *Result) named(name string, v float64, unit string, n int) {
	r.Named = append(r.Named, Metric{Name: name, Value: v, Unit: unit, N: n})
}

// timing adds the median and tail of a set of latency samples under the
// names <prefix>_p50_s and <prefix>_tail_s.
func (r *Result) timing(prefix string, xs []float64) {
	t := summarize(xs)
	if r.Samples == nil {
		r.Samples = map[string][]float64{}
	}
	r.Samples[prefix] = xs
	r.Named = append(r.Named,
		Metric{Name: prefix + "_p50_s", Value: t.P50, Unit: "s", N: t.N},
		Metric{Name: prefix + "_tail_s", Value: t.Tail, Unit: "s", N: t.N, Pct: t.TailPct})
}

var workloads = map[string]func(env *Env) (*Result, error){
	"cloud-compute": runCloudCompute,
	"halo-tcp":      runHaloTCP,
	"snapshot-io":   runSnapshotIO,
	"jobs-open":     runJobsOpen,
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Int("seconds", 20, "measuring time per run, seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "mpcfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func run(name string, seed int64, secs int, traced bool) error {
	runWorkload, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	if secs < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	recDir := filepath.Join(outDir, "records")
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	env := &Env{
		Seed: seed, Seconds: time.Duration(secs) * time.Second, Trace: traced,
		Nproc: runtime.NumCPU(), Dir: dir,
	}
	runID := fmt.Sprintf("%s-s%d-t%d-%d", name, seed, b2i(traced), time.Now().UnixNano())
	if traced {
		env.Rec = newRecorder(runID)
	}

	res, err := runWorkload(env)
	if err != nil {
		return err
	}
	if !traced {
		res.EndToEnd = append(res.EndToEnd,
			Metric{Name: "peak_heap_mb", Value: env.heap.peak / 1e6, Unit: "MB", N: env.heap.samples})
	}

	info := hostInfo(seed, env.Nproc, res.WorkingSetBytes)
	printReport(os.Stdout, name, info, res, traced)

	if env.Rec != nil {
		if err := env.Rec.WriteFile(filepath.Join(recDir, runID+".trace.json")); err != nil {
			return err
		}
	}
	if err := writeRecord(filepath.Join(recDir, runID+".json"), name, info, res, traced); err != nil {
		return err
	}

	line := resultLine(res, traced)
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		return fmt.Errorf("%d of %d operations failed", line.Failed, line.Attempted)
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

func resultLine(res *Result, traced bool) resultJSON {
	failed := len(res.Failures)
	line := resultJSON{
		Correct:   failed == 0 && res.Attempted > 0,
		Attempted: max(res.Attempted, 1),
		Failed:    failed,
		Metrics:   map[string]valueUnit{},
	}
	if traced {
		for _, m := range layerMetrics {
			v := res.Layers[m.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			line.Metrics[m.Name] = valueUnit{v, m.Unit}
		}
		return line
	}
	for _, m := range res.EndToEnd {
		line.Metrics[m.Name] = valueUnit{m.Value, m.Unit}
	}
	return line
}

// HostInfo is recorded with every output so results can be compared only
// where they are comparable.
type HostInfo struct {
	Seed            int64  `json:"seed"`
	Nproc           int    `json:"nproc"`
	LLC             string `json:"llc"`
	GoVersion       string `json:"go_version"`
	WorkingSetBytes int64  `json:"working_set_bytes"`
}

func hostInfo(seed int64, nproc int, ws int64) HostInfo {
	return HostInfo{Seed: seed, Nproc: nproc, LLC: llcSize(), GoVersion: runtime.Version(), WorkingSetBytes: ws}
}

// llcSize reads the largest cache level's size from sysfs ("unknown" where
// the kernel does not expose it).
func llcSize() string {
	best, size := -1, "unknown"
	for i := 0; i < 8; i++ {
		base := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(base + "level")
		if err != nil {
			continue
		}
		sz, err := os.ReadFile(base + "size")
		if err != nil {
			continue
		}
		var level int
		fmt.Sscan(string(lv), &level)
		if level > best {
			best, size = level, strings.TrimSpace(string(sz))
		}
	}
	return size
}

func printReport(w io.Writer, name string, info HostInfo, res *Result, traced bool) {
	fmt.Fprintf(w, "workload %s  seed %d  nproc %d  llc %s  %s  working set %.1f MB\n",
		name, info.Seed, info.Nproc, info.LLC, info.GoVersion, float64(info.WorkingSetBytes)/1e6)
	fmt.Fprintf(w, "operations attempted %d  failed %d  error_rate %.4g\n",
		res.Attempted, len(res.Failures), float64(len(res.Failures))/float64(max(res.Attempted, 1)))
	for _, f := range res.Failures {
		fmt.Fprintln(w, "  FAIL", f)
	}
	if traced {
		for _, m := range layerMetrics {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.Name, res.Layers[m.Name], m.Unit)
		}
		return
	}
	for _, m := range res.Named {
		fmt.Fprintf(w, "  %-20s %14.6g %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, pctNote(m))
	}
	for _, m := range res.EndToEnd {
		fmt.Fprintf(w, "  %-20s %14.6g %-6s n=%d%s  (BENCHMARK.json)\n", m.Name, m.Value, m.Unit, m.N, pctNote(m))
	}
}

func pctNote(m Metric) string {
	if m.Pct == 0 {
		return ""
	}
	return fmt.Sprintf(" p%g", m.Pct)
}

func writeRecord(path, name string, info HostInfo, res *Result, traced bool) error {
	doc := map[string]any{
		"workload":  name,
		"traced":    traced,
		"host":      info,
		"attempted": res.Attempted,
		"failures":  res.Failures,
	}
	if traced {
		doc["layers"] = res.Layers
	} else {
		doc["named"] = res.Named
		doc["end_to_end"] = res.EndToEnd
		doc["samples"] = res.Samples
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const (
	// setupReps and setupBudget bound how often a run sets its workload up
	// from scratch: at least setupReps times and until setupBudget has
	// passed, so a fast set-up gets enough samples for a steady median.
	setupReps   = 3
	setupBudget = time.Second
	setupMax    = 200
)

// repeatSetup times body (called with the repetition index) as often as
// the set-up rules above ask and returns the durations in seconds.
func repeatSetup(env *Env, body func(i int) error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for i := 0; i < setupMax && (i < setupReps || time.Since(start) < setupBudget); i++ {
		env.collect() // every set-up starts from the same collected heap
		t0 := time.Now()
		if err := body(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// opMetrics turns the samples of a workload's unit operation into the
// gated metrics shared by every workload.
func opMetrics(res *Result, setup []float64, op []float64) {
	t := summarize(op)
	res.EndToEnd = append(res.EndToEnd,
		Metric{Name: "setup_s", Value: median(setup), Unit: "s", N: len(setup)},
		Metric{Name: "op_p50_s", Value: t.P50, Unit: "s", N: t.N},
		Metric{Name: "op_tail_s", Value: t.Tail, Unit: "s", N: t.N, Pct: t.TailPct},
	)
}
