package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cubism/internal/cluster"
	"cubism/internal/compress"
	"cubism/internal/dump"
	"cubism/internal/mpi"
	"cubism/internal/scenario"
)

const (
	// snapshotEvolve is how many steps set-up advances the cloud before the
	// snapshot loop, so the dumped fields carry developed structure.
	snapshotEvolve = 2
	// snapshotEncoder is the default lossless dump coder.
	snapshotEncoder = "zlib"
	// snapshotCycleSeconds is the nominal wall time of one cycle with its
	// checks on a 2-core x86-64 host; it sizes each run's fixed cycle
	// count (Env.opsFor).
	snapshotCycleSeconds = 0.31
	// errorGain bounds a decoded dump's pointwise error as a multiple of
	// ε × the block's largest magnitude (the compress package's own bound).
	errorGain = 25
)

// snapshotQuantities are the paper's dump set: p at ε=1e-2, Γ at ε=1e-3.
var snapshotQuantities = []struct {
	q   compress.Quantity
	eps float64
}{{compress.Pressure, 1e-2}, {compress.Gamma, 1e-3}}

// snapshotOp is one timed cycle: dump p and Γ, write a checkpoint, restore
// it. It keeps the three durations and the compression stats.
type snapshotOp struct {
	snapshot, checkpoint, restore time.Duration
	stats                         []compress.Stats
}

// cycle runs one snapshot cycle, with a span around each layer call when
// rec is set and the perf monitor's dump-write ("IO") time recorded as a
// counter of the cycle.
func (s *snapshotState) cycle(rec *Recorder) (snapshotOp, error) {
	r := s.r
	var op snapshotOp
	io0 := r.Mon.Kernel("IO").Stats().Total
	root := rec.Start("cycle", -1)
	t0 := time.Now()
	for i, dq := range snapshotQuantities {
		sp := rec.Start("cluster.dump", root)
		st, _, err := r.DumpTo(cluster.DumpTarget{Path: s.dumpPaths[i]}, dq.q, dq.eps, snapshotEncoder)
		rec.End(sp)
		if err != nil {
			return op, err
		}
		op.stats = append(op.stats, st)
	}
	t1 := time.Now()
	sp := rec.Start("cluster.checkpoint", root)
	err := r.SaveCheckpoint(s.ckpPath)
	rec.End(sp)
	if err != nil {
		return op, err
	}
	t2 := time.Now()
	sp = rec.Start("cluster.restore", root)
	err = r.RestoreCheckpoint(s.ckpPath)
	rec.End(sp)
	if err != nil {
		return op, err
	}
	t3 := time.Now()
	rec.End(root)
	rec.Count(root, "dump.io_ns", float64(r.Mon.Kernel("IO").Stats().Total-io0))
	op.snapshot, op.checkpoint, op.restore = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return op, nil
}

// snapshotState is the evolved rank the loop snapshots, with the pristine
// copy of its state every restore must reproduce bitwise.
type snapshotState struct {
	r         *cluster.Rank
	pristine  [][]float32
	step      int
	time      float64
	dumpPaths []string
	ckpPath   string
	// first holds the first cycle's dump bytes; every later dump must be
	// identical.
	first [][]byte
}

// checkCycle verifies one cycle's outputs: dump bytes identical to the
// first cycle's (the first cycle's dumps are decoded and checked against
// the ε bound), and the restored state bitwise equal to the saved one.
func (s *snapshotState) checkCycle(res *Result, i int) {
	for qi, path := range s.dumpPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			res.fail("cycle %d: read dump: %v", i, err)
			continue
		}
		if s.first[qi] == nil {
			if err := s.checkDecode(path, snapshotQuantities[qi].q, snapshotQuantities[qi].eps); err != nil {
				res.fail("cycle %d: %v", i, err)
			}
			s.first[qi] = data
		} else if !bytes.Equal(data, s.first[qi]) {
			res.fail("cycle %d: %s dump bytes differ from the first cycle's", i, snapshotQuantities[qi].q)
		}
	}
	r := s.r
	if r.Step != s.step || r.Time != s.time {
		res.fail("cycle %d: restore gave step %d t=%g, saved %d t=%g", i, r.Step, r.Time, s.step, s.time)
	}
	for bi, b := range r.G.Blocks {
		if !slices.Equal(b.Data, s.pristine[bi]) {
			res.fail("cycle %d: restored block %d differs bitwise from the saved state", i, bi)
			break
		}
	}
}

// checkDecode reads a dump back with dump.Read, decompresses it and checks
// every value against the live field within errorGain × ε × block max.
func (s *snapshotState) checkDecode(path string, q compress.Quantity, eps float64) error {
	_, payloads, err := dump.Read(path)
	if err != nil {
		return fmt.Errorf("dump %s: %w", q, err)
	}
	if len(payloads) != 1 {
		return fmt.Errorf("dump %s: %d rank payloads, want 1", q, len(payloads))
	}
	fields, err := payloads[0].Decompress()
	if err != nil {
		return fmt.Errorf("dump %s: %w", q, err)
	}
	n := s.r.G.N
	want := make([]float32, n*n*n)
	for bi, b := range s.r.G.Blocks {
		q.Extract(b, want)
		var scale float64
		for _, v := range want {
			scale = math.Max(scale, math.Abs(float64(v)))
		}
		bound := errorGain * eps * scale
		for i, v := range want {
			if e := math.Abs(float64(fields[bi][i] - v)); !(e <= bound) {
				return fmt.Errorf("dump %s block %d: error %.3g beyond bound %.3g", q, bi, e, bound)
			}
		}
	}
	return nil
}

// snapshotSetup builds the cloud in 2×2×2 blocks of 32³ (64³ cells, four
// blocks per ENC worker on two cores), constructs the rank and evolves it;
// it runs inside the world's rank goroutine.
func snapshotSetup(comm *mpi.Comm, env *Env) (*snapshotState, error) {
	c, err := scenario.Build("cloud", scenario.Params{
		Blocks: [3]int{2, 2, 2}, BlockSize: 32, Workers: env.Nproc, Seed: env.Seed,
	})
	if err != nil {
		return nil, err
	}
	r := cluster.NewRank(comm, withPipeline(c.Config.Cluster))
	for i := 0; i < snapshotEvolve; i++ {
		r.Advance()
	}
	s := &snapshotState{
		r: r, step: r.Step, time: r.Time,
		ckpPath: filepath.Join(env.Dir, "state.ckp"),
		first:   make([][]byte, len(snapshotQuantities)),
	}
	for _, dq := range snapshotQuantities {
		s.dumpPaths = append(s.dumpPaths, filepath.Join(env.Dir, dq.q.String()+".mpcf"))
	}
	for _, b := range r.G.Blocks {
		s.pristine = append(s.pristine, slices.Clone(b.Data))
	}
	return s, nil
}

func runSnapshotIO(env *Env) (*Result, error) {
	res := &Result{}
	var runErr error
	mpi.NewWorld(1).Run(func(comm *mpi.Comm) {
		runErr = snapshotRun(comm, env, res)
	})
	return res, runErr
}

func snapshotRun(comm *mpi.Comm, env *Env, res *Result) error {
	var s *snapshotState
	setup, err := repeatSetup(env, func(int) error {
		if s != nil {
			s.r.Close()
		}
		var err error
		s, err = snapshotSetup(comm, env)
		return err
	})
	if err != nil {
		return err
	}
	defer s.r.Close()
	nCells := int64(s.r.G.Cells())
	res.WorkingSetBytes = stateBytes(nCells)

	loop := func(cycles int, rec *Recorder) ([]snapshotOp, error) {
		var ops []snapshotOp
		for i := 0; i < cycles; i++ {
			env.collect()
			op, err := s.cycle(rec)
			if err != nil {
				return nil, err
			}
			res.Attempted += len(snapshotQuantities) + 2 // dumps, checkpoint, restore
			s.checkCycle(res, len(ops))
			ops = append(ops, op)
		}
		return ops, nil
	}
	cycleTimes := func(ops []snapshotOp) (cyc, snap, ckp, rst []float64) {
		for _, op := range ops {
			cyc = append(cyc, (op.snapshot + op.checkpoint + op.restore).Seconds())
			snap = append(snap, op.snapshot.Seconds())
			ckp = append(ckp, op.checkpoint.Seconds())
			rst = append(rst, op.restore.Seconds())
		}
		return
	}

	if !env.Trace {
		ops, err := loop(env.opsFor(1, snapshotCycleSeconds), nil)
		if err != nil {
			return err
		}
		cyc, snap, ckp, rst := cycleTimes(ops)
		res.timing("snapshot", snap)
		res.timing("cycle", cyc)
		res.named("checkpoint_p50_s", median(ckp), "s", len(ckp))
		res.named("restore_p50_s", median(rst), "s", len(rst))
		var raw, enc int64
		for _, st := range ops[0].stats {
			raw += st.RawBytes
			enc += st.Encoded
		}
		res.named("dump_ratio", float64(raw)/float64(enc), "ratio", len(ops))
		opMetrics(res, setup, cyc)
		return nil
	}

	L := map[string]float64{}
	res.Layers = L
	plain, err := loop(env.opsFor(0.4, snapshotCycleSeconds), nil)
	if err != nil {
		return err
	}
	e2eCyc, _, _, _ := cycleTimes(plain)
	e2e := median(e2eCyc)
	p0 := s.r.Engine.PoolStats()
	traced, err := loop(env.opsFor(0.4, snapshotCycleSeconds), env.Rec)
	if err != nil {
		return err
	}
	p1 := s.r.Engine.PoolStats()
	n := float64(len(traced))
	spans := env.Rec.Spans()
	self := selfTimes(spans)
	var layerSum []float64
	for _, sp := range spans {
		if sp.Name == "cycle" {
			layerSum = append(layerSum, float64(sp.End-sp.Start-self[sp.ID])/1e9)
		}
	}
	L["sim.unattributed_frac"] = (e2e - median(layerSum)) / e2e
	L["bench.trace_overhead_frac"] = (median(durations(spans, "cycle")) - e2e) / e2e

	var dec, enc, imb []float64
	for _, op := range traced {
		var d, e time.Duration
		var im float64
		for _, st := range op.stats {
			for w := range st.DecTimes {
				d += st.DecTimes[w]
				e += st.EncTimes[w]
			}
			im += compress.Imbalance(st.EncTimes) / float64(len(op.stats))
		}
		dec = append(dec, d.Seconds())
		enc = append(enc, e.Seconds())
		imb = append(imb, im)
	}
	L["compress.dec_s"] = median(dec)
	L["compress.enc_s"] = median(enc)
	L["compress.enc_imbalance"] = median(imb)
	L["compress.rate_p"] = traced[0].stats[0].Rate()
	L["compress.rate_g"] = traced[0].stats[1].Rate()
	L["dump.write_s"] = env.Rec.CounterSum("dump.io_ns") / 1e9 / n
	var dumpBytes int64
	for _, b := range s.first {
		dumpBytes += int64(len(b))
	}
	L["dump.bytes_per_snapshot"] = float64(dumpBytes)
	fi, err := os.Stat(s.ckpPath)
	if err != nil {
		return err
	}
	ckpMB := float64(fi.Size()) / 1e6
	L["checkpoint.bytes"] = float64(fi.Size())
	L["checkpoint.write_mb_per_s"] = ckpMB / median(durations(spans, "cluster.checkpoint"))
	L["checkpoint.read_mb_per_s"] = ckpMB / median(durations(spans, "cluster.restore"))
	if tot := (p1.BusyNS - p0.BusyNS) + (p1.IdleNS - p0.IdleNS); tot > 0 {
		L["node.busy_frac"] = float64(p1.BusyNS-p0.BusyNS) / float64(tot)
	}
	L["node.idle_s_per_step"] = float64(p1.IdleNS-p0.IdleNS) / 1e9 / n
	L["node.tasks_per_step"] = float64(p1.TasksRun-p0.TasksRun) / n
	waveletLayer(s.r, env.Seconds/5, L)
	return nil
}
