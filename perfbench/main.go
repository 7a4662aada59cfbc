// Command perfbench is the simulator's benchmark. It runs one workload as
// a closed loop in one process — one simulated run ("op") at a time, each
// on a freshly built machine whose caches start cold — checks every op
// against the committed reference table, and prints its metrics by name
// with their units. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// per-layer ones, from a CPU profile and host-stamped machine events. See
// README.md for the workloads and what each metric should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload paper-faulted --seed 1 --seconds 35 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"acr/internal/bench"
	"acr/internal/fault"
)

// hostThreads caps the OS threads running Go code: the closed loop runs
// one op at a time, and the Workers=2 engine needs two.
const hostThreads = 2

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run: scale-nockpt, paper-faulted or amnesic-workers2")
		seed     = flag.Int64("seed", defaultSeed, "seed for kernel order and error schedules")
		seconds  = flag.Float64("seconds", 10, "host seconds to measure for")
		traceOn  = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		traceDir = flag.String("trace-dir", "", "directory the traced run writes its spans to (Chrome trace-event JSON)")
		regen    = flag.String("regen", "", "rebuild the reference table into this file and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(hostThreads)

	if *regen != "" {
		if err := regenerate(*regen); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st, err := newRunState(w, ref, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("workload %s seed %d: %d ops per pass, %d cores, Workers=%d, GOMAXPROCS=%d, host CPUs %d\n",
		w.Name, *seed, len(st.keys), w.Cores, w.Workers, runtime.GOMAXPROCS(0), runtime.NumCPU())

	budget := time.Duration(*seconds * float64(time.Second))
	var ms *metricSet
	if *traceOn == 0 {
		ms = st.untraced(budget)
	} else {
		ms, err = st.traced(budget, *traceDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	if miss := ms.missing(); len(miss) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: metrics not computed:", miss)
		return 1
	}
	st.printFailures()
	for _, d := range ms.defs {
		line := fmt.Sprintf("%-36s %16.6g %s", d.Name, ms.values[d.Name], d.Unit)
		if n := ms.notes[d.Name]; n != "" {
			line += "  (" + n + ")"
		}
		fmt.Println(line)
	}
	out := map[string]any{
		"correct":   !st.incorrect,
		"attempted": st.attempted,
		"failed":    st.failed,
		"metrics":   metricsJSON(ms),
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

func metricsJSON(ms *metricSet) map[string]any {
	out := map[string]any{}
	for _, d := range ms.defs {
		out[d.Name] = map[string]any{"value": ms.values[d.Name], "unit": d.Unit}
	}
	return out
}

// runState is one run of one workload: its ops, their references and
// error schedules, and the check outcomes so far.
type runState struct {
	w      workload
	seed   int64
	keys   []opKey
	rows   map[opKey]*refRow
	scheds map[opKey]*fault.Schedule
	rng    *rand.Rand
	snap   []int64 // reusable memory-image buffer for digests

	// oracle holds the serial engine's result per op, for Workers>1;
	// first the first completed result per op in this run.
	oracle map[opKey]simStats
	first  map[opKey]simStats
	// refSeed is the seed the reference table's stats were recorded with.
	refSeed int64
	// totals, when set, accumulates every completed op's work counters.
	totals *passTotals

	attempted, failed int
	incorrect         bool
	failures          map[string]int
}

func newRunState(w workload, ref *refTable, seed int64) (*runState, error) {
	st := &runState{
		w: w, seed: seed, keys: w.ops(),
		rows: map[opKey]*refRow{}, scheds: map[opKey]*fault.Schedule{},
		rng:    rand.New(rand.NewSource(seed)),
		oracle: map[opKey]simStats{}, first: map[opKey]simStats{},
		failures: map[string]int{},
		refSeed:  ref.DefaultSeed,
	}
	for _, k := range st.keys {
		row, err := ref.row(w.Name, k)
		if err != nil {
			return nil, err
		}
		if row.Cores != w.Cores || row.Workers != w.Workers {
			return nil, fmt.Errorf("reference row %s %v is for %d cores / %d workers", w.Name, k, row.Cores, row.Workers)
		}
		st.rows[k] = row
		if row.KnownDefect != "" {
			continue
		}
		s, err := drawSchedule(seed, k, row)
		if err != nil {
			return nil, err
		}
		if seed == ref.DefaultSeed && !row.Errors.matches(s) {
			return nil, fmt.Errorf("%s %v: the default seed's schedule no longer matches the reference table", w.Name, k)
		}
		st.scheds[k] = s
	}
	return st, nil
}

// pass holds the completed ops of one run over every op of the workload.
type pass map[opKey]opOutcome

// throughput gives sim-MIPS and one pass's set-up time. sim-MIPS pools
// every completed op: all their instructions over all their Run time, so
// a run that spans a change in host speed averages over it. Set-up time
// is each op's median over the passes, summed over the ops.
func throughput(passes []pass) (mips, setupS float64) {
	setups := map[opKey][]float64{}
	var in, run float64
	for _, p := range passes {
		for k, o := range p {
			in += float64(o.Res.Instrs)
			run += o.RunS
			setups[k] = append(setups[k], o.SetupS)
		}
	}
	for _, s := range setups {
		setupS += median(s)
	}
	return ratio(in, run) / 1e6, setupS
}

func (st *runState) runPass(tr *tracer) pass {
	p := pass{}
	for _, k := range st.w.shuffled(st.rng) {
		out := execOp(st.w, k, st.rows[k], st.scheds[k], tr, &st.snap)
		st.attempted++
		if msg, wrong := st.check(k, out); msg != "" {
			st.failed++
			st.failures[k.String()+": "+msg]++
			if wrong {
				st.incorrect = true
			}
			continue
		}
		if st.totals != nil {
			st.totals.add(out, st.w.Cores, strategy(k.Config).Amnesic())
		}
		out.Res.Mem.PerCore = nil // keep only what the figures need
		p[k] = out
	}
	return p
}

// check compares one op with its reference. It returns a failure message
// (empty when the op passes) and whether the failure is a wrong output, as
// opposed to an op that could not complete.
func (st *runState) check(k opKey, out opOutcome) (msg string, wrong bool) {
	row := st.rows[k]
	if out.Err != nil {
		return out.Err.Error(), false
	}
	if row.KnownDefect != "" {
		return "completed, but the reference records it as a known defect; regenerate the table", false
	}
	if out.Digest != row.Digest {
		return fmt.Sprintf("final memory %s differs from the error-free image %s", out.Digest, row.Digest), true
	}
	s := st.scheds[k]
	want := int64(0)
	if s != nil {
		want = int64(len(s.Times))
	}
	if out.Res.Ckpt.Recoveries != want {
		return fmt.Sprintf("recovered %d times, want %d", out.Res.Ckpt.Recoveries, want), true
	}
	got := statsOf(out.Res, out.Digest)
	if (s == nil || st.seed == st.refSeed) && got != *row.Stats {
		return fmt.Sprintf("simulated stats %+v differ from the reference %+v", got, *row.Stats), true
	}
	if o, ok := st.oracle[k]; ok && got != o {
		return fmt.Sprintf("Workers=%d result %+v differs from the serial engine's %+v", st.w.Workers, got, o), true
	}
	if f, ok := st.first[k]; ok && got != f {
		return "result differs from this op's earlier run", true
	}
	st.first[k] = got
	return "", false
}

// warmUp runs one op untimed, so the first timed op does not pay for
// growing the heap to its working size.
func (st *runState) warmUp() {
	for _, k := range st.keys {
		if st.rows[k].KnownDefect == "" {
			execOp(st.w, k, st.rows[k], st.scheds[k], nil, &st.snap)
			return
		}
	}
}

// runOracle runs every op once on the serial engine, untimed, so Workers>1
// results can be compared with it bit for bit.
func (st *runState) runOracle() {
	serial := st.w
	serial.Workers = 1
	for _, k := range st.keys {
		if st.rows[k].KnownDefect != "" {
			continue
		}
		out := execOp(serial, k, st.rows[k], st.scheds[k], nil, &st.snap)
		if out.Err != nil {
			st.failures[k.String()+": serial oracle: "+out.Err.Error()]++
			st.incorrect = true
			continue
		}
		st.oracle[k] = statsOf(out.Res, out.Digest)
	}
}

// minPasses is the fewest passes an untraced measurement makes, whatever
// its budget: setup_s's per-op medians need three samples, and op_s_tail's
// percentile is fixed by the op count of three passes. A traced run makes
// at least minTracedPairs untraced/traced pass pairs; its counters are
// deterministic, so fewer passes suffice.
const (
	minPasses      = 3
	minTracedPairs = 2
)

// loop runs whole passes until the budget is spent, stopping when the
// next pass would end further past the budget than short of it.
func (st *runState) loop(budget time.Duration) []pass {
	start := time.Now()
	var passes []pass
	for {
		passes = append(passes, st.runPass(nil))
		el := time.Since(start)
		if len(passes) >= minPasses && el+el/time.Duration(2*len(passes)) >= budget {
			return passes
		}
	}
}

// tailPct is the op_s_tail percentile: the highest with at least ten
// completed ops beyond it in minPasses passes. It depends only on the
// workload, so runs that fit different numbers of passes report the same
// percentile.
func (st *runState) tailPct() float64 {
	n := 0
	for _, k := range st.keys {
		if st.rows[k].KnownDefect == "" {
			n += minPasses
		}
	}
	return 100 * (1 - 10/float64(n))
}

// untraced measures the end-to-end metrics. The Workers>1 oracle pass
// doubles as the warm-up.
func (st *runState) untraced(budget time.Duration) *metricSet {
	if st.w.Workers > 1 {
		st.runOracle()
	} else {
		st.warmUp()
	}
	passes := st.loop(budget)
	ms := newMetricSet(endToEnd)
	var opRun []float64
	var heap uint64
	for _, p := range passes {
		for _, o := range p {
			opRun = append(opRun, o.RunS)
			heap = max(heap, o.HeapBytes)
		}
	}
	mips, setup := throughput(passes)
	per := make([]string, len(passes))
	for i := range passes {
		m, _ := throughput(passes[i : i+1])
		per[i] = fmt.Sprintf("%.4g", m)
	}
	ms.set("sim_mips", mips, fmt.Sprintf("instructions over Run time of all completed ops; %d passes at %s", len(passes), strings.Join(per, " ")))
	ms.set("op_s_p50", percentile(opRun, 50), fmt.Sprintf("n=%d completed ops", len(opRun)))
	pct := st.tailPct()
	ms.set("op_s_tail", percentile(opRun, pct), fmt.Sprintf("p%.1f, n=%d completed ops", pct, len(opRun)))
	ms.set("setup_s", setup, fmt.Sprintf("Build+New of one pass, per-op medians over %d passes", len(passes)))
	ms.set("heap_peak_mb", float64(heap)/1e6, "live heap right after Run, machine resident, max over ops")
	ms.set("ops_ok_ratio", ratio(float64(st.attempted-st.failed), float64(st.attempted)),
		fmt.Sprintf("%d of %d ops failed", st.failed, st.attempted))
	return ms
}

// traced runs one warm-up pass, then alternates untraced and traced
// passes until the budget is spent, so host drift hits both sides alike:
// the untraced passes give the tracing overhead, and the traced ones run
// under a CPU profile of the process with host-stamped spans and machine
// events. It writes the spans
// to traceDir when one is given.
func (st *runState) traced(budget time.Duration, traceDir string) (*metricSet, error) {
	if st.w.Workers > 1 {
		st.runOracle()
	}
	// An untimed first pass grows the heap to its working size, so that
	// cost does not land on whichever side of the comparison runs first.
	st.runPass(nil)
	tr := newTracer()
	t := &passTotals{}
	var lt layerTimes
	var plain, passes []pass
	var allocs float64
	start := time.Now()
	for {
		plain = append(plain, st.runPass(nil))

		var prof bytes.Buffer
		st.totals = t
		alloc0 := readMetric("/gc/heap/allocs:bytes")
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		passes = append(passes, st.runPass(tr))
		pprof.StopCPUProfile()
		allocs += float64(readMetric("/gc/heap/allocs:bytes") - alloc0)
		st.totals = nil
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		if err := lt.fold(p); err != nil {
			return nil, err
		}

		el := time.Since(start)
		if len(passes) >= minTracedPairs && el+el/time.Duration(2*len(passes)) >= budget {
			break
		}
	}
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", st.w.Name, st.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	}

	n := float64(len(passes))
	kinstr := t.instrs / 1000

	ms := newMetricSet(perLayer)
	perPass := fmt.Sprintf("per pass, %d traced passes", len(passes))
	for _, l := range layers {
		ms.set(l+".self_s", lt.self[l]/n, perPass)
		ms.set(l+".self_share", ratio(lt.self[l], lt.total), "of traced host CPU time")
	}
	ms.set("sim.sched.dispatches_per_kinstr", ratio(t.spans, kinstr), "")
	ms.set("sim.sched.avg_quantum_instrs", ratio(t.spanInstrs, t.spans), "")
	ms.set("sim.sched.eager_share", ratio(t.eagerInstrs, t.instrs), "")
	ms.set("cpu.instrs", t.instrs/n, "per pass")
	ms.set("cpu.sim_ipc", ratio(t.instrs, t.cycleCores), "per core")
	ms.set("mem.l1d_accesses_per_kinstr", ratio(t.l1dAcc, kinstr), "")
	ms.set("mem.l1d_miss_ratio", ratio(t.l1dMiss, t.l1dAcc), "")
	ms.set("mem.l2_miss_ratio", ratio(t.l2Miss, t.l2Acc), "")
	ms.set("mem.dram_fills_per_kinstr", ratio(t.fills, kinstr), "")
	ms.set("mem.flushed_lines", t.flushed/n, "per pass")
	ms.set("mem.comm_edges_per_kinstr", ratio(t.comm, kinstr), "")
	ms.set("slice.tracked_ops_per_kinstr", ratio(t.tracked, kinstr), "IntOp+FloatOp events of amnesic ops")
	ms.set("slice.assoc_attempts_per_kinstr", ratio(t.assocAttempts, kinstr), "")
	ms.set("core.addrmap_inserts_per_kinstr", ratio(t.inserts, kinstr), "")
	ms.set("core.addrmap_hit_ratio", ratio(t.hits, t.lookups), "")
	ms.set("core.addrmap_rejected", t.rejected/n, "per pass")
	ms.set("core.addrmap_peak_occupancy", t.peakOcc, "max over ops")
	ms.set("ckpt.checkpoints", t.checkpoints/n, "per pass")
	ms.set("ckpt.logged_words_per_kinstr", ratio(t.logged, kinstr), "")
	ms.set("ckpt.omission_ratio", ratio(t.omitted, t.logged+t.omitted), "omitted/(logged+omitted)")
	ms.set("ckpt.restored_words", t.restored/n, "per pass")
	ms.set("ckpt.recomputed_words", t.recomputed/n, "per pass")
	ms.set("sim.recovery.count", float64(tr.recoveries)/n, "per pass")
	ms.set("sim.recovery.sim_cycles", float64(tr.recoverySimCycles)/n, "EvRecovery Dur, per pass")
	ms.set("sim.recovery.host_s", tr.recoveryHost.Seconds()/n, "EvError to EvRecovery delivery, per pass")
	ms.set("sim.parallel.rounds_per_kinstr", ratio(t.rounds, kinstr), "")
	ms.set("sim.parallel.abort_ratio", ratio(t.aborted, t.rounds), "")
	ms.set("sim.parallel.spec_share", ratio(t.specInstrs, t.instrs), "")
	ms.set("sim.parallel.replay_share", ratio(t.replayInstrs, t.instrs), "")
	ms.set("runtime.gc_s", lt.gc/n, "per pass, no frame of this module")
	ms.set("runtime.sched_s", lt.sched/n, "per pass, no frame of this module")
	ms.set("runtime.alloc_bytes_per_kinstr", ratio(allocs, kinstr), "")
	tRed, eRed, sRed, k := paperFigures(passes[0], bench.BenchNames())
	note := fmt.Sprintf("mean over %d kernels", k)
	ms.set("sim_time_ovh_reduction_pct", tRed, note)
	ms.set("sim_energy_ovh_reduction_pct", eRed, note)
	ms.set("sim_ckpt_size_reduction_pct", sRed, note)
	ms.set("bench.traced_host_s", lt.total/n, "profiled host CPU time per pass")
	ms.set("bench.unmapped_s", lt.unmapped/n, "samples in module packages no layer claims")
	mp, _ := throughput(plain)
	mt, _ := throughput(passes)
	ms.set("bench.trace_overhead_pct", 100*ratio(mp-mt, mp),
		fmt.Sprintf("sim_mips untraced %.4g (%d passes) vs traced %.4g (%d passes)", mp, len(plain), mt, len(passes)))
	return ms, nil
}

func (st *runState) printFailures() {
	msgs := make([]string, 0, len(st.failures))
	for m := range st.failures {
		msgs = append(msgs, m)
	}
	sort.Strings(msgs)
	for _, m := range msgs {
		fmt.Printf("failed x%d: %s\n", st.failures[m], m)
	}
}
