package main

import (
	"math"
	"sort"

	"acr/internal/stats"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the untraced run's metrics (--trace 0).
var endToEnd = []metricDef{
	{"sim_mips", "Minstr/s", "higher"},
	{"op_s_p50", "s", "lower"},
	{"op_s_tail", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_peak_mb", "MB", "lower"},
	{"ops_ok_ratio", "ratio", "higher"},
}

// perLayer are the traced run's metrics (--trace 1). Work counters are
// summed over one pass of the workload; self_s is host CPU time per pass.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{l + ".self_s", "s", "lower"}, metricDef{l + ".self_share", "ratio", "lower"})
	}
	return append(out,
		metricDef{"sim.sched.dispatches_per_kinstr", "count/kinstr", "lower"},
		metricDef{"sim.sched.avg_quantum_instrs", "instr", "higher"},
		metricDef{"sim.sched.eager_share", "ratio", "higher"},
		metricDef{"cpu.instrs", "count", "lower"},
		metricDef{"cpu.sim_ipc", "instr/cycle", "higher"},
		metricDef{"mem.l1d_accesses_per_kinstr", "count/kinstr", "lower"},
		metricDef{"mem.l1d_miss_ratio", "ratio", "lower"},
		metricDef{"mem.l2_miss_ratio", "ratio", "lower"},
		metricDef{"mem.dram_fills_per_kinstr", "count/kinstr", "lower"},
		metricDef{"mem.flushed_lines", "count", "lower"},
		metricDef{"mem.comm_edges_per_kinstr", "count/kinstr", "lower"},
		metricDef{"slice.tracked_ops_per_kinstr", "count/kinstr", "lower"},
		metricDef{"slice.assoc_attempts_per_kinstr", "count/kinstr", "lower"},
		metricDef{"core.addrmap_inserts_per_kinstr", "count/kinstr", "lower"},
		metricDef{"core.addrmap_hit_ratio", "ratio", "higher"},
		metricDef{"core.addrmap_rejected", "count", "lower"},
		metricDef{"core.addrmap_peak_occupancy", "count", "lower"},
		metricDef{"ckpt.checkpoints", "count", "lower"},
		metricDef{"ckpt.logged_words_per_kinstr", "count/kinstr", "lower"},
		metricDef{"ckpt.omission_ratio", "ratio", "higher"},
		metricDef{"ckpt.restored_words", "count", "lower"},
		metricDef{"ckpt.recomputed_words", "count", "lower"},
		metricDef{"sim.recovery.count", "count", "lower"},
		metricDef{"sim.recovery.sim_cycles", "cycles", "lower"},
		metricDef{"sim.recovery.host_s", "s", "lower"},
		metricDef{"sim.parallel.rounds_per_kinstr", "count/kinstr", "lower"},
		metricDef{"sim.parallel.abort_ratio", "ratio", "lower"},
		metricDef{"sim.parallel.spec_share", "ratio", "higher"},
		metricDef{"sim.parallel.replay_share", "ratio", "lower"},
		metricDef{"runtime.gc_s", "s", "lower"},
		metricDef{"runtime.sched_s", "s", "lower"},
		metricDef{"runtime.alloc_bytes_per_kinstr", "B/kinstr", "lower"},
		metricDef{"sim_time_ovh_reduction_pct", "%", "higher"},
		metricDef{"sim_energy_ovh_reduction_pct", "%", "higher"},
		metricDef{"sim_ckpt_size_reduction_pct", "%", "higher"},
		metricDef{"bench.traced_host_s", "s", "lower"},
		metricDef{"bench.unmapped_s", "s", "lower"},
		metricDef{"bench.trace_overhead_pct", "%", "lower"},
	)
}()

// metricSet accumulates the metrics one run prints.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	notes  map[string]string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, notes: map[string]string{}}
}

func (m *metricSet) set(name string, v float64, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = v
	if note != "" {
		m.notes[name] = note
	}
}

// missing lists defined metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.values[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs, interpolating linearly
// between order statistics.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// passTotals sums the deterministic work counters over a set of ops.
type passTotals struct {
	instrs, cycleCores                        float64
	spans, spanInstrs, eagerInstrs            float64
	l1dAcc, l1dMiss, l2Acc, l2Miss, fills     float64
	flushed, comm                             float64
	tracked, assocAttempts                    float64
	inserts, lookups, hits, rejected          float64
	peakOcc                                   float64
	checkpoints, logged, omitted              float64
	restored, recomputed, recoveries          float64
	rounds, aborted, specInstrs, replayInstrs float64
}

func (t *passTotals) add(o opOutcome, cores int, amnesic bool) {
	r := o.Res
	t.instrs += float64(r.Instrs)
	t.cycleCores += float64(r.Cycles) * float64(cores)
	t.spans += float64(o.Sched.Spans)
	t.spanInstrs += float64(o.Sched.SpanInstrs)
	t.eagerInstrs += float64(o.Sched.EagerInstrs)
	for _, c := range r.Mem.PerCore {
		t.l1dAcc += float64(c.L1D.Hits + c.L1D.Misses)
		t.l1dMiss += float64(c.L1D.Misses)
		t.l2Acc += float64(c.L2.Hits + c.L2.Misses)
		t.l2Miss += float64(c.L2.Misses)
		t.fills += float64(c.Fills)
	}
	t.flushed += float64(r.Mem.FlushedLines)
	t.comm += float64(r.Mem.CommEdges)
	am := r.AddrMap
	if amnesic {
		t.tracked += float64(r.EnergyEvents["IntOp"] + r.EnergyEvents["FloatOp"])
	}
	t.assocAttempts += float64(am.Inserts + am.Rejected + am.SliceTooLong + am.CostRejected + am.PrunedAssocs)
	t.inserts += float64(am.Inserts)
	t.lookups += float64(am.Lookups)
	t.hits += float64(am.Hits)
	t.rejected += float64(am.Rejected)
	t.peakOcc = math.Max(t.peakOcc, float64(am.PeakOccupancy))
	t.checkpoints += float64(r.Ckpt.Checkpoints)
	t.logged += float64(r.Ckpt.LoggedWords)
	t.omitted += float64(r.Ckpt.OmittedWords)
	t.restored += float64(r.Ckpt.RestoredWords)
	t.recomputed += float64(r.Ckpt.RecomputedWords)
	t.rounds += float64(o.Par.Rounds)
	t.aborted += float64(o.Par.Aborted)
	t.specInstrs += float64(o.Par.SpecInstrs)
	t.replayInstrs += float64(o.Par.ReplayInstrs)
}

// paperFigures computes the paper's headline reductions from one pass of
// the triple, averaged over kernels as the experiment harness does:
// Fig. 6 and Fig. 7 (time and energy overhead of ReCkpt_E w.r.t. Ckpt_E,
// both over NoCkpt) and Fig. 9 (checkpoint volume ReCkpt_E omits).
func paperFigures(byOp pass, kernels []string) (timeRed, energyRed, sizeRed float64, n int) {
	var tr, er, sr []float64
	for _, k := range kernels {
		base, ok0 := byOp[opKey{k, cfgNoCkpt}]
		full, ok1 := byOp[opKey{k, cfgCkptE}]
		amn, ok2 := byOp[opKey{k, cfgReCkptE}]
		if !ok0 || !ok1 || !ok2 {
			continue
		}
		b, f, a := base.Res, full.Res, amn.Res
		tr = append(tr, stats.ReductionPct(
			stats.OverheadPct(float64(f.Cycles), float64(b.Cycles)),
			stats.OverheadPct(float64(a.Cycles), float64(b.Cycles))))
		er = append(er, stats.ReductionPct(
			stats.OverheadPct(f.EnergyPJ, b.EnergyPJ),
			stats.OverheadPct(a.EnergyPJ, b.EnergyPJ)))
		sr = append(sr, 100*ratio(float64(a.Ckpt.OmittedWords), float64(a.Ckpt.LoggedWords+a.Ckpt.OmittedWords)))
	}
	return stats.Mean(tr), stats.Mean(er), stats.Mean(sr), len(tr)
}
