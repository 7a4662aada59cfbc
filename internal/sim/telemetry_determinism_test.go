// The telemetry determinism regression lives in an external test package:
// telemetry imports sim, so an in-package test importing telemetry would
// cycle. It pins the PR's acceptance invariant — identical configs stay
// bit-identical with telemetry attached or not.
package sim_test

import (
	"io"
	"reflect"
	"strings"
	"testing"

	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/sim"
	"acr/internal/telemetry"
	"acr/internal/workloads"
)

// telemetryTestRun runs a faulted amnesic "is" on four cores with the given
// worker count and observers, returning the result, the final data memory
// and the parallel-engine counters.
func telemetryTestRun(t *testing.T, workers int, obs ...sim.Observer) (sim.Result, []int64, sim.ParallelStats) {
	t.Helper()
	const threads = 4
	bench, err := workloads.ByName("is")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *sim.Machine {
		p, err := bench.Build(threads, workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig(threads)
		m, err := sim.New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	base, err := build().Run()
	if err != nil {
		t.Fatal(err)
	}

	p, err := bench.Build(threads, workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(threads)
	cfg.Checkpointing = true
	cfg.Amnesic = true
	cfg.ACR = acr.Config{Threshold: bench.Threshold, MapCapacity: 4096 * threads}
	cfg.PeriodCycles = base.Cycles / 4
	cfg.Errors = fault.Uniform(1, base.Cycles, cfg.PeriodCycles/2)
	cfg.Observers = obs
	cfg.Workers = workers
	m, err := sim.New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	memv := make([]int64, p.DataWords)
	for i := range memv {
		memv[i] = m.Mem().ReadWord(int64(i))
	}
	return res, memv, m.ParallelStats()
}

// TestTelemetryPreservesDeterminism: a faulted amnesic run with a full
// telemetry stack attached (metrics Collector + streaming Chrome tracer)
// produces a Result struct and final memory image bit-identical to the same
// run with no observers. This is the enforcement of the tentpole's
// determinism invariant: observation is strictly one-way.
func TestTelemetryPreservesDeterminism(t *testing.T) {
	plainRes, plainMem, _ := telemetryTestRun(t, 1)

	reg := telemetry.NewRegistry()
	col := telemetry.NewCollector(reg)
	tracer := telemetry.NewTracer(io.Discard, 4)
	obsRes, obsMem, _ := telemetryTestRun(t, 1, col, tracer)
	if err := tracer.Close(); err != nil {
		t.Fatalf("tracer: %v", err)
	}

	if !reflect.DeepEqual(plainRes, obsRes) {
		t.Errorf("telemetry perturbed the Result:\nplain %+v\nobserved %+v", plainRes, obsRes)
	}
	if !reflect.DeepEqual(plainMem, obsMem) {
		t.Error("telemetry perturbed final memory")
	}

	// The observers must actually have seen the run.
	if tracer.Events() == 0 {
		t.Error("tracer recorded nothing")
	}
	col.ObserveResult(obsRes)
	ckpts := 0.0
	for _, f := range reg.Families() {
		if f.Name == "acr_sim_checkpoints_total" {
			ckpts = f.With().Value()
		}
	}
	if ckpts == 0 {
		t.Error("collector recorded no checkpoints")
	}
	if got := float64(obsRes.Ckpt.Recoveries); got != 1 {
		t.Errorf("recoveries = %v, want 1 (config not exercising the faulted path)", got)
	}
}

// gauges returns the registry's unlabelled gauge values by family name.
func gauges(reg *telemetry.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range reg.Families() {
		if f.Kind == telemetry.KindGauge && len(f.LabelNames) == 0 {
			out[f.Name] = f.With().Value()
		}
	}
	return out
}

// TestSchedCollectorExportsParallelStats: a run through the parallel engine
// hands its ParallelStats to the SchedCollector, which exports every
// counter as a gauge; a serial run exports none of them.
func TestSchedCollectorExportsParallelStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	_, _, st := telemetryTestRun(t, 2, telemetry.NewSchedCollector(reg))
	if st.Committed == 0 || st.HookEvents == 0 {
		t.Fatalf("sanity: parallel run committed %d rounds, replayed %d hook events", st.Committed, st.HookEvents)
	}
	got := gauges(reg)
	for name, want := range map[string]int64{
		"acr_parallel_rounds":        st.Rounds,
		"acr_parallel_committed":     st.Committed,
		"acr_parallel_aborted":       st.Aborted,
		"acr_parallel_serial_quanta": st.SerialQuanta,
		"acr_parallel_spec_instrs":   st.SpecInstrs,
		"acr_parallel_replay_instrs": st.ReplayInstrs,
		"acr_parallel_hook_events":   st.HookEvents,
	} {
		if v, ok := got[name]; !ok || v != float64(want) {
			t.Errorf("%s = %v (exported %v), want %d", name, v, ok, want)
		}
	}

	serial := telemetry.NewRegistry()
	telemetryTestRun(t, 1, telemetry.NewSchedCollector(serial))
	for name := range gauges(serial) {
		if strings.HasPrefix(name, "acr_parallel_") {
			t.Errorf("serial run exported %s", name)
		}
	}
}
