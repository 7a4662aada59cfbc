package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"acr/internal/bench"
	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/sim"
	"acr/internal/workloads"
)

// The three checkpoint configurations of the paper's triple (§IV).
const (
	cfgNoCkpt   = "NoCkpt"
	cfgCkptE    = "Ckpt_E"
	cfgReCkptE  = "ReCkpt_E"
	defaultSeed = 1
)

// workload is one set of simulated runs the benchmark loops over. A pass
// runs every kernel × config once, in a seed-shuffled order.
type workload struct {
	Name    string
	Cores   int
	Workers int
	Configs []string
}

var allWorkloads = []workload{
	// Machine scale: sim.sched, cpu and mem do all the work; slice, core,
	// ckpt and sim.parallel do none, so changes to those predict no change.
	// BENCHMARK.json leaves it out so the listed runs can be longer; it
	// runs by hand (README.md).
	{Name: "scale-nockpt", Cores: 128, Workers: 1, Configs: []string{cfgNoCkpt}},
	// The paper's triple with one error per faulted op: slice, core, ckpt
	// and sim.recovery work, and full logging runs beside amnesic omission.
	{Name: "paper-faulted", Cores: 32, Workers: 1, Configs: []string{cfgNoCkpt, cfgCkptE, cfgReCkptE}},
	// The amnesic path through the speculative engine: the only workload
	// on which sim.parallel works.
	{Name: "amnesic-workers2", Cores: 32, Workers: 2, Configs: []string{cfgReCkptE}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// opKey names one simulated run of a workload.
type opKey struct {
	Kernel string
	Config string
}

func (k opKey) String() string { return k.Kernel + "/" + k.Config }

// ops lists the workload's simulated runs in the paper's kernel order.
func (w workload) ops() []opKey {
	var out []opKey
	for _, k := range bench.BenchNames() {
		for _, c := range w.Configs {
			out = append(out, opKey{Kernel: k, Config: c})
		}
	}
	return out
}

// shuffled returns the workload's ops in the order one pass runs them.
func (w workload) shuffled(rng *rand.Rand) []opKey {
	ops := w.ops()
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// strategy is the checkpoint strategy a config runs under.
func strategy(config string) ckpt.Kind {
	if config == cfgReCkptE {
		return ckpt.KindAmnesic
	}
	return ckpt.KindFull
}

// faulted reports whether the config injects an error.
func faulted(config string) bool { return config != cfgNoCkpt }

// drawSchedule draws the op's error schedule from the seed: one error
// whose occurrence is uniform over the checkpointed region of interest,
// detected after a latency uniform in [1, period/2]. The draw depends
// only on (seed, kernel, config), so the serial and Workers=2 workloads
// see the same schedule for the same op. The schedule is validated
// against the strategy's checkpoint retention.
func drawSchedule(seed int64, k opKey, row *refRow) (*fault.Schedule, error) {
	if !faulted(k.Config) {
		return nil, nil
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, k.Kernel, k.Config)
	rng := rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
	from, to := errorWindow(row)
	occur := from + rng.Int63n(to-from)
	latency := 1 + rng.Int63n(row.PeriodCycles/2)
	s := &fault.Schedule{Times: []int64{occur}, DetectLatency: latency}
	if err := s.Validate(row.PeriodCycles, strategy(k.Config).Retention()); err != nil {
		return nil, fmt.Errorf("%v: seed %d: %w", k, seed, err)
	}
	return s, nil
}

// errorWindow is where errors may occur. Checkpoint boundaries fall every
// period from the first period on, and the simulator measures checkpoint
// statistics — recoveries included — from the first boundary at or after
// the ROI start, so the window opens there. It closes a period before the
// last budgeted checkpoint, so detection lands well before the run ends.
func errorWindow(row *refRow) (from, to int64) {
	p := row.PeriodCycles
	from = max(p, (row.ROICycles+p-1)/p*p)
	return from, from + p*(row.MaxCkpts-1)
}

// simConfig assembles the machine configuration of one op, mirroring the
// experiment harness (internal/bench) for the paper's configurations.
func simConfig(w workload, kernel workloads.Bench, config string, row *refRow, errs *fault.Schedule) sim.Config {
	cfg := sim.DefaultConfig(w.Cores)
	cfg.Workers = w.Workers
	if config == cfgNoCkpt {
		return cfg
	}
	cfg.Checkpointing = true
	cfg.Strategy = strategy(config)
	cfg.PeriodCycles = row.PeriodCycles
	cfg.MaxCheckpoints = row.MaxCkpts
	cfg.ROIStartCycles = row.ROICycles
	if cfg.Strategy.Amnesic() {
		cfg.ACR = acr.Config{Threshold: kernel.Threshold, MapCapacity: 4096 * w.Cores}
	}
	cfg.Errors = errs
	return cfg
}
