// Package bench is the experiment harness: it reconstructs every table and
// figure of the paper's evaluation (§IV–§V) from simulator runs. Each
// experiment has a generator returning a stats.Table; cmd/acrbench and the
// repository's bench_test.go drive them.
//
//acr:deterministic
package bench

import (
	"fmt"
	"sync"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/fault"
	"acr/internal/sim"
	"acr/internal/workloads"
)

// Spec names one of the paper's configurations (§IV). Every field either
// reaches the memoisation key (runKey embeds the normalised Spec) or is
// folded into a keyed field by the canonicaliser — the memokey analyzer
// proves it.
//
//acr:memo-spec normalized
type Spec struct {
	// Ckpt enables checkpointing; Errors injects that many fail-stop
	// errors; Amnesic attaches ACR; Local selects coordinated local
	// checkpointing.
	Ckpt    bool
	Errors  int
	Amnesic bool
	Local   bool
	// Threshold overrides the benchmark's Slice-length threshold
	// (0 keeps the benchmark default: 10, or 5 for is).
	Threshold int
	// NumCkpts sets the checkpoint budget used to derive the period
	// (0 = the paper's default of 25, §V-D3).
	NumCkpts int

	// Extensions beyond the paper's configurations, used by the
	// ablation experiments:
	// CostPolicy replaces the greedy threshold with the cost-based
	// Slice selection the paper sketches in §III-A.
	CostPolicy bool
	// Adaptive enables recomputation-aware checkpoint placement
	// (§V-D1/§V-D3 future work).
	Adaptive bool
	// MapCapacity overrides the AddrMap record capacity (0 = 4096 per
	// core).
	MapCapacity int
	// DetectFrac overrides the error-detection latency as a fraction of
	// the checkpoint period (0 = the default 0.5; must stay ≤ the
	// strategy's retained-checkpoint depth minus one).
	DetectFrac float64

	// Strategy selects the checkpoint scheme (ckpt.Kinds). The zero value
	// composes with the legacy booleans: Amnesic spells ckpt.KindAmnesic,
	// otherwise the conventional full-logging baseline. Specs are
	// normalised before memoisation, so the boolean and explicit
	// spellings share one cache cell instead of colliding or duplicating.
	Strategy ckpt.Kind
}

// normalized folds the legacy Amnesic boolean and the Strategy field into
// one canonical spelling: Strategy always names the scheme, and Amnesic is
// set exactly for the amnesic-family strategies. Every cache key and
// execution path uses the normalised form.
func (s Spec) normalized() Spec {
	if s.Strategy == ckpt.KindFull && s.Amnesic {
		s.Strategy = ckpt.KindAmnesic
	}
	s.Amnesic = s.Strategy.Amnesic()
	return s
}

// Kind returns the checkpoint strategy the Spec resolves to after
// normalisation — the name CLIs and telemetry should report.
func (s Spec) Kind() ckpt.Kind {
	return s.normalized().Strategy
}

// The paper's named configurations.
var (
	NoCkpt      = Spec{}
	CkptNE      = Spec{Ckpt: true}
	CkptE       = Spec{Ckpt: true, Errors: 1}
	ReCkptNE    = Spec{Ckpt: true, Amnesic: true}
	ReCkptE     = Spec{Ckpt: true, Amnesic: true, Errors: 1}
	CkptNELoc   = Spec{Ckpt: true, Local: true}
	CkptELoc    = Spec{Ckpt: true, Errors: 1, Local: true}
	ReCkptNELoc = Spec{Ckpt: true, Amnesic: true, Local: true}
	ReCkptELoc  = Spec{Ckpt: true, Amnesic: true, Errors: 1, Local: true}
)

// String renders the paper's name for the configuration.
func (s Spec) String() string {
	if !s.Ckpt {
		return "NoCkpt"
	}
	s = s.normalized()
	var name string
	switch s.Strategy {
	case ckpt.KindAmnesic:
		name = "ReCkpt"
	case ckpt.KindDifferential:
		name = "DiffCkpt"
	case ckpt.KindTiered:
		name = "TierCkpt"
	case ckpt.KindAuto:
		name = "AutoCkpt"
	default:
		name = "Ckpt"
	}
	if s.Errors > 0 {
		name += "_E"
	} else {
		name += "_NE"
	}
	if s.Local {
		name += ",Loc"
	}
	return name
}

// Params fixes the machine scale for a set of experiments.
type Params struct {
	Threads int
	Class   workloads.Class
}

// DefaultParams mirrors the paper's primary setup: 8 threads on 8 cores
// (scalability raises this to 16/32), class W problems.
func DefaultParams() Params {
	return Params{Threads: 8, Class: workloads.ClassW}
}

// DefaultNumCkpts is the paper's default checkpoint count per run.
const DefaultNumCkpts = 25

// runKey is the memoisation key: a pure value (the memokey analyzer proves
// deep comparability), so semantically equal configurations hit one cell.
//
//acr:memo-key
type runKey struct {
	bench   string
	threads int
	class   string
	spec    Spec
}

// Runner executes configurations with memoisation: figures 6–8 share runs,
// and every checkpointed run shares its NoCkpt baseline. The cache is safe
// for concurrent use — RunAll executes experiment grids through a worker
// pool — and deduplicates in-flight work: concurrent requests for the same
// key block on one execution instead of repeating it.
//
// Exported fields are driver knobs living outside the memo key; each must
// carry //acr:memo-exempt with its result-invariance argument (the memokey
// analyzer rejects undeclared knobs).
//
//acr:memo-cache
type Runner struct {
	// Workers bounds RunAll's worker pool; 0 means GOMAXPROCS. Results
	// are bit-identical at any pool width — jobs are independent machines
	// and results return in job order — so the knob stays outside the key.
	//
	//acr:memo-exempt
	Workers int

	// SimWorkers is the intra-run worker count handed to
	// sim.Config.Workers (0 or 1 = serial execution). The parallel engine
	// is bit-identical to the serial scheduler — any speculative round
	// that fails its conflict check is discarded and replayed serially —
	// so SimWorkers is deliberately not part of the memoisation key: a
	// cache warmed at one worker count serves every other.
	//
	//acr:memo-exempt
	SimWorkers int

	// SimCoalesce hands sim.Config.Coalesce to every execution: scheduler
	// quantum coalescing on the serial engine. Coalescing only reorders
	// provably core-private instructions, so results are bit-identical
	// with it on or off (the sim package's fuzz and oracle suites pin
	// this) and the knob is deliberately not part of the memoisation key,
	// exactly like SimWorkers. NewRunner enables it.
	//
	//acr:memo-exempt
	SimCoalesce bool

	// Lifecycle, when non-nil, receives job begin/end notifications from
	// RunAll and RunObserved and may attach observers to executions (the
	// live run registry in internal/obsrv rides on it). Observation is
	// strictly one-way — observers cannot change simulated results, so
	// the hook stays outside the memo key and a cache warmed with a
	// lifecycle attached serves runs without one, bit-identically.
	//
	//acr:memo-exempt
	Lifecycle Lifecycle

	mu      sync.Mutex
	cache   map[runKey]*runEntry
	reports []JobReport
}

// runEntry is one memoised cell: the once gate serialises computation so a
// key is simulated exactly once no matter how many goroutines request it.
type runEntry struct {
	once sync.Once
	res  sim.Result
	err  error
}

// NewRunner returns an empty-cache runner with quantum coalescing enabled
// (the sim default).
func NewRunner() *Runner {
	return &Runner{cache: make(map[runKey]*runEntry), SimCoalesce: true}
}

// Run executes benchmark bench under spec at the given scale, memoised.
// It is safe to call concurrently; dependent runs (a checkpointed spec
// calibrating against its NoCkpt baseline) nest through distinct cache
// entries, so the once gates cannot deadlock.
func (r *Runner) Run(benchName string, p Params, spec Spec) (sim.Result, error) {
	return r.runWith(benchName, p, spec)
}

// runWith is Run with observers attached to every execution performed for
// the key (calibration attempts included; dependent baseline runs are
// their own keys and stay unobserved). Only the caller that wins the once
// gate attaches its observers — concurrent requests for an in-flight key
// share the result, not the event stream.
func (r *Runner) runWith(benchName string, p Params, spec Spec, obs ...sim.Observer) (sim.Result, error) {
	spec = spec.normalized()
	e := r.entry(runKey{benchName, p.Threads, p.Class.Name, spec})
	e.once.Do(func() { e.res, e.err = r.run(benchName, p, spec, obs...) })
	return e.res, e.err
}

func (r *Runner) entry(key runKey) *runEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := r.cache[key]
	if e == nil {
		e = &runEntry{}
		r.cache[key] = e
	}
	return e
}

// Baseline returns the NoCkpt run for the benchmark at the given scale.
func (r *Runner) Baseline(benchName string, p Params) (sim.Result, error) {
	return r.Run(benchName, p, NoCkpt)
}

func (r *Runner) run(benchName string, p Params, spec Spec, obs ...sim.Observer) (sim.Result, error) {
	bench, err := workloads.ByName(benchName)
	if err != nil {
		return sim.Result{}, err
	}
	// A negative budget leaves no period to calibrate (n+1 can be zero).
	if spec.NumCkpts < 0 {
		return sim.Result{}, fmt.Errorf("bench %s: checkpoint count %d is negative", benchName, spec.NumCkpts)
	}
	if !spec.Ckpt {
		return r.execute(bench, p, spec, r.SimWorkers, 0, 0, 0, obs...)
	}

	// The paper fixes the number of checkpoints per run and distributes
	// them uniformly over the *checkpointed* execution (§IV, §V-D3).
	// The runtime is not known before the run, so the period is
	// calibrated by fixed point: start from the NoCkpt runtime, re-derive
	// the period from each run's realised length, and stop once the
	// final checkpoint lands in the last fraction of the run.
	base, err := r.Baseline(benchName, p)
	if err != nil {
		return sim.Result{}, err
	}
	n := spec.NumCkpts
	if n == 0 {
		n = DefaultNumCkpts
	}
	roi := int64(float64(base.Cycles) * bench.WarmupFrac)
	horizon := base.Cycles
	var res sim.Result
	for attempt := 0; attempt < 4; attempt++ {
		period := (horizon - roi) / int64(n+1)
		if period < 1 {
			period = 1
		}
		res, err = r.execute(bench, p, spec, r.SimWorkers, period, int64(n), roi, obs...)
		if err != nil {
			return sim.Result{}, err
		}
		// Converged when the n budgeted checkpoints cover the run:
		// the realised run is within one period of n+1 periods past
		// the ROI start.
		if res.Cycles-roi <= int64(n+2)*period {
			break
		}
		horizon = res.Cycles
	}
	return res, nil
}

func (r *Runner) execute(bench workloads.Bench, p Params, spec Spec, workers int, period, maxCkpts, roi int64, obs ...sim.Observer) (sim.Result, error) {
	spec = spec.normalized()
	cfg := sim.DefaultConfig(p.Threads)
	cfg.Workers = workers
	cfg.Coalesce = r.SimCoalesce
	cfg.Observers = obs
	if spec.Ckpt {
		cfg.Checkpointing = true
		cfg.Strategy = spec.Strategy
		cfg.PeriodCycles = period
		cfg.MaxCheckpoints = maxCkpts
		cfg.ROIStartCycles = roi
		if spec.Local {
			cfg.Mode = ckpt.Local
		}
		if spec.Amnesic {
			threshold := spec.Threshold
			if threshold == 0 {
				threshold = bench.Threshold
			}
			capacity := spec.MapCapacity
			if capacity == 0 {
				capacity = 4096 * p.Threads
			}
			cfg.ACR = acr.Config{Threshold: threshold, MapCapacity: capacity}
			if spec.CostPolicy {
				cfg.ACR.Policy = acr.PolicyCost
			}
			cfg.AdaptivePlacement = spec.Adaptive
		}
		if spec.Errors > 0 {
			// Errors uniformly distributed over the ROI (§V-D2),
			// detection latency of half a period by default (≤ period,
			// §II-A).
			frac := spec.DetectFrac
			if frac == 0 {
				frac = 0.5
			}
			lat := int64(float64(period) * frac)
			cfg.Errors = fault.UniformIn(spec.Errors, roi, roi+period*maxCkpts, lat)
		}
	}
	program, err := bench.Build(p.Threads, p.Class)
	if err != nil {
		return sim.Result{}, fmt.Errorf("bench %s %v: %w", bench.Name, spec, err)
	}
	m, err := sim.New(cfg, program)
	if err != nil {
		return sim.Result{}, fmt.Errorf("bench %s %v: %w", bench.Name, spec, err)
	}
	res, err := m.Run()
	if err != nil {
		return sim.Result{}, fmt.Errorf("bench %s %v: %w", bench.Name, spec, err)
	}
	return res, nil
}

// BenchNames returns the evaluation order used by the paper's figures.
func BenchNames() []string {
	return []string{"bt", "cg", "dc", "ft", "is", "lu", "mg", "sp"}
}
