// Package sim ties the substrates into a whole-machine simulator: in-order
// cores (cpu), the memory subsystem (mem), the energy model (energy), the
// baseline checkpointing substrate (ckpt), ACR (core), and the fail-stop
// fault model (fault). It plays the role Snipersim plays in the paper's
// evaluation (§IV).
//
// The machine is layered: a quantum-batched scheduler (sched.go) picks
// which core executes and for how long; a checkpoint coordinator
// (coordinator.go) owns boundary placement and establishment; a recovery
// engine (recovery.go) owns roll-back and replay; observers (observer.go)
// receive the event stream. Machine composes the engines behind small
// interfaces and keeps only the glue: the run loop, barrier release, and
// result assembly.
//
// Scheduling is deterministic: among runnable cores, the one with the
// smallest local clock executes next (ties broken by core id); barriers
// synchronise all live cores; checkpoint boundaries and error detections
// fire as timed events interleaved with execution in timestamp order.
// Recovery is real, not modelled: memory and architectural state are rolled
// back, omitted values are recomputed along their Slices, and the machine
// re-executes the lost work, so the wasted time and energy of Equation 3
// accrue naturally and final program outputs are verifiably identical to
// error-free runs.
//
//acr:deterministic
package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"acr/internal/analysis"
	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/cpu"
	"acr/internal/energy"
	"acr/internal/fault"
	"acr/internal/isa"
	"acr/internal/mem"
	"acr/internal/prog"
	"acr/internal/slice"
)

// Config assembles a machine. The zero value is not runnable; start from
// DefaultConfig.
type Config struct {
	Cores  int
	Mem    mem.Config
	Energy *energy.Model

	// Checkpointing enables the BER substrate. Mode selects global or
	// local coordination. Amnesic attaches ACR.
	Checkpointing bool
	Mode          ckpt.Mode
	Amnesic       bool
	ACR           acr.Config
	// Strategy selects the checkpoint scheme (see ckpt.Kinds). The zero
	// value is the conventional full-logging baseline; setting Amnesic
	// with the zero Strategy resolves to ckpt.KindAmnesic (the legacy
	// spelling), and an explicitly amnesic strategy (amnesic, auto)
	// implies Amnesic. Differential and tiered require Global mode and
	// reject Amnesic.
	Strategy ckpt.Kind

	// PeriodCycles is the checkpoint period; MaxCheckpoints caps how many
	// checkpoints are established (the paper fixes the count per run and
	// distributes them uniformly, §IV).
	PeriodCycles   int64
	MaxCheckpoints int64
	// ROIStartCycles marks the start of the region of interest: a
	// checkpoint is established there and the checkpointing statistics
	// are reset, so reported volumes exclude program initialisation
	// (the paper measures the ROI, §IV). Zero means the ROI starts at 0.
	ROIStartCycles int64
	// AdaptivePlacement enables recomputation-aware checkpoint placement
	// — the future-work idea of paper §V-D1/§V-D3: instead of blindly
	// checkpointing at uniform boundaries, a boundary is deferred (by a
	// quarter period, at most three times) while the open interval's
	// omission ratio runs above the historical average, i.e. while
	// recomputation is absorbing the would-be checkpoint. Checkpoints
	// are thereby spent on the amnesia-resistant execution regions and
	// stretched over the amnesia-friendly ones.
	AdaptivePlacement bool

	// Errors optionally schedules fail-stop errors.
	Errors *fault.Schedule

	// MaxSteps bounds total instruction executions as a runaway guard.
	MaxSteps int64

	// Workers selects intra-run parallelism: up to Workers OS threads
	// execute independent cores' quanta concurrently in conflict-checked
	// speculative rounds (parallel.go), committing in the serial merge
	// order and falling back to serial replay on conflict. Results are
	// bit-identical to Workers<=1 for every configuration; only wall-clock
	// time changes. 0 and 1 mean serial execution.
	Workers int

	// Coalesce enables scheduler quantum coalescing on the serial engine:
	// when a pick's bound is set by a peer core whose next instructions
	// are core-private (register-only ALU, branches, NOPs — they touch no
	// shared line, no barrier, no checkpoint state), the peer's private
	// prefix is executed eagerly. Private instructions commute across
	// cores, so eager execution is exactly the serial interleaving
	// reordered within a commutative window — and it raises the pick's
	// bound, so the picked core dispatches longer quanta. Results are
	// bit-identical with the knob off; only wall clock moves — a speed
	// seam like Workers.
	Coalesce bool

	// RecordTimeline retains checkpoint/recovery events in the Result.
	RecordTimeline bool
	// TimelineCap bounds the recorded timeline to the most recent N
	// events (0 = unbounded). Result.TimelineDropped reports how many
	// earlier events the ring buffer discarded.
	TimelineCap int
	// Observers receive the machine's event stream alongside the
	// built-in timeline recorder. Observers must be deterministic and
	// must not mutate machine state.
	Observers []Observer
}

// DefaultConfig returns the paper's Table I machine with checkpointing
// disabled (the NoCkpt baseline).
func DefaultConfig(cores int) Config {
	return Config{
		Cores:    cores,
		Mem:      mem.DefaultConfig(),
		Energy:   energy.Default22nm(),
		ACR:      acr.DefaultConfig(cores),
		MaxSteps: 2_000_000_000,
		Coalesce: true,
	}
}

// Result summarises a run.
type Result struct {
	// Cycles is the makespan: the largest core-local clock at completion.
	Cycles int64
	// Instrs is the total number of retired instructions.
	Instrs int64
	// EnergyPJ is total energy including leakage; DynamicPJ excludes it.
	EnergyPJ  float64
	DynamicPJ float64
	// Barriers counts barrier episodes.
	Barriers int64

	// Strategy names the checkpoint strategy of the run ("" when
	// checkpointing is disabled).
	Strategy string
	// Ckpt carries checkpointing statistics (zero value when disabled).
	Ckpt ckpt.Stats
	// Intervals is the per-interval checkpoint volume history.
	Intervals []ckpt.IntervalStat
	// AddrMap carries ACR statistics (zero value when not amnesic).
	AddrMap acr.AddrMapStats
	// Mem summarises memory-hierarchy activity: per-core hits/misses per
	// cache level, directory traffic, flushed lines.
	Mem mem.Stats
	// EnergyEvents is the per-event energy count breakdown by event name
	// (the decomposition of DynamicPJ).
	EnergyEvents map[string]uint64
	// PeriodCycles and ROIStartCycles echo the realised checkpoint
	// cadence (zero when checkpointing is disabled), so exported run
	// profiles are self-describing and an observed replay can reconstruct
	// the exact configuration.
	PeriodCycles   int64
	ROIStartCycles int64
	// Timeline is the event log (empty unless Config.RecordTimeline).
	// When Config.TimelineCap is set, it is truncated to the most recent
	// TimelineCap events and TimelineDropped counts the discarded rest.
	Timeline        []Event
	TimelineDropped int64
}

// EDP returns the energy-delay product in pJ·cycles.
func (r Result) EDP() float64 { return r.EnergyPJ * float64(r.Cycles) }

// EventKind tags a timeline event.
type EventKind uint8

// Timeline event kinds.
const (
	EvCheckpoint EventKind = iota
	EvDefer
	EvError
	EvRecovery
	EvBarrier
)

func (k EventKind) String() string {
	switch k {
	case EvCheckpoint:
		return "checkpoint"
	case EvDefer:
		return "defer"
	case EvError:
		return "error"
	case EvRecovery:
		return "recovery"
	case EvBarrier:
		return "barrier"
	}
	return "event"
}

// Event is one entry of the machine's event stream: checkpoints
// established, boundaries deferred, barriers released, errors detected and
// recoveries performed. Per kind:
//
//   - EvCheckpoint: Time is the establishment start (latest live core
//     clock), Dur the establishment stall (all groups released by
//     Time+Dur), Detail the closing interval's logged words and Aux its
//     amnesically omitted words.
//   - EvDefer: Time is the deferred boundary's wall-clock time.
//   - EvError: Time is the detection synchronisation point; Detail is the
//     error's occurrence time.
//   - EvRecovery: Time is the moment the stalled group resumes, Dur the
//     recovery wall-cycles (detection point = Time-Dur), Detail the words
//     restored and Aux the values recomputed along Slices.
//   - EvBarrier: one event per participating core (Core set). Time is the
//     synchronised release; Dur is that core's wait, including the
//     synchronisation cost (arrival = Time-Dur).
type Event struct {
	Time int64
	Kind EventKind
	// Core identifies the participating core for per-core events
	// (EvBarrier); machine-wide events carry -1.
	Core int32
	// Detail and Aux carry kind-specific counts (see above).
	Detail int64
	Aux    int64
	// Dur is the span length in cycles for span-shaped events.
	Dur int64
}

// Machine is a runnable simulated machine. It composes the scheduling,
// checkpointing and recovery layers; the substrate handles (cores, memory,
// meter, tracker) are shared with the engines.
type Machine struct {
	cfg     Config
	program *prog.Program
	cores   []*cpu.Core
	sys     *mem.System
	meter   *energy.Meter
	tracker *slice.Tracker
	handler *acr.Handler
	mgr     *ckpt.Manager

	sched     *scheduler
	coord     coordinator
	recov     recoverer
	observers []Observer
	timeline  *timelineRecorder

	barriers   int64
	steps      int64
	parStats   ParallelStats
	schedStats SchedStats
	// eagerSpan carries the instructions the last coalesce call retired
	// eagerly into the next stepSpan's quantum accounting, so the quantum
	// metric reads "instructions retired per scheduler dispatch".
	eagerSpan int64
	// eagerFn is the bound method value of eagerSteps, and hooks the
	// machine boxed as cpu.Hooks — both taken once at construction so the
	// per-pick coalescing path allocates nothing.
	eagerFn func(*cpu.Core, int64) bool
	hooks   cpu.Hooks

	// archScratch is the reusable buffer archStates fills per checkpoint
	// boundary; both consumers (ckpt.NewManager, ckpt.Establish) copy it
	// into the snapshot they build.
	archScratch []cpu.ArchState
}

// New builds a machine for program p. The program is validated; its Init
// function seeds data memory (modelling the pre-ROI phase, not charged).
func New(cfg Config, p *prog.Program) (*Machine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: config needs at least one core (got %d)", cfg.Cores)
	}
	if cfg.Energy == nil {
		return nil, errors.New("sim: config needs an energy model (Config.Energy is nil; start from DefaultConfig)")
	}
	if cfg.Checkpointing && cfg.PeriodCycles <= 0 {
		return nil, fmt.Errorf("sim: checkpointing enabled with non-positive period %d", cfg.PeriodCycles)
	}
	if cfg.Checkpointing && cfg.MaxCheckpoints == 0 {
		cfg.MaxCheckpoints = 1 << 62 // unlimited
	}
	// Resolve the strategy dimension: the legacy Amnesic flag spells
	// ckpt.KindAmnesic; amnesic-family strategies imply the ACR machinery.
	if cfg.Strategy == ckpt.KindFull && cfg.Amnesic {
		cfg.Strategy = ckpt.KindAmnesic
	}
	if cfg.Strategy.Amnesic() {
		cfg.Amnesic = true
	} else if cfg.Amnesic {
		return nil, fmt.Errorf("sim: strategy %v does not compose with Amnesic (it has no log to omit from)", cfg.Strategy)
	}
	if cfg.Strategy != ckpt.KindFull && !cfg.Checkpointing {
		return nil, fmt.Errorf("sim: strategy %v requires checkpointing", cfg.Strategy)
	}
	if cfg.Errors != nil && !cfg.Checkpointing {
		return nil, errors.New("sim: error schedule without checkpointing cannot recover")
	}
	if cfg.Errors != nil {
		if err := cfg.Errors.Validate(cfg.PeriodCycles, cfg.Strategy.Retention()); err != nil {
			return nil, err
		}
		// The schedule carries a consumption cursor; clone it so two
		// machines built from one Config (e.g. a serial oracle and a
		// parallel run under comparison) don't steal each other's errors.
		errs := *cfg.Errors
		cfg.Errors = &errs
	}
	if cfg.TimelineCap < 0 {
		return nil, fmt.Errorf("sim: negative timeline cap %d", cfg.TimelineCap)
	}

	m := &Machine{cfg: cfg, program: p}
	m.meter = energy.NewMeter(cfg.Energy)
	words := p.DataWords
	if words == 0 {
		words = 64
	}
	sys, err := mem.NewSystem(cfg.Mem, cfg.Cores, words, m.meter)
	if err != nil {
		return nil, err
	}
	m.sys = sys
	if p.Init != nil {
		buf := make([]int64, words)
		p.Init(buf)
		for i, v := range buf {
			if v != 0 {
				m.sys.WriteWord(int64(i), v)
			}
		}
	}

	m.cores = make([]*cpu.Core, cfg.Cores)
	for i := range m.cores {
		m.cores[i] = cpu.New(i, p.Entry, cfg.Cores)
	}
	m.sched = newScheduler(m.cores)
	m.eagerFn = m.eagerSteps
	m.hooks = m

	if cfg.Amnesic {
		if !cfg.Checkpointing {
			return nil, errors.New("sim: amnesic mode requires checkpointing")
		}
		if cfg.Strategy == ckpt.KindAuto && cfg.ACR.SitePlan == nil {
			// The auto strategy's static pass: classify every ASSOC site
			// ahead of time from the program's dataflow.
			plan, err := analysis.PlanCheckpointSites(p.Code, p.Entry, cfg.ACR.Threshold)
			if err != nil {
				return nil, fmt.Errorf("sim: auto strategy analysis: %w", err)
			}
			cfg.ACR.SitePlan = plan.SiteCaps
			m.cfg.ACR.SitePlan = plan.SiteCaps
		}
		m.tracker = slice.NewTracker(cfg.Cores)
		m.handler = acr.NewHandler(cfg.ACR, m.tracker, m.meter)
		for _, c := range m.cores {
			c.AssocEnabled = true
			m.tracker.ResetCore(c.ID, &c.Regs)
		}
	}
	m.coord = noCheckpoints{}
	m.recov = noErrors{}
	if cfg.Checkpointing {
		mgr, err := ckpt.NewManager(cfg.Strategy, cfg.Mode, m.sys, m.meter, m.handler, m.archStates())
		if err != nil {
			return nil, err
		}
		m.mgr = mgr
		m.coord = newCkptCoordinator(m)
	}
	if cfg.Errors != nil {
		m.recov = newRecoveryEngine(m, cfg.Errors)
	}
	m.observers = append(m.observers, cfg.Observers...)
	if cfg.RecordTimeline {
		m.timeline = &timelineRecorder{cap: cfg.TimelineCap}
		m.observers = append(m.observers, m.timeline)
	}
	return m, nil
}

// Mem exposes the memory system for result verification.
func (m *Machine) Mem() *mem.System { return m.sys }

// Manager exposes the checkpoint manager (nil when disabled).
func (m *Machine) Manager() *ckpt.Manager { return m.mgr }

func (m *Machine) archStates() []cpu.ArchState {
	if m.archScratch == nil {
		m.archScratch = make([]cpu.ArchState, len(m.cores))
	}
	for i, c := range m.cores {
		m.archScratch[i] = c.Arch()
	}
	return m.archScratch
}

// FirstStore implements cpu.Hooks.
func (m *Machine) FirstStore(core int, addr, old int64) int64 {
	if m.mgr == nil {
		return 0
	}
	return m.mgr.OnFirstStore(core, addr, old)
}

// Assoc implements cpu.Hooks. pc is the ASSOC-ADDR instruction's address,
// keying the auto strategy's static site plan.
func (m *Machine) Assoc(core, pc int, addr int64, recipe slice.Ref) int64 {
	if m.handler == nil {
		return 0
	}
	return m.handler.OnAssoc(core, pc, addr, recipe)
}

// barrierCycles is the synchronisation cost of n cores coordinating.
func barrierCycles(n int) int64 { return 40 + 4*int64(n) }

// handlerCycles is the fixed checkpoint/recovery handler overhead.
const handlerCycles = 25

// SchedStatsObserver is an optional Observer extension: when a run
// completes, the machine hands the serial engine's dispatch diagnostics to
// every configured observer that implements it. Kept separate from the
// event stream because SchedStats describe the engine, not the simulated
// machine — they vary with Coalesce/Workers while Result does not.
type SchedStatsObserver interface {
	ObserveSchedStats(SchedStats)
}

// ParallelStatsObserver is the parallel engine's counterpart of
// SchedStatsObserver: when a run through the parallel engine completes,
// the machine hands its ParallelStats to every configured observer that
// implements it. Serial runs never call it — the engine did not run.
type ParallelStatsObserver interface {
	ObserveParallelStats(ParallelStats)
}

// Run executes the program to completion and returns the run summary.
//
// The loop is event-paced, not instruction-paced: each iteration picks the
// minimum-clock core and either handles a timed event that its horizon has
// reached (checkpoint boundary or error detection, in timestamp order) or
// executes the core in a tight quantum until the earliest of the next
// event time and the point where the scheduling choice must be revisited.
// Within a quantum only the picked core's clock moves, so the instruction
// interleaving — and therefore every statistic — is bit-identical to the
// per-instruction scheduling it replaces.
func (m *Machine) Run() (Result, error) {
	res, err := m.runEngine()
	if err == nil {
		for _, o := range m.cfg.Observers {
			if so, ok := o.(SchedStatsObserver); ok {
				so.ObserveSchedStats(m.schedStats)
			}
			if po, ok := o.(ParallelStatsObserver); ok && m.parallel() {
				po.ObserveParallelStats(m.parStats)
			}
		}
	}
	return res, err
}

// parallel reports whether Run executes through the parallel engine.
func (m *Machine) parallel() bool { return m.cfg.Workers > 1 && len(m.cores) > 1 }

func (m *Machine) runEngine() (Result, error) {
	if m.parallel() {
		return m.runParallel()
	}
	return m.runSerial()
}

func (m *Machine) runSerial() (Result, error) {
	// The armed-event queries are cached across quanta: next() depends
	// only on state the event handlers themselves mutate (checkpoint
	// schedule and budget in onBoundary/establish, the fault schedule's
	// cursor in recover), so the cache is refreshed exactly after a
	// handler runs instead of re-querying two interfaces per pick.
	ckptTime, haveCkpt := m.coord.next()
	errOccur, errDetect, haveErr := m.recov.next()
	refresh := func() {
		ckptTime, haveCkpt = m.coord.next()
		errOccur, errDetect, haveErr = m.recov.next()
	}
	for {
		if m.sched.halted() == len(m.cores) {
			break
		}
		if m.sched.running() == 0 {
			if m.sched.atBarrier() > 0 {
				m.releaseBarrier()
				refresh()
				continue
			}
			return Result{}, errors.New("sim: no runnable cores (scheduling bug)")
		}

		c, bound := m.sched.pick()
		horizon := c.Cycles()

		// Timed events up to the horizon, in timestamp order.
		ckptDue := haveCkpt && ckptTime <= horizon
		errDue := haveErr && errDetect <= horizon
		switch {
		case ckptDue && (!errDue || ckptTime <= errDetect):
			m.coord.onBoundary()
			refresh()
			continue
		case errDue:
			if err := m.recov.recover(errOccur, errDetect); err != nil {
				return Result{}, err
			}
			refresh()
			continue
		}

		// No event before the horizon: run the quantum. Coalescing first
		// tries to raise the bound by eagerly retiring peers' core-private
		// prefixes — capped by the coalescing window and, crucially, by
		// every armed event time, so no peer ever executes across a
		// checkpoint boundary or an error-detection point. The bound then
		// shrinks to the next armed event as before, so the event fires
		// exactly when the minimum clock reaches it.
		if m.cfg.Coalesce && bound != unbounded {
			ceil := c.Cycles() + coalesceWindow
			if haveCkpt && ckptTime < ceil {
				ceil = ckptTime
			}
			if haveErr && errDetect < ceil {
				ceil = errDetect
			}
			if bound < ceil {
				e0 := m.schedStats.EagerInstrs
				bound = m.sched.coalesce(c, bound, ceil, m.eagerFn)
				// Attribute the eager work to this dispatch: the
				// quantum metric counts instructions retired per pick.
				m.eagerSpan = m.schedStats.EagerInstrs - e0
			}
		}
		if haveCkpt && ckptTime < bound {
			bound = ckptTime
		}
		if haveErr && errDetect < bound {
			bound = errDetect
		}
		if err := m.stepSpan(c, bound); err != nil {
			return Result{}, err
		}
	}
	return m.result(), nil
}

// stepSpan executes one quantum of core c: instructions retire, one Step
// each, until the core leaves the Running state or its clock reaches
// bound. The MaxSteps runaway guard keeps the interpreter's exact
// semantics — the instruction that exceeds the budget retires first, then
// the run fails. Energy flushes once per quantum instead of once per
// instruction; counts are commutative, so totals stay bit-identical.
func (m *Machine) stepSpan(c *cpu.Core, bound int64) error {
	var n int64
	for c.State == cpu.Running && c.Cycles() < bound {
		c.Step(m.program, m.sys, m.tracker, m)
		m.steps++
		n++
		if m.steps > m.cfg.MaxSteps {
			break
		}
	}
	m.schedStats.note(n + m.eagerSpan)
	m.eagerSpan = 0
	if m.steps > m.cfg.MaxSteps {
		c.FlushAccounting(m.meter)
		return fmt.Errorf("sim: exceeded %d steps (runaway program?)", m.cfg.MaxSteps)
	}
	c.FlushAccounting(m.meter)
	m.sched.noteClock(c.Cycles())
	return nil
}

// coalesceWindow bounds how far past the picked core's clock (in cycles)
// peers are eagerly advanced during quantum coalescing. A small window
// keeps the reordering local: eager work is never more than one cache-miss
// latency ahead of the architectural frontier.
const coalesceWindow = 64

// maxEagerSteps caps the instruction budget of a single eager call so one
// long register-only stretch cannot monopolise the run loop between picks.
const maxEagerSteps = 256

// SchedStats summarises the serial engine's dispatch granularity. Like
// ParallelStats these are engine diagnostics — they are not part of the
// architectural Result, so Result stays bit-identical across Coalesce and
// Workers settings.
type SchedStats struct {
	// Spans counts dispatched quanta; SpanInstrs the instructions retired
	// per dispatch — the picked core's quantum plus any peer instructions
	// the coalescer eagerly retired to raise that pick's bound.
	// SpanInstrs/Spans is the average serial quantum length — the number
	// PR 9 measured at 2.7 for the flat scheduler.
	Spans      int64
	SpanInstrs int64
	// EagerCalls and EagerInstrs count coalescing's eager private-prefix
	// executions: peer instructions retired outside any quantum to raise
	// the pick bound.
	EagerCalls  int64
	EagerInstrs int64
	// QuantumHist buckets quantum lengths by powers of two: bucket 0
	// counts empty quanta, bucket i>0 counts lengths in [2^(i-1), 2^i).
	// The last bucket absorbs overflow.
	QuantumHist [16]int64
}

//acr:noalloc
func (s *SchedStats) note(n int64) {
	s.Spans++
	s.SpanInstrs += n
	b := bits.Len64(uint64(n))
	if b >= len(s.QuantumHist) {
		b = len(s.QuantumHist) - 1
	}
	s.QuantumHist[b]++
}

// SchedStats reports serial-engine dispatch diagnostics for the run so far.
func (m *Machine) SchedStats() SchedStats { return m.schedStats }

// AvgQuantum returns the average quantum length in instructions, 0 before
// any quantum has been dispatched.
func (s SchedStats) AvgQuantum() float64 {
	if s.Spans == 0 {
		return 0
	}
	return float64(s.SpanInstrs) / float64(s.Spans)
}

// eagerSteps retires core p's private-instruction prefix while its clock is
// below ceil, reporting whether it advanced at all. Private instructions —
// register-only ALU ops, branches, NOPs, and ASSOCADDR markers with
// association disabled — read and write only p's own architectural state
// and per-core accounting, so retiring them here commutes with every other
// core's execution: the machine state after the full run is bit-identical
// to the strict smallest-clock-first order. Memory operations, barriers,
// halts and enabled association markers end the prefix.
//
//acr:noalloc
func (m *Machine) eagerSteps(p *cpu.Core, ceil int64) bool {
	code := m.program.Code
	advanced := false
	for n := 0; n < maxEagerSteps && p.State == cpu.Running && p.Cycles() < ceil && m.steps < m.cfg.MaxSteps; n++ {
		op := code[p.PC].Op
		if !(op == isa.NOP || op.IsALU() || op.IsBranch() || (op == isa.ASSOCADDR && !p.AssocEnabled)) {
			break
		}
		p.Step(m.program, m.sys, m.tracker, m.hooks)
		m.steps++
		m.schedStats.EagerInstrs++
		advanced = true
	}
	if advanced {
		m.schedStats.EagerCalls++
	}
	return advanced
}

// releaseBarrier resumes all barrier-waiting cores at the synchronised time,
// publishing one EvBarrier span per participant (arrival to release).
func (m *Machine) releaseBarrier() {
	t, n := m.sched.syncTime()
	t += barrierCycles(n)
	for _, c := range m.cores {
		if c.State == cpu.AtBarrier {
			if len(m.observers) > 0 {
				m.record(Event{Time: t, Kind: EvBarrier, Core: int32(c.ID), Dur: t - c.Cycles()})
			}
			c.SetCycles(t)
			c.SetState(cpu.Running)
		}
	}
	m.meter.Add(energy.BarrierSync, uint64(n))
	m.barriers++
	m.sched.noteClock(t)
}

// record publishes an event to every attached observer.
func (m *Machine) record(e Event) {
	for _, o := range m.observers {
		o.OnEvent(e)
	}
}

func (m *Machine) result() Result {
	r := Result{Barriers: m.barriers}
	for _, c := range m.cores {
		c.FlushAccounting(m.meter) // defensive: quanta flush on exit already
		if c.Cycles() > r.Cycles {
			r.Cycles = c.Cycles()
		}
		r.Instrs += c.Instrs
	}
	m.meter.AddLeakage(float64(r.Cycles) * float64(len(m.cores)))
	r.EnergyPJ = m.meter.TotalPJ()
	r.DynamicPJ = m.meter.DynamicPJ()
	r.EnergyEvents = m.meter.Counts()
	r.Mem = m.sys.Stats()
	if m.mgr != nil {
		r.Strategy = m.mgr.Kind().String()
		r.Ckpt = m.mgr.Stats()
		r.Intervals = append(r.Intervals, m.mgr.Intervals()...)
		r.PeriodCycles = m.cfg.PeriodCycles
		r.ROIStartCycles = m.cfg.ROIStartCycles
	}
	if m.handler != nil {
		r.AddrMap = m.handler.AddrMap().Stats()
	}
	if m.timeline != nil {
		r.Timeline = m.timeline.snapshot()
		r.TimelineDropped = m.timeline.dropped
	}
	return r
}
