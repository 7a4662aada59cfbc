// Parallel execution engine: conflict-checked concurrent core quanta with
// serial fallback (Config.Workers > 1).
//
// The engine exploits the same isolation argument the quantum-batched serial
// scheduler rests on (sched.go): the serial interleaving is fully
// characterised by ordering instructions by (⌊start cycle⌋, core id, per-core
// program order). A speculative round picks a horizon h — the earlier of the
// next timed event (checkpoint boundary, error detection) and a fixed span —
// and executes every running core with clock < h concurrently on a worker
// pool, each against a private mem.SpecView that overlays its writes, records
// the cache lines it touched, and defers every cross-core side effect
// (directory metadata, log bits, stats, energy). Checkpoint hooks are
// predicted against round-frozen state and recorded for replay.
//
// Commit requires the round to have been conflict-free: no line written by
// one quantum (stores and ASSOC-ADDRed addresses) was touched — read or
// written — by another. Conflict-free quanta read exactly the values the
// serial oracle would have shown them, so replaying their deferred effects in
// the serial merge order reproduces the serial machine bit-identically:
// memory words, log bits, AddrMap contents, every statistic and every energy
// count. Any round that conflicts (or poisons its stall prediction, or
// panics on a worker) is discarded — cores, views, caches and tracker shards
// roll back to the round start — and the span is re-executed through the
// serial scheduler, the oracle. Determinism therefore never depends on the
// engine being right about speculation, only on it detecting when it was
// wrong.
package sim

import (
	"errors"
	"fmt"

	"acr/internal/cpu"
	"acr/internal/mem"
	"acr/internal/slice"
)

// roundSpanCycles caps a speculative round's horizon in event-free
// stretches. Smaller spans bound the work discarded on a conflict (and the
// overlay/journal footprint); larger spans amortise round overhead. Rounds
// never cross a timed event, so the cap only matters between events.
const roundSpanCycles = 2048

// ParallelStats describes what the parallel engine did during a run. It is
// deliberately not part of Result: Result must be bit-identical across
// worker counts, while these counters describe the (non-deterministic-free
// but result-invariant) execution strategy.
type ParallelStats struct {
	// Rounds counts speculative rounds attempted; Committed and Aborted
	// partition them. SerialQuanta counts quanta run serially because
	// fewer than two cores were eligible.
	Rounds       int64
	Committed    int64
	Aborted      int64
	SerialQuanta int64
	// SpecInstrs counts instructions executed speculatively and committed;
	// ReplayInstrs counts instructions re-executed serially after aborts.
	SpecInstrs   int64
	ReplayInstrs int64
	// HookEvents counts deferred checkpoint-hook events (first stores and
	// ASSOC-ADDRs) replayed at commit.
	HookEvents int64
}

// ParallelStats returns the engine counters of the last Run (zero for
// serial runs).
func (m *Machine) ParallelStats() ParallelStats { return m.parStats }

// hookEvent is one deferred checkpoint hook occurrence, recorded during
// speculation and replayed through the real cpu.Hooks at commit.
type hookEvent struct {
	cycle     int64 // start cycle of the issuing instruction (merge key)
	addr      int64
	old       int64     // FirstStore: word value before the store
	recipe    slice.Ref // Assoc: recipe of the paired store's value
	pc        int32     // Assoc: the ASSOC-ADDR instruction's PC
	predicted int64     // stall the speculative prediction charged
	core      int32
	kind      uint8
}

const (
	evFirstStore uint8 = iota
	evAssoc
)

// parallelEngine owns the worker pool and the per-core speculation state.
// All fields indexed by core id are touched by at most one worker during a
// round; everything else is main-goroutine only.
type parallelEngine struct {
	m *Machine

	views   []*mem.SpecView // per-core speculative memory views
	snaps   []cpu.SpecState // per-core rollback snapshots
	events  [][]hookEvent   // per-core deferred hook events
	scratch [][]int64       // per-core slice-evaluation scratch
	panics  []any           // per-core captured worker panics

	roundH   int64 // current round horizon; frozen while workers run
	eligible []int
	writerOf map[int64]int // line -> writing core, reused per round
	heap     []mergeCursor // commit's merge heap, one cursor per core

	jobs    chan int
	results chan int
}

func newParallelEngine(m *Machine) *parallelEngine {
	n := len(m.cores)
	w := m.cfg.Workers
	if w > n {
		w = n
	}
	e := &parallelEngine{
		m:        m,
		views:    make([]*mem.SpecView, n),
		snaps:    make([]cpu.SpecState, n),
		events:   make([][]hookEvent, n),
		scratch:  make([][]int64, n),
		panics:   make([]any, n),
		eligible: make([]int, 0, n),
		writerOf: make(map[int64]int, 256),
		heap:     make([]mergeCursor, 0, n),
		jobs:     make(chan int, n),
		results:  make(chan int, n),
	}
	for i := range e.views {
		e.views[i] = mem.NewSpecView(m.sys, i)
		e.scratch[i] = make([]int64, 512)
	}
	for i := 0; i < w; i++ {
		go e.worker()
	}
	return e
}

func (e *parallelEngine) shutdown() { close(e.jobs) }

func (e *parallelEngine) worker() {
	for id := range e.jobs {
		e.runCore(id)
		e.results <- id
	}
}

// runCore executes one core's speculative quantum up to the round horizon.
// It touches only the core, its SpecView, its tracker shard and frozen
// shared state. A panic (the simulator's response to architecturally
// impossible situations) is captured and re-raised deterministically by the
// serial replay of the aborted round, on the machine's goroutine.
//
//acr:spec-safe
func (e *parallelEngine) runCore(id int) {
	defer func() {
		if r := recover(); r != nil {
			e.panics[id] = r
		}
	}()
	m := e.m
	c := m.cores[id]
	sv := e.views[id]
	for c.State == cpu.Running && c.Cycles() < e.roundH {
		c.SpecStep(m.program, sv, m.tracker, e)
	}
}

// SpecFirstStore implements cpu.SpecHooks: predict the stall against the
// round-frozen AddrMap and defer the real hook to commit.
//
//acr:spec-safe
func (e *parallelEngine) SpecFirstStore(core int, cycle int64, addr, old int64) int64 {
	m := e.m
	if m.mgr == nil {
		return 0
	}
	sv := e.views[core]
	if sv.AssocdOwn(addr) {
		// The quantum ASSOC-ADDRed this address earlier in the round, so
		// the frozen AddrMap cannot predict the stall (the pending
		// insertion lands at replay, before this event). Unreachable given
		// per-interval log bits, but poison rather than prove: the serial
		// oracle resolves the round.
		sv.Poisoned = true
	}
	stall := m.mgr.PredictFirstStore(addr, old, e.scratch[core])
	e.events[core] = append(e.events[core], hookEvent{
		cycle: cycle, core: int32(core), kind: evFirstStore,
		addr: addr, old: old, predicted: stall,
	})
	return stall
}

// SpecAssoc implements cpu.SpecHooks. AddrMap insertion never stalls
// (OnAssoc returns 0 whether the insertion is accepted or rejected), so the
// prediction is trivial; the insertion itself is deferred to commit.
//
//acr:spec-safe
func (e *parallelEngine) SpecAssoc(core int, cycle int64, pc int, addr int64, recipe slice.Ref) int64 {
	if e.m.handler == nil {
		return 0
	}
	e.events[core] = append(e.events[core], hookEvent{
		cycle: cycle, core: int32(core), kind: evAssoc,
		pc: int32(pc), addr: addr, recipe: recipe,
	})
	return 0
}

// round runs one speculative round to horizon h: dispatch, conflict check,
// then commit, or roll back and replay serially.
func (e *parallelEngine) round(h int64) error {
	m := e.m
	e.roundH = h
	for _, id := range e.eligible {
		c := m.cores[id]
		c.SaveSpec(&e.snaps[id])
		e.views[id].Begin()
		if m.tracker != nil {
			m.tracker.BeginSpec(id)
		}
		e.events[id] = e.events[id][:0]
		e.panics[id] = nil
	}
	m.parStats.Rounds++
	for _, id := range e.eligible {
		e.jobs <- id
	}
	for range e.eligible {
		<-e.results
	}

	ok := true
	for _, id := range e.eligible {
		if e.panics[id] != nil || e.views[id].Poisoned {
			ok = false
		}
	}
	if ok && e.conflicts() {
		ok = false
	}
	if !ok {
		e.abort()
		return m.serialSpan(h)
	}
	return e.commit()
}

// conflicts reports whether any line written by one quantum was touched by
// another. ASSOC-ADDRed addresses count as writes (their replay mutates the
// AddrMap entry other cores' stall predictions may have read).
func (e *parallelEngine) conflicts() bool {
	clear(e.writerOf)
	for _, id := range e.eligible {
		for _, ln := range e.views[id].WriteLines() {
			if w, seen := e.writerOf[ln]; seen && w != id {
				return true
			}
			e.writerOf[ln] = id
		}
	}
	for _, id := range e.eligible {
		for _, ln := range e.views[id].ReadLines() {
			if w, seen := e.writerOf[ln]; seen && w != id {
				return true
			}
		}
	}
	return false
}

// commit applies a conflict-free round in the serial merge order.
func (e *parallelEngine) commit() error {
	m := e.m

	// 1. Memory effects: DRAM words, log bits, directory metadata, cache
	// journals, per-core stats, buffered energy. Per-line effects commute
	// across the round's quanta because each line has at most one writer.
	for _, id := range e.eligible {
		e.views[id].Commit()
	}

	// 2. Hook replay: a k-way merge of the per-core event streams into
	// the serial order (⌊start cycle⌋, core id, per-core program order),
	// so checkpoint log appends and AddrMap mutations land exactly as the
	// serial oracle would order them.
	if err := e.replayHooks(); err != nil {
		return err
	}

	// 3. Recipe arenas: compaction was deferred during the round so the
	// recorded slice.Refs stayed valid through replay; release now.
	if m.tracker != nil {
		for _, id := range e.eligible {
			m.tracker.CommitSpec(id)
		}
	}

	// 4. Scheduling transitions (replayed through SetState so OnState
	// observers fire exactly once, on the machine's goroutine), meter
	// flushes, clock notes and the step budget.
	for _, id := range e.eligible {
		c := m.cores[id]
		if to := c.State; to != e.snaps[id].SavedState() {
			c.State = e.snaps[id].SavedState()
			c.SetState(to)
		}
		c.FlushAccounting(m.meter)
		m.sched.noteClock(c.Cycles())
		d := c.Instrs - e.snaps[id].SavedInstrs()
		m.steps += d
		m.parStats.SpecInstrs += d
	}
	m.parStats.Committed++
	// The committed quanta moved many cores' clocks at once.
	m.sched.clocksMoved()
	return nil
}

// replayHooks replays the round's deferred hook events through the real
// cpu.Hooks in the serial merge order. A replay stall differing from the
// prediction would mean mispredicted timing is already baked into a
// committed clock; the conflict and poison rules make that unreachable,
// and the check turns any gap in that argument into a hard error instead
// of a silently wrong profile. The merged cycles are checked the same way:
// a stream out of cycle order shows up as a step back in the merged
// sequence, right after the event it should have preceded.
//
//acr:noalloc
func (e *parallelEngine) replayHooks() error {
	m := e.m
	e.mergeInit()
	last := int64(-1 << 63)
	for {
		ev := e.mergeNext()
		if ev == nil {
			return nil
		}
		if ev.cycle < last {
			return hookOrderError(ev, last)
		}
		last = ev.cycle
		var stall int64
		switch ev.kind {
		case evFirstStore:
			stall = m.FirstStore(int(ev.core), ev.addr, ev.old)
		case evAssoc:
			stall = m.Assoc(int(ev.core), int(ev.pc), ev.addr, ev.recipe)
		}
		if stall != ev.predicted {
			return hookStallError(ev, stall)
		}
		m.parStats.HookEvents++
	}
}

func hookOrderError(ev *hookEvent, last int64) error {
	return fmt.Errorf("sim: parallel hook stream of core %d out of cycle order (%d after %d)",
		ev.core, ev.cycle, last)
}

func hookStallError(ev *hookEvent, stall int64) error {
	return fmt.Errorf("sim: parallel hook replay diverged on core %d addr %d (predicted stall %d, replay %d); speculation is unsound for this run",
		ev.core, ev.addr, ev.predicted, stall)
}

// mergeCursor is one core's read position in its deferred event stream.
// cycle caches the start cycle of the stream's next event, the merge key.
//
// Commit merges the eligible cores' streams into the serial order (cycle,
// core id, per-core program order) over a binary min-heap of cursors
// keyed on (cycle, core id). Each stream is non-decreasing in cycle —
// events are recorded in program order at the issuing instruction's start
// cycle — so the merge equals a stable sort of the streams' concatenation
// on (cycle, core). The heap's capacity is the core count, fixed at
// engine construction, so merging never allocates.
type mergeCursor struct {
	cycle int64
	core  int32
	pos   int32
}

// mergeInit starts a merge over the eligible cores' streams.
//
//acr:noalloc
func (e *parallelEngine) mergeInit() {
	e.heap = e.heap[:0]
	for _, id := range e.eligible {
		if s := e.events[id]; len(s) > 0 {
			e.heap = append(e.heap, mergeCursor{cycle: s[0].cycle, core: int32(id)}) //acr:alloc-ok capacity is the core count
		}
	}
	for i := len(e.heap)/2 - 1; i >= 0; i-- {
		e.mergeDown(i)
	}
}

// mergeNext returns the next event in merge order, read in place from its
// stream, or nil once every stream is drained.
//
//acr:noalloc
func (e *parallelEngine) mergeNext() *hookEvent {
	if len(e.heap) == 0 {
		return nil
	}
	top := &e.heap[0]
	s := e.events[top.core]
	ev := &s[top.pos]
	top.pos++
	if int(top.pos) < len(s) {
		top.cycle = s[top.pos].cycle
	} else {
		last := len(e.heap) - 1
		e.heap[0] = e.heap[last]
		e.heap = e.heap[:last]
	}
	e.mergeDown(0)
	return ev
}

// mergeDown restores the heap property below index i.
//
//acr:noalloc
func (e *parallelEngine) mergeDown(i int) {
	h := e.heap
	n := len(h)
	for {
		j := i
		if l := 2*i + 1; l < n && e.mergeBefore(l, j) {
			j = l
		}
		if r := 2*i + 2; r < n && e.mergeBefore(r, j) {
			j = r
		}
		if j == i {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// mergeBefore orders heap entries a and b by (cycle, core id). Distinct
// cursors belong to distinct cores, so the order is total and the merge
// deterministic.
func (e *parallelEngine) mergeBefore(a, b int) bool {
	x, y := &e.heap[a], &e.heap[b]
	return x.cycle < y.cycle || (x.cycle == y.cycle && x.core < y.core)
}

// abort rolls every participating core, view and tracker shard back to the
// round start. The restore is bit-exact, so the serial replay that follows
// sees precisely the state the round started from.
func (e *parallelEngine) abort() {
	m := e.m
	for _, id := range e.eligible {
		m.cores[id].RestoreSpec(&e.snaps[id])
		e.views[id].Abort()
		if m.tracker != nil {
			m.tracker.AbortSpec(id)
		}
	}
	m.parStats.Aborted++
	// The roll-back rewound clocks the heap had already ordered.
	m.sched.clocksMoved()
}

// serialSpan re-executes an aborted round's span through the serial
// scheduler until every running core has reached h (or the machine blocks
// or halts). No timed event can fire inside the span — h never exceeds the
// next armed event — but barrier releases can, exactly as in the serial
// loop. A panic the speculative round captured re-raises here, on the
// machine's goroutine, at the same instruction.
func (m *Machine) serialSpan(h int64) error {
	before := m.steps
	defer func() { m.parStats.ReplayInstrs += m.steps - before }()
	for {
		if m.sched.halted() == len(m.cores) {
			return nil
		}
		if m.sched.running() == 0 {
			if m.sched.atBarrier() > 0 {
				m.releaseBarrier()
				continue
			}
			return errors.New("sim: no runnable cores (scheduling bug)")
		}
		c, bound := m.sched.pick()
		if c.Cycles() >= h {
			return nil
		}
		if bound > h {
			bound = h
		}
		if err := m.stepSpan(c, bound); err != nil {
			return err
		}
	}
}

// runParallel is the parallel counterpart of runSerial. Event handling,
// termination and the single-core fast path are byte-for-byte the serial
// logic; only event-free multi-core stretches run as speculative rounds.
func (m *Machine) runParallel() (Result, error) {
	e := newParallelEngine(m)
	defer e.shutdown()
	for {
		if m.sched.halted() == len(m.cores) {
			break
		}
		if m.sched.running() == 0 {
			if m.sched.atBarrier() > 0 {
				m.releaseBarrier()
				continue
			}
			return Result{}, errors.New("sim: no runnable cores (scheduling bug)")
		}

		c, bound := m.sched.pick()
		horizon := c.Cycles()

		// Timed events up to the horizon, in timestamp order (identical
		// to runSerial).
		ckptTime, haveCkpt := m.coord.next()
		haveCkpt = haveCkpt && ckptTime <= horizon
		errOccur, errDetect, haveErr := m.recov.next()
		haveErr = haveErr && errDetect <= horizon
		switch {
		case haveCkpt && (!haveErr || ckptTime <= errDetect):
			m.coord.onBoundary()
			continue
		case haveErr:
			if err := m.recov.recover(errOccur, errDetect); err != nil {
				return Result{}, err
			}
			continue
		}

		// Round horizon: the next armed event, capped to a span so
		// conflicts stay quantum-granular in event-free stretches.
		h := horizon + roundSpanCycles
		if t, ok := m.coord.next(); ok && t < h {
			h = t
		}
		if _, detect, ok := m.recov.next(); ok && detect < h {
			h = detect
		}
		e.eligible = e.eligible[:0]
		for _, cc := range m.cores {
			if cc.State == cpu.Running && cc.Cycles() < h {
				e.eligible = append(e.eligible, cc.ID)
			}
		}

		if len(e.eligible) < 2 {
			// One movable core: speculation buys nothing. Run the serial
			// quantum verbatim.
			if t, ok := m.coord.next(); ok && t < bound {
				bound = t
			}
			if _, detect, ok := m.recov.next(); ok && detect < bound {
				bound = detect
			}
			if err := m.stepSpan(c, bound); err != nil {
				return Result{}, err
			}
			m.parStats.SerialQuanta++
			continue
		}

		if err := e.round(h); err != nil {
			return Result{}, err
		}
		if m.steps > m.cfg.MaxSteps {
			return Result{}, fmt.Errorf("sim: exceeded %d steps (runaway program?)", m.cfg.MaxSteps)
		}
	}
	return m.result(), nil
}
