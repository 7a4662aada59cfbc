// Package cpu models the in-order cores of the simulated machine (Table I:
// 1.09 GHz, 4-issue, in-order, 8 outstanding loads/stores). A core is a
// functional interpreter over the ISA plus a timing model: ALU instructions
// retire at the issue rate (4 per cycle), memory instructions stall for the
// latency of the cache level that services them.
//
// Both execution paths — the Step interpreter and the speculative SpecStep
// the parallel engine drives — are deterministic functions of architectural
// state: no wall-clock reads, no process-global randomness, no map-iteration
// order.
// The sim package's bit-identity oracles depend on it.
//
//acr:deterministic
package cpu

import (
	"fmt"

	"acr/internal/energy"
	"acr/internal/isa"
	"acr/internal/mem"
	"acr/internal/prog"
	"acr/internal/slice"
)

// State is the scheduling state of a core.
type State uint8

// Core states.
const (
	Running State = iota
	AtBarrier
	Halted
)

func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case AtBarrier:
		return "at-barrier"
	case Halted:
		return "halted"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// ArchState is the architectural state captured by a checkpoint: exactly
// what the paper's baseline checkpoints per core besides memory (§II-A:
// "recording (the rest of) each core's architectural state").
type ArchState struct {
	Regs  [isa.NumRegs]int64
	PC    int
	State State
}

// Words returns the architectural state size in 64-bit words, used to cost
// register checkpointing.
func (a *ArchState) Words() int { return isa.NumRegs + 1 }

// Hooks intercepts architectural events that the checkpointing machinery
// cares about. The machine implements Hooks; a nil hook field disables the
// corresponding mechanism.
type Hooks interface {
	// FirstStore fires when a store hits a word whose log bit was clear
	// (first update in the current checkpoint interval). old is the
	// word's value before the store. It returns extra stall cycles
	// charged to the storing core (the inline log write or the cheaper
	// AddrMap check when the value is omitted).
	FirstStore(core int, addr, old int64) int64
	// Assoc fires when an ASSOC-ADDR retires, carrying the instruction's
	// own PC (keying static per-site policies), the effective address of
	// the paired store and the recipe of the stored value. It returns
	// extra stall cycles (AddrMap insertion).
	Assoc(core, pc int, addr int64, recipe slice.Ref) int64
}

// quarters per cycle: the 4-issue core is accounted in quarter-cycle units
// so that four back-to-back ALU instructions cost one cycle.
const qPerCycle = 4

// Core is one simulated in-order core.
type Core struct {
	ID    int
	Regs  [isa.NumRegs]int64
	PC    int
	State State

	// OnState, when non-nil, observes every scheduling-state transition
	// (BARRIER/HALT retirement, barrier release, recovery roll-back). The
	// sim scheduler uses it to maintain incremental run-state counters
	// instead of rescanning every core per instruction. Transitions are
	// rare (events, not instructions), so the indirect call is off the
	// hot path.
	OnState func(c *Core, from, to State)

	// quarters is the local clock in quarter-cycle units.
	quarters int64
	// Instrs counts retired instructions.
	Instrs int64

	// AssocEnabled selects whether ASSOC-ADDR instructions are live. In
	// non-ACR configurations the compiler would not embed them, so they
	// are skipped at zero cost, keeping the baseline binary honest.
	AssocEnabled bool

	lastStoreAddr int64
	lastStoreReg  isa.Reg

	// Shadow counters for the energy events charged on the retire path.
	// Step increments these core-local fields instead of calling
	// energy.Meter.Add per instruction; FlushAccounting drains them into
	// the shared meter at quantum boundaries. Counts are commutative, so
	// batching leaves every meter total bit-identical.
	accL1I   uint64
	accInt   uint64
	accFloat uint64
	accL1D   uint64
}

// New returns a core with the given id, entry PC and thread-id registers
// preset per the prog package convention.
func New(id int, entry int, nThreads int) *Core {
	c := &Core{ID: id, PC: entry}
	c.Regs[prog.RegTID] = int64(id)
	c.Regs[prog.RegNTHR] = int64(nThreads)
	return c
}

// Cycles returns the core-local clock in cycles.
//
//acr:spec-safe
func (c *Core) Cycles() int64 { return c.quarters / qPerCycle }

// AddCycles advances the core-local clock (checkpoint stalls, recovery
// stalls, barrier synchronisation).
func (c *Core) AddCycles(n int64) { c.quarters += n * qPerCycle }

// SetCycles forces the core-local clock (synchronisation to a barrier or
// checkpoint release time).
func (c *Core) SetCycles(n int64) { c.quarters = n * qPerCycle }

// SetState transitions the core's scheduling state, notifying OnState.
// All state changes — the core's own BARRIER/HALT retirement as well as the
// machine's barrier releases and recovery roll-backs — go through here so
// incremental counters never drift from the cores.
func (c *Core) SetState(s State) {
	if c.State == s {
		return
	}
	from := c.State
	c.State = s
	if c.OnState != nil {
		c.OnState(c, from, s)
	}
}

// Arch captures the core's architectural state.
func (c *Core) Arch() ArchState {
	return ArchState{Regs: c.Regs, PC: c.PC, State: c.State}
}

// Restore overwrites the core's architectural state (recovery roll-back).
func (c *Core) Restore(a *ArchState) {
	c.Regs = a.Regs
	c.PC = a.PC
	c.SetState(a.State)
}

// Step executes one instruction. The tracker may be nil (recipe tracking is
// only needed for ACR configurations); hooks may be nil (no checkpointing).
// Step panics on architecturally impossible situations (bad PC), which the
// prog validator rules out for well-formed programs.
//
// Energy events on the retire path accumulate in the core's shadow
// counters; the caller must FlushAccounting before reading the meter.
//
//acr:noalloc
func (c *Core) Step(p *prog.Program, m *mem.System, tr *slice.Tracker, hooks Hooks) {
	if c.State != Running {
		panic(fmt.Sprintf("cpu: Step on %v core %d", c.State, c.ID))
	}
	in := p.Code[c.PC]
	if in.Op == isa.ASSOCADDR && !c.AssocEnabled {
		// Not part of the baseline binary: skip for free.
		c.PC++
		return
	}
	c.accL1I++
	c.Instrs++
	next := c.PC + 1

	switch {
	case in.Op == isa.NOP:
		c.quarters++

	case in.Op.IsALU():
		res := isa.EvalALU(in.Op, c.Regs[in.Rs], c.Regs[in.Rt], c.Regs[in.Rd], in.Imm)
		if in.Rd != 0 {
			c.Regs[in.Rd] = res
		}
		if in.Op.IsFloat() {
			c.accFloat++
		} else {
			c.accInt++
		}
		if tr != nil {
			tr.OnALU(c.ID, in)
		}
		c.quarters++

	case in.Op == isa.LD:
		addr := c.Regs[in.Rs] + in.Imm
		val, lat := m.Load(c.ID, addr)
		if in.Rd != 0 {
			c.Regs[in.Rd] = val
		}
		if tr != nil {
			tr.OnLoad(c.ID, in.Rd, val)
		}
		c.quarters += lat * qPerCycle

	case in.Op == isa.ST:
		addr := c.Regs[in.Rs] + in.Imm
		old, first, lat := m.Store(c.ID, addr, c.Regs[in.Rt])
		c.quarters += lat * qPerCycle
		if first && hooks != nil {
			c.quarters += hooks.FirstStore(c.ID, addr, old) * qPerCycle
		}
		c.lastStoreAddr = addr
		c.lastStoreReg = in.Rt

	case in.Op == isa.ASSOCADDR:
		// Validated to pair with the preceding store: executes
		// atomically with it (paper §III-A). Modelled after a store
		// to L1-D (paper §IV).
		c.accL1D++
		c.quarters++
		if hooks != nil && tr != nil {
			c.quarters += hooks.Assoc(c.ID, c.PC, c.lastStoreAddr, tr.Recipe(c.ID, c.lastStoreReg)) * qPerCycle
		}

	case in.Op.IsBranch():
		if isa.BranchTaken(in.Op, c.Regs[in.Rs], c.Regs[in.Rt]) {
			next = int(in.Imm)
		}
		c.quarters++

	case in.Op == isa.BARRIER:
		// Clock first, then the transition: OnState observers read the
		// core's clock inclusive of the barrier instruction's own cycle
		// (the sim scheduler's incremental barrier-time aggregate relies
		// on this).
		c.quarters++
		c.SetState(AtBarrier)

	case in.Op == isa.HALT:
		c.quarters++
		c.SetState(Halted)

	default:
		panic(fmt.Sprintf("cpu: unhandled op %v at pc %d", in.Op, c.PC))
	}
	c.PC = next
}

// FlushAccounting drains the shadow counters into meter. The scheduler
// calls it once per executed quantum (and defensively before reading
// results), turning one meter call per retired instruction into one per
// quantum while keeping every count exactly equal.
//
//acr:noalloc
func (c *Core) FlushAccounting(meter *energy.Meter) {
	if c.accL1I != 0 {
		meter.Add(energy.L1IAccess, c.accL1I)
		c.accL1I = 0
	}
	if c.accInt != 0 {
		meter.Add(energy.IntOp, c.accInt)
		c.accInt = 0
	}
	if c.accFloat != 0 {
		meter.Add(energy.FloatOp, c.accFloat)
		c.accFloat = 0
	}
	if c.accL1D != 0 {
		meter.Add(energy.L1DAccess, c.accL1D)
		c.accL1D = 0
	}
}
