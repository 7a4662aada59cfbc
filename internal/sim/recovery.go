package sim

import (
	"acr/internal/ckpt"
	"acr/internal/fault"
)

// recoverer is the roll-back engine the machine composes. It owns the error
// schedule and the recovery protocol: safe-checkpoint selection, functional
// roll-back with amnesic recomputation, and the stall charge.
type recoverer interface {
	// next returns the next undetected error's occurrence and detection
	// times; ok is false when the schedule is exhausted or absent.
	next() (occur, detect int64, ok bool)
	// recover rolls the machine back for the error at (occur, detect).
	recover(occur, detect int64) error
}

// noErrors is the recoverer of a machine without an error schedule.
type noErrors struct{}

func (noErrors) next() (int64, int64, bool) { return 0, 0, false }
func (noErrors) recover(_, _ int64) error   { return nil }

// recoveryEngine implements recoverer over the fail-stop schedule and the
// checkpoint manager's rollback machinery.
type recoveryEngine struct {
	m      *Machine
	faults *fault.Schedule
	// errIndex rotates the erring core deterministically across injected
	// errors (the schedule says when, not where).
	errIndex int
}

func newRecoveryEngine(m *Machine, faults *fault.Schedule) *recoveryEngine {
	return &recoveryEngine{m: m, faults: faults}
}

func (re *recoveryEngine) next() (occur, detect int64, ok bool) {
	return re.faults.Pending()
}

// recover rolls the machine back to the most recent safe checkpoint,
// recomputing amnesically omitted values, and charges the recovery stall.
func (re *recoveryEngine) recover(errOccur, errDetect int64) error {
	m := re.m
	target, err := m.mgr.SafeTarget(errOccur)
	if err != nil {
		return err
	}
	before := m.mgr.Stats()
	info, err := m.mgr.Rollback(target, len(m.cores))
	if err != nil {
		return err
	}
	if co, ok := m.coord.(*ckptCoordinator); ok {
		co.noteRecovery(errDetect, before, m.mgr.Stats(), info.IntervalsApplied)
	}

	// Detection point: every live core has at least reached errDetect.
	tDetect := m.sched.liveMax(errDetect)

	// The group that must stall for the roll-back: everyone under Global;
	// the erring core's communication component under Local (the paper's
	// coordinated-local recovery, §V-E). The erring core rotates
	// deterministically across injected errors.
	group := m.sys.AllCores()
	if m.mgr.Mode() == ckpt.Local {
		errCore := re.errIndex % len(m.cores)
		for _, g := range m.sys.CommGroups() {
			if g.Has(errCore) {
				group = g
				break
			}
		}
	}
	re.errIndex++

	maxRecompute := int64(0)
	for coreID, rc := range info.RecomputeCycles {
		if group.Has(coreID) && rc > maxRecompute {
			maxRecompute = rc
		}
	}
	stall := handlerCycles + barrierCycles(group.Count()) +
		m.sys.TransferCycles(int(info.LogWordsRead+info.WordsRestored)) +
		m.sys.FastTransferCycles(int(info.FastLogWordsRead)) +
		maxRecompute
	release := tDetect + stall

	// Functional roll-back of every core (determinism keeps non-group
	// cores' re-execution identical under Local; only the stall charge
	// is confined to the group).
	for i, c := range m.cores {
		c.Restore(&target.Arch[i])
		if group.Has(c.ID) {
			c.SetCycles(release)
		} else {
			c.SetCycles(tDetect)
		}
		if m.tracker != nil {
			m.tracker.ResetCore(c.ID, &c.Regs)
		}
	}
	re.faults.Consume()
	// The restores rewound clocks and states in ways the incremental
	// scheduler aggregates cannot characterise; force a rescan.
	m.sched.invalidate()
	m.record(Event{Time: tDetect, Kind: EvError, Core: -1, Detail: errOccur})
	m.record(Event{Time: release, Kind: EvRecovery, Core: -1,
		Detail: info.WordsRestored, Aux: info.RecomputedValues, Dur: release - tDetect})
	return nil
}
