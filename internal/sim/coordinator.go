package sim

import (
	"acr/internal/ckpt"
	"acr/internal/cpu"
	"acr/internal/energy"
)

// coordinator is the checkpoint-placement engine the machine composes. It
// owns the boundary cadence (uniform, or recomputation-aware when adaptive
// placement is on) and drives establishment through the ckpt.Manager.
type coordinator interface {
	// next returns the next armed boundary time; ok is false when no
	// boundary is armed (checkpointing disabled or budget exhausted).
	next() (t int64, ok bool)
	// onBoundary handles a reached boundary: it either defers it
	// (adaptive placement) or establishes the checkpoint.
	onBoundary()
}

// noCheckpoints is the coordinator of an uncheckpointed machine.
type noCheckpoints struct{}

func (noCheckpoints) next() (int64, bool) { return 0, false }
func (noCheckpoints) onBoundary()         {}

// ckptCoordinator implements coordinator over the machine's checkpoint
// manager: uniform boundaries PeriodCycles apart, a checkpoint budget
// (MaxCheckpoints) measured from the region of interest, and the optional
// adaptive deferral of §V-D1/§V-D3.
type ckptCoordinator struct {
	m *Machine

	nextCkpt   int64
	ckptsDone  int64
	roiPending bool
	defers     int
	// roiCarry accumulates the statistics of recoveries detected inside
	// the ROI before its first boundary; the ROI reset keeps them.
	roiCarry ckpt.Stats
}

func newCkptCoordinator(m *Machine) *ckptCoordinator {
	return &ckptCoordinator{
		m:          m,
		nextCkpt:   m.cfg.PeriodCycles,
		roiPending: m.cfg.ROIStartCycles > 0,
	}
}

func (co *ckptCoordinator) next() (int64, bool) {
	if !co.roiPending && co.ckptsDone >= co.m.cfg.MaxCheckpoints {
		return 0, false
	}
	return co.nextCkpt, true
}

func (co *ckptCoordinator) onBoundary() {
	if co.deferCheckpoint() {
		return
	}
	co.establish()
}

// deferCheckpoint reports whether adaptive placement wants to push the
// pending boundary out (by a quarter period, at most three times), and
// performs the deferral: the boundary is stretched while the open
// interval's omission ratio runs above the historical average, i.e. while
// recomputation is absorbing the would-be checkpoint.
func (co *ckptCoordinator) deferCheckpoint() bool {
	if !co.m.cfg.AdaptivePlacement || co.roiPending || co.defers >= maxDefers {
		return false
	}
	mgr := co.m.mgr
	if !shouldDefer(mgr.Intervals(), mgr.OpenInterval()) {
		return false
	}
	co.defers++
	co.m.record(Event{Time: co.nextCkpt, Kind: EvDefer, Core: -1})
	co.nextCkpt += co.m.cfg.PeriodCycles / 4
	return true
}

// maxDefers caps how often one boundary may be pushed out, bounding the
// interval stretch (and hence the roll-back depth) to 1.75 periods.
const maxDefers = 3

// shouldDefer is the adaptive-placement trigger: defer while the open
// interval omits above the historical average. It needs at least three
// closed intervals of history and enough open-interval volume (half the
// mean interval size) to judge the region; the 2-point margin keeps
// boundary noise from oscillating the decision.
func shouldDefer(history []ckpt.IntervalStat, open ckpt.IntervalStat) bool {
	if len(history) < 3 {
		return false
	}
	var logged, omitted, size float64
	for _, iv := range history {
		logged += float64(iv.Logged)
		omitted += float64(iv.Omitted)
		size += float64(iv.Size())
	}
	if logged+omitted == 0 {
		return false
	}
	avgRatio := omitted / (logged + omitted)
	if float64(open.Size()) < size/float64(len(history))/2 {
		// Too little volume yet to judge the region.
		return false
	}
	ratio := float64(open.Omitted) / float64(open.Size())
	return ratio > avgRatio+0.02
}

// noteRecovery records what a recovery detected at detect added to the
// manager's statistics (before and after its roll-back of depth intervals)
// when the detection lies inside the ROI but the ROI reset is still
// pending: the ROI starts between boundaries, and the reset at its first
// boundary must not drop a recovery that belongs to it.
func (co *ckptCoordinator) noteRecovery(detect int64, before, after ckpt.Stats, depth int) {
	if !co.roiPending || detect < co.m.cfg.ROIStartCycles {
		return
	}
	c := &co.roiCarry
	c.Recoveries += after.Recoveries - before.Recoveries
	c.RestoredWords += after.RestoredWords - before.RestoredWords
	c.RecomputedWords += after.RecomputedWords - before.RecomputedWords
	for i := range c.ReplayLens {
		c.ReplayLens[i] += after.ReplayLens[i] - before.ReplayLens[i]
	}
	c.MultiSnapshotRollbacks += after.MultiSnapshotRollbacks - before.MultiSnapshotRollbacks
	c.MaxRollbackDepth = max(c.MaxRollbackDepth, int64(depth))
}

// establish creates a coordinated checkpoint (global or local).
func (co *ckptCoordinator) establish() {
	m := co.m
	// Establishment start: the latest point any live core has reached.
	tMax := m.sched.liveMax(0)
	info := m.mgr.Establish(tMax, m.archStates())
	// The closed interval's volume: the per-checkpoint traffic the event
	// stream reports (reported by Establish because some strategies —
	// differential — only learn it while sealing).
	ivl := info.ClosedInterval

	maxRelease := tMax
	for _, g := range info.Groups {
		// Group start time: the latest member (under Global the single
		// group makes this tMax, i.e. full coordination skew).
		tg := int64(0)
		for _, c := range m.cores {
			if g.Members.Has(c.ID) && c.State != cpu.Halted && c.Cycles() > tg {
				tg = c.Cycles()
			}
		}
		stall := barrierCycles(g.Cores) + handlerCycles +
			m.sys.TransferCycles(g.FlushedWords+g.ArchWords+g.LogWords) +
			m.sys.FastTransferCycles(g.FastLogWords)
		release := tg + stall
		if release > maxRelease {
			maxRelease = release
		}
		for _, c := range m.cores {
			if g.Members.Has(c.ID) && c.State != cpu.Halted {
				c.SetCycles(release)
			}
		}
		m.meter.Add(energy.BarrierSync, uint64(g.Cores))
		m.meter.Add(energy.HandlerOp, uint64(g.Cores))
	}
	m.sched.noteClock(maxRelease)
	// The releases moved running cores' clocks without a state transition.
	m.sched.clocksMoved()

	switch {
	case co.roiPending && tMax >= m.cfg.ROIStartCycles:
		// The first checkpoint inside the region of interest:
		// statistics are measured from here on. Checkpoints taken
		// during warm-up kept the AddrMap and log bits in steady
		// state but are not reported and not budgeted.
		co.roiPending = false
		m.mgr.ResetStats(co.roiCarry)
	case co.roiPending:
		// Warm-up checkpoint: unbudgeted.
	default:
		co.ckptsDone++
	}
	co.defers = 0
	m.record(Event{Time: tMax, Kind: EvCheckpoint, Core: -1,
		Detail: ivl.Logged, Aux: ivl.Omitted, Dur: maxRelease - tMax})
	// Boundaries continue on the wall clock; if establishment (or a
	// recovery) overshot several boundaries, take one checkpoint now and
	// resume the cadence from here rather than firing a burst. The next
	// boundary must land strictly after every core has resumed, or a
	// period shorter than the establishment stall would livelock the
	// machine in back-to-back checkpoints.
	co.nextCkpt += m.cfg.PeriodCycles
	if co.nextCkpt <= maxRelease {
		co.nextCkpt = maxRelease + 1
	}
}
