package main

import (
	"fmt"

	"acr/internal/bench"
	"acr/internal/sim"
)

// parallelTap captures the parallel engine's counters for one job: it joins
// the observers of every execution run for the job's memo key, delegating
// everything else to the wrapped lifecycle (nil when no observatory is
// attached). Calibration may execute the key several times; the converged
// run is the last, so the last delivered stats win.
type parallelTap struct {
	next  bench.Lifecycle
	key   string
	stats sim.ParallelStats
	seen  bool
}

func (t *parallelTap) JobBegin(j bench.Job, key string, shared bool) bench.JobObservation {
	var inner bench.JobObservation
	if t.next != nil {
		inner = t.next.JobBegin(j, key, shared)
	}
	if key != t.key {
		return inner
	}
	return tapObservation{tap: t, inner: inner}
}

// OnEvent implements sim.Observer; the tap only consumes end-of-run stats.
func (t *parallelTap) OnEvent(sim.Event) {}

// ObserveParallelStats implements sim.ParallelStatsObserver.
func (t *parallelTap) ObserveParallelStats(st sim.ParallelStats) {
	t.stats, t.seen = st, true
}

// print writes the captured counters as the summary's parallel block.
func (t *parallelTap) print(workers int) {
	if !t.seen {
		return
	}
	st := t.stats
	fmt.Printf("parallel     %d workers: %d rounds (%d committed, %d aborted), %d serial quanta\n",
		workers, st.Rounds, st.Committed, st.Aborted, st.SerialQuanta)
	fmt.Printf("             %d instrs speculative, %d replayed serially, %d hook events replayed\n",
		st.SpecInstrs, st.ReplayInstrs, st.HookEvents)
}

type tapObservation struct {
	tap   *parallelTap
	inner bench.JobObservation
}

func (o tapObservation) Observers() []sim.Observer {
	obs := []sim.Observer{o.tap}
	if o.inner != nil {
		obs = append(obs, o.inner.Observers()...)
	}
	return obs
}

func (o tapObservation) JobEnd(res sim.Result, err error) {
	if o.inner != nil {
		o.inner.JobEnd(res, err)
	}
}
