package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"acr/internal/fault"
	"acr/internal/sim"
	"acr/internal/workloads"
)

// panicError is a panic recovered from a serial op.
type panicError struct{ msg string }

func (p panicError) Error() string { return "panic: " + p.msg }

// opOutcome is what one simulated run produced and cost.
type opOutcome struct {
	Res    sim.Result
	Sched  sim.SchedStats
	Par    sim.ParallelStats
	Digest string
	// SetupS is the host time of Bench.Build plus sim.New; RunS the host
	// time of Machine.Run.
	SetupS, RunS float64
	// HeapBytes is the live heap right after Run, with the machine still
	// resident, not counting the harness's memory-image buffer.
	HeapBytes uint64
	Err       error
}

// execOp builds a fresh machine — so the simulated caches start cold —
// runs it, and digests its final memory through the reusable buffer snap. A panic in a serial op is
// recovered and reported as the op's error; a panic on a parallel engine
// worker goroutine cannot be recovered and ends the process. When tr is
// non-nil the op's phases are recorded as spans and a host-stamping
// observer receives the machine's event stream.
func execOp(w workload, k opKey, row *refRow, errs *fault.Schedule, tr *tracer, snap *[]int64) (out opOutcome) {
	op := tr.begin(k)
	defer func() {
		if r := recover(); r != nil {
			out.Err = panicError{msg: fmt.Sprint(r)}
		}
		tr.end(op, out.Err)
	}()
	kernel, err := workloads.ByName(k.Kernel)
	if err != nil {
		out.Err = err
		return out
	}
	cfg := simConfig(w, kernel, k.Config, row, errs)
	if obs := tr.observer(); obs != nil {
		cfg.Observers = []sim.Observer{obs}
	}

	t0 := time.Now()
	p, err := kernel.Build(w.Cores, workloads.ClassS)
	if err != nil {
		out.Err = err
		return out
	}
	t1 := time.Now()
	m, err := sim.New(cfg, p)
	if err != nil {
		out.Err = err
		return out
	}
	t2 := time.Now()
	res, err := m.Run()
	t3 := time.Now()
	tr.span(op, "build", t0, t1)
	tr.span(op, "new", t1, t2)
	tr.span(op, "run", t2, t3)
	if err != nil {
		out.Err = err
		return out
	}
	out.SetupS = t2.Sub(t0).Seconds()
	out.RunS = t3.Sub(t2).Seconds()
	out.Res, out.Sched, out.Par = res, m.SchedStats(), m.ParallelStats()
	*snap = m.Mem().SnapshotWords(*snap)
	out.Digest = digestWords(*snap)
	t4 := time.Now()
	tr.span(op, "digest", t3, t4)
	// Collect with the machine still resident: the live heap, less the
	// harness's image buffer, is then the op's footprint, and the previous
	// op's garbage is gone before the next op is timed.
	runtime.GC()
	out.HeapBytes = readMetric("/gc/heap/live:bytes") - uint64(8*cap(*snap))
	runtime.KeepAlive(m)
	tr.span(op, "gc", t4, time.Now())
	return out
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
