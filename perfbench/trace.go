package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"acr/internal/sim"
)

// span is one timed interval of the traced run. Spans of one op share its
// Op id; the op span is the parent of its build/new/run/digest/gc spans and
// of the host-stamped observer events.
type span struct {
	Name   string
	Op     int
	Parent string
	Start  time.Duration // since the tracer's base time
	End    time.Duration
	Note   string
}

// tracer records spans in memory for the traced run. A nil *tracer
// records nothing, so the untraced path pays only a nil check.
type tracer struct {
	base  time.Time
	spans []span
	ops   int
	cur   opKey
	start time.Duration
	obs   *hostObserver

	// Totals folded from every op's observer.
	recoveries        int64
	recoverySimCycles int64
	recoveryHost      time.Duration
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) begin(k opKey) int {
	if t == nil {
		return 0
	}
	t.ops++
	t.cur = k
	t.start = time.Since(t.base)
	t.obs = &hostObserver{base: t.base, op: t.ops}
	return t.ops
}

func (t *tracer) end(op int, err error) {
	if t == nil {
		return
	}
	note := t.cur.String()
	if err != nil {
		note += ": " + err.Error()
	}
	t.spans = append(t.spans, span{Name: "op", Op: op, Start: t.start, End: time.Since(t.base), Note: note})
	if o := t.obs; o != nil {
		t.spans = append(t.spans, o.spans...)
		t.recoveries += o.recoveries
		t.recoverySimCycles += o.recoverySimCycles
		t.recoveryHost += o.recoveryHost
		t.obs = nil
	}
}

func (t *tracer) span(op int, name string, from, to time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: "op", Start: from.Sub(t.base), End: to.Sub(t.base)})
}

// observer returns the current op's event observer, or nil when untraced.
func (t *tracer) observer() sim.Observer {
	if t == nil || t.obs == nil {
		return nil
	}
	return t.obs
}

// hostObserver stamps the machine's events with host time. Recovery spans
// run from the host time EvError was delivered to the host time of the
// matching EvRecovery. Barrier events are not kept: a 128-core run
// delivers one per core per barrier.
type hostObserver struct {
	base  time.Time
	op    int
	errAt time.Duration
	spans []span

	recoveries        int64
	recoverySimCycles int64
	recoveryHost      time.Duration
}

func (o *hostObserver) OnEvent(e sim.Event) {
	now := time.Since(o.base)
	switch e.Kind {
	case sim.EvError:
		o.errAt = now
		o.spans = append(o.spans, span{Name: "error", Op: o.op, Parent: "run", Start: now, End: now})
	case sim.EvRecovery:
		o.recoveries++
		o.recoverySimCycles += e.Dur
		o.recoveryHost += now - o.errAt
		o.spans = append(o.spans, span{Name: "recovery", Op: o.op, Parent: "run", Start: o.errAt, End: now})
	case sim.EvCheckpoint:
		o.spans = append(o.spans, span{Name: "checkpoint", Op: o.op, Parent: "run", Start: now, End: now})
	case sim.EvDefer:
		o.spans = append(o.spans, span{Name: "defer", Op: o.op, Parent: "run", Start: now, End: now})
	}
}

// traceEvent is one Chrome trace-event record (loadable in Perfetto).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write saves the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	events := make([]traceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		ev := traceEvent{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.End - s.Start), PID: 1, TID: 1,
			Args: map[string]any{"op": s.Op}}
		if s.Parent != "" {
			ev.Args["parent"] = s.Parent
		}
		if s.Note != "" {
			ev.Args["note"] = s.Note
		}
		if s.End == s.Start {
			ev.Ph, ev.Dur = "i", 0
		}
		events = append(events, ev)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
