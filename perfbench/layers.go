package main

import (
	"strings"
)

// Layers the traced run splits host time across, named by module. The
// sim package is split further: sim.sched (the scheduler and the serial
// dispatch loop), sim.parallel (the speculative engine, plus the spec
// shards it drives in cpu, mem and slice), sim.recovery (roll-back and the
// fault model) and sim (the machine glue). build is program construction
// and static analysis; tools the repository's harness and observability
// packages; harness this benchmark's own frames; runtime every sample with
// no frame of this module.
var layers = []string{
	"sim.sched", "sim.parallel", "sim.recovery", "sim",
	"cpu", "mem", "slice", "core", "ckpt", "energy",
	"build", "tools", "harness", "runtime",
}

// packageLayer folds each acr/internal package to its layer.
var packageLayer = map[string]string{
	"sim":         "sim",
	"cpu":         "cpu",
	"isa":         "cpu",
	"mem":         "mem",
	"slice":       "slice",
	"core":        "core",
	"ckpt":        "ckpt",
	"energy":      "energy",
	"fault":       "sim.recovery",
	"workloads":   "build",
	"prog":        "build",
	"analysis":    "build",
	"bench":       "tools",
	"stats":       "tools",
	"telemetry":   "tools",
	"report":      "tools",
	"obsrv":       "tools",
	"vet":         "tools",
	"vet/vettest": "tools",
}

// Packages whose Spec-named types and methods form the speculative path.
var specPackages = map[string]bool{"sim": true, "cpu": true, "mem": true, "slice": true}

const modulePrefix = "acr/internal/"

// frameLayer folds one function name, as a profile records it, to its
// layer; ok is false for frames outside this module.
func frameLayer(fn string) (layer string, ok bool) {
	if strings.HasPrefix(fn, "main.") {
		return "harness", true
	}
	if !strings.HasPrefix(fn, modulePrefix) {
		return "", false
	}
	pkg, sym := splitSymbol(strings.TrimPrefix(fn, modulePrefix))
	recv, name := symbolParts(sym)
	if specPackages[pkg] && (strings.Contains(recv, "Spec") || strings.Contains(name, "Spec")) {
		return "sim.parallel", true
	}
	switch pkg {
	case "sim":
		switch {
		case recv == "scheduler" || recv == "pickBkt",
			name == "eagerSteps" || name == "stepSpan" || name == "runSerial" || name == "releaseBarrier":
			return "sim.sched", true
		case recv == "parallelEngine", name == "runParallel" || name == "serialSpan":
			return "sim.parallel", true
		case recv == "recoveryEngine" || recv == "noErrors":
			return "sim.recovery", true
		}
	case "mem":
		if recv == "lineSet" || name == "setHome" {
			return "sim.parallel", true
		}
	}
	if l, ok := packageLayer[pkg]; ok {
		return l, true
	}
	return "", false
}

// splitSymbol splits "sim.(*scheduler).pick" into "sim" and
// "(*scheduler).pick"; package paths may hold slashes.
func splitSymbol(s string) (pkg, sym string) {
	slash := strings.LastIndex(s, "/")
	dot := strings.Index(s[slash+1:], ".")
	if dot < 0 {
		return s, ""
	}
	return s[:slash+1+dot], s[slash+1+dot+1:]
}

// symbolParts returns the receiver type (if the symbol is a method) and
// the function or method name: "(*scheduler).pick" gives ("scheduler",
// "pick"), "New.func1" gives ("New", "func1") — the closure's enclosing
// function takes the receiver slot, which the rules above tolerate
// because no closure-enclosing function is named like a receiver type.
func symbolParts(sym string) (recv, name string) {
	sym = strings.TrimPrefix(sym, "(*")
	sym = strings.Replace(sym, ")", "", 1)
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i]
	}
	parts := strings.SplitN(sym, ".", 3)
	if len(parts) == 1 {
		return "", parts[0]
	}
	return parts[0], parts[1]
}

// Runtime work with no frame of this module is split into garbage
// collection, goroutine scheduling (parking and waking) and the rest.
var (
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMark", "runtime.gcSweep", "runtime.markroot"}
	schedFrames = []string{"runtime.schedule", "runtime.park_m", "runtime.findRunnable",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.gopark", "runtime.goready",
		"runtime.notesleep", "runtime.notewakeup", "runtime.mcall"}
)

// layerTimes is the traced run's host-time split, in seconds.
type layerTimes struct {
	self                map[string]float64
	gc, sched, unmapped float64
	total               float64
}

// fold charges every sample of p to the layer of its innermost frame of
// this module, or to runtime when it has none.
func (lt *layerTimes) fold(p *cpuProfile) error {
	if lt.self == nil {
		lt.self = map[string]float64{}
	}
	vi, err := p.valueIndex("cpu", "nanoseconds")
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if vi >= len(s.values) {
			continue
		}
		sec := float64(s.values[vi]) / 1e9
		lt.total += sec
		frames := p.frames(s)
		layer := ""
		for _, fn := range frames {
			if l, ok := frameLayer(fn); ok {
				layer = l
				break
			}
			if strings.HasPrefix(fn, modulePrefix) {
				lt.unmapped += sec
				layer = "tools"
				break
			}
		}
		if layer == "" {
			layer = "runtime"
			switch {
			case anyPrefix(frames, gcFrames):
				lt.gc += sec
			case anyPrefix(frames, schedFrames):
				lt.sched += sec
			}
		}
		lt.self[layer] += sec
	}
	return nil
}

func anyPrefix(frames, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}
