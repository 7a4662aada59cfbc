package main

import (
	"sync/atomic"
	"testing"

	"acr/internal/bench"
	"acr/internal/ckpt"
	"acr/internal/workloads"
)

// TestParseSpecRoundTrip: every renderable configuration name must parse
// back to a spec that renders the same name — the CLI accepts exactly what
// the tables print.
func TestParseSpecRoundTrip(t *testing.T) {
	for _, kind := range ckpt.Kinds() {
		for _, errs := range []int{0, 1} {
			for _, local := range []bool{false, true} {
				spec := bench.Spec{Ckpt: true, Strategy: kind, Errors: errs, Local: local}
				name := spec.String()
				parsed, err := parseSpec(name)
				if err != nil {
					t.Errorf("parseSpec(%q): %v", name, err)
					continue
				}
				if got := parsed.String(); got != name {
					t.Errorf("parseSpec(%q) renders %q", name, got)
				}
				if parsed.Kind() != kind {
					t.Errorf("parseSpec(%q).Kind() = %v, want %v", name, parsed.Kind(), kind)
				}
				if (parsed.Errors > 0) != (errs > 0) || parsed.Local != local {
					t.Errorf("parseSpec(%q) = %+v, want errors=%d local=%v",
						name, parsed, errs, local)
				}
			}
		}
	}
}

// TestParseSpecLegacyAliases: the historical flat spellings keep parsing.
func TestParseSpecLegacyAliases(t *testing.T) {
	cases := map[string]string{
		"nockpt":        "NoCkpt",
		"NoCkpt":        "NoCkpt",
		"ckptne":        "Ckpt_NE",
		"ckpte":         "Ckpt_E",
		"reckptne":      "ReCkpt_NE",
		"reckpteloc":    "ReCkpt_E,Loc",
		"ckptneloc":     "Ckpt_NE,Loc",
		"ReCkpt_NE,Loc": "ReCkpt_NE,Loc",
		"TierCkpt_NE":   "TierCkpt_NE",
		"diffckptne":    "DiffCkpt_NE",
		"autockpte":     "AutoCkpt_E",
	}
	for in, want := range cases {
		spec, err := parseSpec(in)
		if err != nil {
			t.Errorf("parseSpec(%q): %v", in, err)
			continue
		}
		if got := spec.String(); got != want {
			t.Errorf("parseSpec(%q) renders %q, want %q", in, got, want)
		}
	}
}

// TestParseSpecRejectsGarbage: malformed names fail rather than silently
// selecting a default configuration.
func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "ckpt", "reckpt_x", "megackpt_ne", "ckpt_ne,remote"} {
		if _, err := parseSpec(in); err == nil {
			t.Errorf("parseSpec(%q) accepted", in)
		}
	}
}

// TestStrategyFlagParsesEveryKind: the -strategy flag accepts every kind
// name and the documented aliases, and rejects unknowns — the CLI half of
// the -list-strategies contract.
func TestStrategyFlagParsesEveryKind(t *testing.T) {
	for _, kind := range ckpt.Kinds() {
		got, err := ckpt.ParseKind(kind.String())
		if err != nil {
			t.Errorf("ParseKind(%q): %v", kind, err)
		} else if got != kind {
			t.Errorf("ParseKind(%q) = %v", kind, got)
		}
	}
	for alias, want := range map[string]ckpt.Kind{
		"diff": ckpt.KindDifferential,
		"tier": ckpt.KindTiered,
	} {
		if got, err := ckpt.ParseKind(alias); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	if _, err := ckpt.ParseKind("quantum"); err == nil {
		t.Error("ParseKind accepted an unknown strategy")
	}
	for _, kind := range ckpt.Kinds() {
		if kind.Describe() == "unknown" || kind.Describe() == "" {
			t.Errorf("strategy %v lacks a description", kind)
		}
	}
}

// countingLifecycle counts the jobs it is asked to observe; RunAll's pool
// calls it from several goroutines.
type countingLifecycle struct{ begins atomic.Int32 }

func (c *countingLifecycle) JobBegin(bench.Job, string, bool) bench.JobObservation {
	c.begins.Add(1)
	return nil
}

// TestParallelTapCapturesConfiguredRun: the tap receives the configured
// job's parallel-engine counters, and still hands every job to the
// lifecycle it wraps.
func TestParallelTapCapturesConfiguredRun(t *testing.T) {
	p := bench.Params{Threads: 4, Class: workloads.ClassS}
	jobs := []bench.Job{
		{Bench: "is", Params: p, Spec: bench.NoCkpt},
		{Bench: "is", Params: p, Spec: bench.ReCkptE},
	}
	inner := &countingLifecycle{}
	tap := &parallelTap{key: jobs[1].KeyString(), next: inner}
	r := bench.NewRunner()
	r.Workers = 2
	r.SimWorkers = 2
	r.Lifecycle = tap
	if _, err := r.RunAll(jobs); err != nil {
		t.Fatal(err)
	}
	if !tap.seen || tap.stats.Committed == 0 || tap.stats.HookEvents == 0 {
		t.Fatalf("tap captured %+v (seen %v), want a committed amnesic run", tap.stats, tap.seen)
	}
	if n := int(inner.begins.Load()); n != len(jobs) {
		t.Fatalf("wrapped lifecycle saw %d jobs, want %d", n, len(jobs))
	}
}
