package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q does not match %v (at most 64 characters)", d.Name, metricName)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
}

// TestEveryPackageHasLayer walks the module's internal packages: each must
// fold to one of the named layers.
func TestEveryPackageHasLayer(t *testing.T) {
	named := map[string]bool{}
	for _, l := range layers {
		named[l] = true
	}
	root := filepath.Join("..", "internal")
	n := 0
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		hasCode := false
		for _, f := range files {
			hasCode = hasCode || !strings.HasSuffix(f, "_test.go")
		}
		if !hasCode {
			return nil
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		n++
		l, ok := frameLayer(modulePrefix + pkg + ".F")
		if !ok || !named[l] {
			t.Errorf("package acr/internal/%s folds to %q, not a named layer", pkg, l)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("found only %d packages under %s", n, root)
	}
}

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"acr/internal/sim.(*scheduler).pick":              "sim.sched",
		"acr/internal/sim.(*Machine).eagerSteps":          "sim.sched",
		"acr/internal/sim.(*parallelEngine).commit.func1": "sim.parallel",
		"acr/internal/sim.(*recoveryEngine).recover":      "sim.recovery",
		"acr/internal/sim.(*Machine).result":              "sim",
		"acr/internal/cpu.(*Core).Step":                   "cpu",
		"acr/internal/cpu.(*Core).SpecStep":               "sim.parallel",
		"acr/internal/isa.Eval":                           "cpu",
		"acr/internal/mem.(*System).Load":                 "mem",
		"acr/internal/mem.(*SpecView).Load":               "sim.parallel",
		"acr/internal/slice.(*Tracker).OnALU":             "slice",
		"acr/internal/slice.(*Tracker).CommitSpec":        "sim.parallel",
		"acr/internal/core.(*AddrMap).Assoc":              "core",
		"acr/internal/ckpt.(*Manager).Establish":          "ckpt",
		"acr/internal/workloads.BuildCG":                  "build",
		"acr/internal/bench.Spec.normalized":              "tools",
		"acr/internal/vet/vettest.Run":                    "tools",
		"main.(*runState).runPass":                        "harness",
	} {
		if got, ok := frameLayer(fn); !ok || got != want {
			t.Errorf("frameLayer(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if l, ok := frameLayer("runtime.mallocgc"); ok {
		t.Errorf("runtime frame folded to %q", l)
	}
}

// TestReferenceCoversEveryOp checks the committed table has a usable row
// for every op of every workload, and that the schedule generator still
// draws the default seed's recorded schedules.
func TestReferenceCoversEveryOp(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range allWorkloads {
		for _, k := range w.ops() {
			row, err := ref.row(w.Name, k)
			if err != nil {
				t.Error(err)
				continue
			}
			if row.Cores != w.Cores || row.Workers != w.Workers {
				t.Errorf("%s %v: row is for %d cores, Workers=%d", w.Name, k, row.Cores, row.Workers)
			}
			if row.KnownDefect != "" {
				continue
			}
			if row.Digest == "" || row.Stats == nil {
				t.Errorf("%s %v: no digest or stats", w.Name, k)
				continue
			}
			s, err := drawSchedule(ref.DefaultSeed, k, row)
			if err != nil {
				t.Errorf("%s %v: %v", w.Name, k, err)
			} else if !row.Errors.matches(s) {
				t.Errorf("%s %v: default-seed schedule %+v differs from the recorded one", w.Name, k, s)
			}
		}
	}
}

// TestSchedulesStayInBounds draws many seeds: the error lies in the
// checkpointed region of interest and is detected within half a period,
// before the default seed's run ends.
func TestSchedulesStayInBounds(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ref.Rows {
		if !faulted(r.Config) || r.KnownDefect != "" {
			continue
		}
		for seed := int64(0); seed < 50; seed++ {
			s, err := drawSchedule(seed, opKey{r.Kernel, r.Config}, &r)
			if err != nil {
				t.Fatal(err)
			}
			at := s.Times[0]
			from, to := errorWindow(&r)
			if at < from || at >= to || from < r.ROICycles || s.DetectLatency < 1 || s.DetectLatency > r.PeriodCycles/2 || at+s.DetectLatency >= r.Stats.Cycles {
				t.Fatalf("%s %s seed %d: schedule %+v outside the ROI or latency bound", r.Kernel, r.Config, seed, s)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metric catalog.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json may leave a workload out (see README.md), but may not
	// name one the benchmark cannot run.
	listed := map[string]bool{}
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil || listed[w.Name] {
			t.Errorf("BENCHMARK.json workload %q: unknown or listed twice", w.Name)
		}
		listed[w.Name] = true
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 0, 3, 1, 2}
	for p, want := range map[float64]float64{0: 0, 50: 2, 87.5: 3.5, 100: 4} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

// TestThroughput checks that sim-MIPS pools every op's instructions over
// all their Run time, and that set-up time sums per-op medians.
func TestThroughput(t *testing.T) {
	a, b := opKey{"is", cfgNoCkpt}, opKey{"cg", cfgNoCkpt}
	op := func(instrs int64, runS, setupS float64) opOutcome {
		var o opOutcome
		o.Res.Instrs, o.RunS, o.SetupS = instrs, runS, setupS
		return o
	}
	passes := []pass{
		{a: op(1e6, 1, 0.1), b: op(3e6, 2, 0.3)},
		{a: op(1e6, 5, 0.5), b: op(3e6, 9, 0.9)},
		{a: op(1e6, 1, 0.1), b: op(3e6, 2, 0.3)},
		{a: op(1e6, 2, 0.2), b: op(3e6, 3, 0.3)},
	}
	mips, setup := throughput(passes)
	if math.Abs(mips-16.0/25) > 1e-12 || math.Abs(setup-0.45) > 1e-12 {
		t.Errorf("throughput = %v Minstr/s, %v s set-up; want 0.64 and 0.45", mips, setup)
	}
}

// TestProfileRoundTrip profiles a little work and folds it.
func TestProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiling unavailable:", err)
	}
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i % 7
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var lt layerTimes
	if err := lt.fold(p); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range lt.self {
		sum += v
	}
	if d := sum - lt.total; d > 1e-9 || d < -1e-9 || x < 0 {
		t.Errorf("layer times sum to %v, total %v", sum, lt.total)
	}
}
