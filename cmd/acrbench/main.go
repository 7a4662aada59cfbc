// Command acrbench regenerates the paper's tables and figures.
//
// Usage:
//
//	acrbench [-exp all|quick|tableI|fig1|fig6|fig7|fig8|fig9|tableII|fig10|fig11|fig12|fig13|scal|strategies]
//	         [-threads N] [-class S|W|A] [-j N] [-workers N]
//	         [-strategy-benches is,cg,mg] [-strategy-cores 4,8]
//	         [-strategy-errors 1] [-strategy-json matrix.json]
//	         [-serve ADDR] [-journal runs.jsonl] [-linger DUR]
//
// -j sizes the driver's job pool (distinct machines in flight); -workers
// sets the intra-run worker count per machine (the deterministic parallel
// engine, bit-identical to serial execution, so every table is unchanged).
//
// -serve starts the HTTP observatory (internal/obsrv) on ADDR before the
// sweep: every job registers in the live run registry, /metrics exposes the
// aggregated telemetry, /runs/{key}/events streams each run's flight
// recorder, and /debug/pprof serves the Go profiler. -journal appends the
// run registry's JSONL journal to a file (loading any existing entries
// first); -linger keeps the observatory serving for the given duration
// after the sweep so scrapers and CI smoke checks can inspect a finished
// process.
//
// -exp quick is fig6 alone — a small, checkpoint-heavy slice for smoke
// tests; like the ablations it is not part of 'all'.
//
// -exp strategies crosses every checkpoint strategy (full, amnesic,
// differential, tiered, auto) with the -strategy-benches workloads and
// -strategy-cores core counts; -strategy-json exports the grid as a
// machine-readable document. It is not part of 'all' — the paper set — and
// must be requested explicitly.
//
// Each experiment prints the same rows/series the paper reports (absolute
// numbers differ — the substrate is a simulator, not the authors' testbed —
// but the shape is the reproduction target; see EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"acr/internal/bench"
	"acr/internal/obsrv"
	"acr/internal/stats"
	"acr/internal/telemetry"
	"acr/internal/workloads"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma separated), 'all' (paper set), or 'ablations'")
	threads := flag.Int("threads", 8, "thread/core count")
	class := flag.String("class", "W", "problem class (S, W, A)")
	asCSV := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jobs := flag.Int("j", 0, "simulation worker pool size (0 = GOMAXPROCS, 1 = serial)")
	workers := flag.Int("workers", 1, "intra-run simulation workers per machine (>1 = parallel engine, bit-identical to serial; 0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print per-job wall-time and queue-wait reports")
	stratBenches := flag.String("strategy-benches", "is,cg,mg", "benchmarks for -exp strategies (comma separated)")
	stratCores := flag.String("strategy-cores", "4,8", "core counts for -exp strategies (comma separated)")
	stratErrors := flag.Int("strategy-errors", 1, "injected errors in the _E cells of -exp strategies")
	stratJSON := flag.String("strategy-json", "", "write the strategy matrix as JSON to this file")
	metricsDir := flag.String("metrics-dir", "", "write driver metrics (driver.prom, driver.json) into this directory")
	serveAddr := flag.String("serve", "", "serve the HTTP observatory (/metrics, /runs, /debug/pprof) on this address (e.g. localhost:6060, :0)")
	journalPath := flag.String("journal", "", "append the run registry's JSONL journal to this file (requires -serve)")
	linger := flag.Duration("linger", 0, "keep the observatory serving this long after the sweep finishes")
	flag.Parse()

	cl, err := workloads.ClassByName(*class)
	if err != nil {
		fatal(err)
	}
	p := bench.Params{Threads: *threads, Class: cl}
	r := bench.NewRunner()
	r.Workers = *jobs
	r.SimWorkers = *workers
	if r.SimWorkers == 0 {
		r.SimWorkers = runtime.GOMAXPROCS(0)
	}

	var registry *obsrv.Registry
	if *serveAddr != "" {
		registry, err = obsrv.NewRegistry(obsrv.Options{JournalPath: *journalPath})
		if err != nil {
			fatal(err)
		}
		defer registry.Close()
		if *journalPath != "" {
			// Fold any previous process's journal in first, so /runs
			// shows the sweep's history across restarts.
			if err := registry.LoadJournal(*journalPath); err != nil {
				fatal(err)
			}
		}
		server := obsrv.NewServer(registry)
		addr, err := server.Start(*serveAddr)
		if err != nil {
			fatal(err) // fail fast: a bad -serve address kills the run before any simulation
		}
		defer server.Close()
		fmt.Fprintf(os.Stderr, "acrbench: observatory listening on http://%s\n", addr)
		r.Lifecycle = registry
		defer func() {
			if p := recover(); p != nil {
				fmt.Fprintln(os.Stderr, "acrbench: panic — dumping flight recorders:")
				registry.DumpFlight(func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, format, args...)
				})
				panic(p)
			}
		}()
	}
	start := time.Now()

	type gen func() (*stats.Table, error)
	experiments := []struct {
		name string
		run  gen
	}{
		{"quick", func() (*stats.Table, error) { return r.Fig6(p) }},
		{"tableI", func() (*stats.Table, error) { return bench.TableI(), nil }},
		{"fig1", func() (*stats.Table, error) { return bench.Fig1(10), nil }},
		{"fig6", func() (*stats.Table, error) { return r.Fig6(p) }},
		{"fig7", func() (*stats.Table, error) { return r.Fig7(p) }},
		{"fig8", func() (*stats.Table, error) { return r.Fig8(p) }},
		{"fig9", func() (*stats.Table, error) { return r.Fig9(p) }},
		{"tableII", func() (*stats.Table, error) { return r.TableII(p) }},
		{"fig10", func() (*stats.Table, error) { return r.Fig10(p, "bt") }},
		{"fig11", func() (*stats.Table, error) { return r.Fig11(p) }},
		{"fig12", func() (*stats.Table, error) { return r.Fig12(p) }},
		{"fig13", func() (*stats.Table, error) { return r.Fig13(p) }},
		{"scal", func() (*stats.Table, error) { return r.Scalability(p) }},
		{"strategies", func() (*stats.Table, error) {
			benches := splitList(*stratBenches)
			cores, err := parseInts(*stratCores)
			if err != nil {
				return nil, fmt.Errorf("-strategy-cores: %w", err)
			}
			tab, err := r.StrategyMatrix(benches, cores, cl, *stratErrors)
			if err != nil {
				return nil, err
			}
			if *stratJSON != "" {
				// All cells are memoised by the table run above, so the
				// doc assembly is pure cache reads.
				doc, err := r.StrategyMatrixDoc(benches, cores, cl, *stratErrors)
				if err != nil {
					return nil, err
				}
				if err := writeJSON(*stratJSON, doc); err != nil {
					return nil, err
				}
			}
			return tab, nil
		}},
		{"abl-policy", func() (*stats.Table, error) { return r.AblationPolicy(p) }},
		{"abl-addrmap", func() (*stats.Table, error) { return r.AblationAddrMap(p) }},
		{"abl-detect", func() (*stats.Table, error) { return r.AblationDetect(p) }},
		{"abl-adaptive", func() (*stats.Table, error) { return r.AblationAdaptive(p) }},
	}

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(name)] = true
	}
	matched := 0
	for _, e := range experiments {
		isAblation := strings.HasPrefix(e.name, "abl-")
		// The strategy matrix is its own grid (it ignores -threads), so
		// 'all' — the paper set — does not imply it; 'quick' is a smoke
		// slice, also opt-in only.
		isExtra := isAblation || e.name == "strategies" || e.name == "quick"
		switch {
		case want[e.name]:
		case want["all"] && !isExtra:
		case want["ablations"] && isAblation:
		default:
			continue
		}
		matched++
		t, err := e.run()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		if *asCSV {
			t.RenderCSV(os.Stdout)
		} else {
			t.Render(os.Stdout)
		}
	}
	if matched == 0 {
		fatal(fmt.Errorf("no experiment matches %q", *exp))
	}
	elapsed := time.Since(start)

	if *verbose {
		reportJobs(r.Reports(), elapsed)
	}
	if *metricsDir != "" {
		if err := writeDriverMetrics(*metricsDir, r.Reports(), elapsed, *exp, p); err != nil {
			fatal(err)
		}
	}
	if registry != nil && *linger > 0 {
		fmt.Fprintf(os.Stderr, "acrbench: sweep done, observatory lingering for %v\n", *linger)
		time.Sleep(*linger)
	}
}

// reportJobs prints the driver's per-job execution profile: when each job
// was dispatched, how long its simulation took, and which jobs were free
// rides on the memoised cache.
func reportJobs(reports []bench.JobReport, elapsed time.Duration) {
	if len(reports) == 0 {
		return
	}
	t := &stats.Table{
		Title: "driver jobs (host time)",
		Cols:  []string{"job", "bench", "config", "threads", "class", "queue_ms", "wall_ms", "shared"},
	}
	var simWall time.Duration
	shared := 0
	for i, rep := range reports {
		if rep.Shared {
			shared++
		} else {
			simWall += rep.Wall
		}
		t.AddRow(fmt.Sprintf("%d", i),
			rep.Job.Bench, rep.Job.Spec.String(),
			fmt.Sprintf("%d", rep.Job.Params.Threads), rep.Job.Params.Class.Name,
			fmt.Sprintf("%.1f", float64(rep.QueueWait.Microseconds())/1e3),
			fmt.Sprintf("%.1f", float64(rep.Wall.Microseconds())/1e3),
			fmt.Sprintf("%v", rep.Shared))
	}
	t.Render(os.Stdout)
	fmt.Printf("\n%d jobs (%d shared via memoisation), simulated %.2fs of host work in %.2fs elapsed (%.2fx)\n",
		len(reports), shared, simWall.Seconds(), elapsed.Seconds(),
		simWall.Seconds()/elapsed.Seconds())
}

// writeDriverMetrics exports the driver's own execution profile — not
// simulated results — as driver.prom and driver.json under dir.
func writeDriverMetrics(dir string, reports []bench.JobReport, elapsed time.Duration, exp string, p bench.Params) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reg := telemetry.NewRegistry()
	jobsTotal := reg.Counter("acrbench_jobs_total",
		"RunAll jobs executed by the driver.", "shared")
	wallTotal := reg.Counter("acrbench_job_wall_seconds_total",
		"Host wall time inside simulation calls, per benchmark.", "bench")
	wallHist := reg.Histogram("acrbench_job_wall_seconds",
		"Per-job host wall time.", []float64{0.001, 0.01, 0.1, 1, 10, 60})
	queueHist := reg.Histogram("acrbench_job_queue_wait_seconds",
		"Per-job queue wait before a worker picked it up.", []float64{0.001, 0.01, 0.1, 1, 10, 60})
	for _, rep := range reports {
		jobsTotal.With(fmt.Sprintf("%v", rep.Shared)).Add(1)
		wallTotal.With(rep.Job.Bench).Add(rep.Wall.Seconds())
		wallHist.Observe(rep.Wall.Seconds())
		queueHist.Observe(rep.QueueWait.Seconds())
	}
	reg.Gauge("acrbench_elapsed_seconds", "Driver wall time.").Set(elapsed.Seconds())

	pf, err := os.Create(filepath.Join(dir, "driver.prom"))
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(pf); err != nil {
		pf.Close()
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	meta := map[string]string{
		"exp":     exp,
		"class":   p.Class.Name,
		"threads": strconv.Itoa(p.Threads),
	}
	jf, err := os.Create(filepath.Join(dir, "driver.json"))
	if err != nil {
		return err
	}
	if err := telemetry.WriteProfile(jf, meta, reg); err != nil {
		jf.Close()
		return err
	}
	return jf.Close()
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "acrbench:", err)
	os.Exit(1)
}
