package sim

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"acr/internal/ckpt"
	acr "acr/internal/core"
	"acr/internal/prog"
)

// benchPoint is one benchmark configuration's measured numbers as exported
// to BENCH_8.json.
type benchPoint struct {
	Name    string `json:"name"`
	Cores   int    `json:"cores"`
	Ckpt    bool   `json:"ckpt"`
	Workers int    `json:"workers"`
	// Strategy is the checkpoint scheme ("" for uncheckpointed rows; the
	// pre-strategy-engine baseline rows carry "amnesic", which is what
	// ckpt=true meant before the engine existed).
	Strategy    string  `json:"strategy,omitempty"`
	N           int     `json:"n"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	SimMIPS     float64 `json:"sim_mips"`
	// Instrs is the instruction count of one simulated run;
	// AllocsPerKInstr = AllocsPerOp / (Instrs/1000) is the amortized
	// per-instruction allocation evidence (run-construction included).
	Instrs          int64   `json:"instrs"`
	AllocsPerKInstr float64 `json:"allocs_per_kinstr"`
}

// loadBenchBaseline carries the committed BENCH_7.json results forward as
// this PR's reference point instead of re-hardcoding them: the file is the
// single source of truth for the pre-sharding numbers, and the 32-core
// amnesic serial row inside it anchors the issue's ≥1.3x criterion for the
// machine-scale work via naive per-core extrapolation.
func loadBenchBaseline(t *testing.T) []benchPoint {
	raw, err := os.ReadFile("../../BENCH_7.json")
	if err != nil {
		t.Fatalf("reading BENCH_7 baseline: %v", err)
	}
	var doc struct {
		Results []benchPoint `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("parsing BENCH_7 baseline: %v", err)
	}
	if len(doc.Results) == 0 {
		t.Fatal("BENCH_7.json has no results rows")
	}
	return doc.Results
}

// base32Amnesic and base32None are the BENCH_7 rows the scale criterion
// extrapolates from: 32 cores, serial, interpreter — the largest machine
// the pre-sharding plane was benchmarked at.
const (
	base32Amnesic = "cores=32/strategy=amnesic/workers=1/compile=false"
	base32None    = "cores=32/strategy=none/workers=1/compile=false"
)

// benchFile is the BENCH_8.json document.
type benchFile struct {
	Issue       int    `json:"issue"`
	Description string `json:"description"`
	GoVersion   string `json:"go_version"`
	// HostCPUs is GOMAXPROCS on the measuring machine. The workers>1 rows
	// only measure speedup when it exceeds 1; on a single-CPU host they
	// measure the parallel engine's coordination overhead.
	HostCPUs int          `json:"host_cpus"`
	Baseline []benchPoint `json:"baseline_pre_pr"`
	Results  []benchPoint `json:"results"`
	// ScaleVsBench7Amnesic is the issue's acceptance criterion (must be
	// ≥ 1.3): BENCH_7's 32-core amnesic serial interpreter ns_per_op,
	// extrapolated to the 128-core workload by instruction count (naive
	// constant per-core cost), divided by this run's measured 128-core
	// amnesic serial interpreter ns_per_op. It compares across
	// invocations, so host noise leaks in; Drift32Amnesic below bounds
	// that noise with this invocation's own 32-core row.
	ScaleVsBench7Amnesic float64 `json:"speedup_128core_amnesic_serial_vs_bench7_percore"`
	// ScaleVsBench7None is the same extrapolated ratio for the
	// uncheckpointed rows.
	ScaleVsBench7None float64 `json:"speedup_128core_nockpt_serial_vs_bench7_percore"`
	// Drift32Amnesic is BENCH_7's 32-core amnesic serial interpreter
	// ns_per_op divided by the same configuration re-measured in this
	// invocation: >1 means this PR (plus host drift) made the identical
	// machine faster, and it factors host drift out of the scale ratios.
	Drift32Amnesic float64 `json:"speedup_32core_amnesic_serial_vs_bench7"`
	// AvgQuantumInstrs is the serial engine's average dispatch quantum on
	// the 128-core amnesic workload with coalescing on — the issue
	// requires it to exceed the 2.7 instructions PR 9 measured for the
	// flat scheduler. AvgQuantumOff is the same run with Coalesce=false.
	AvgQuantumInstrs float64 `json:"avg_quantum_instrs_128core"`
	AvgQuantumOff    float64 `json:"avg_quantum_instrs_128core_coalesce_off"`
	// QuantumHist buckets the coalesce-on run's quantum lengths by powers
	// of two (bucket 0: empty, bucket i: [2^(i-1), 2^i)).
	QuantumHist []int64 `json:"quantum_hist_128core"`
}

// benchStrategySetup builds the configuration for one (cores, strategy)
// point: the synthetic kernel plus a checkpoint period calibrated once so
// every measured run establishes ~12 checkpoints. kind < 0 means no
// checkpointing.
func benchStrategySetup(tb testing.TB, cores, iters int, kind ckpt.Kind) (Config, *prog.Program) {
	tb.Helper()
	p := testKernel(cores, 48, iters)
	cfg := DefaultConfig(cores)
	if kind >= 0 {
		m, err := New(cfg, p)
		if err != nil {
			tb.Fatal(err)
		}
		ref, err := m.Run()
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Checkpointing = true
		cfg.Strategy = kind
		cfg.PeriodCycles = ref.Cycles / 13
		if kind.Amnesic() {
			cfg.ACR = acr.Config{Threshold: 10, MapCapacity: 4096 * cores}
		}
	}
	return cfg, p
}

// benchSetup keeps the pre-strategy (cores, ckpt bool) spelling used by the
// alloc-budget test and BenchmarkMachineRun: ckpt=true is amnesic ACR.
func benchSetup(tb testing.TB, cores, iters int, ck bool) (Config, *prog.Program) {
	tb.Helper()
	kind := ckpt.Kind(-1)
	if ck {
		kind = ckpt.KindAmnesic
	}
	return benchStrategySetup(tb, cores, iters, kind)
}

// pointFrom converts one benchmark result into its JSON row.
func pointFrom(r testing.BenchmarkResult, name string, cores int, ckpt bool, instrs int64) benchPoint {
	pt := benchPoint{
		Name: name, Cores: cores, Ckpt: ckpt,
		N:           r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		SimMIPS:     r.Extra["sim-MIPS"],
		Instrs:      instrs,
	}
	if instrs > 0 {
		pt.AllocsPerKInstr = float64(pt.AllocsPerOp) / (float64(instrs) / 1000)
	}
	return pt
}

func measureCfg(t *testing.T, cfg Config, p *prog.Program, name string, cores int, ckpt bool) benchPoint {

	// One un-timed run for the instruction count of the workload.
	m, err := New(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}

	r := testing.Benchmark(func(b *testing.B) { benchRun(b, cfg, p) })
	return pointFrom(r, name, cores, ckpt, res.Instrs)
}

// TestEmitBenchJSON regenerates BENCH_8.json: the machine-scale matrix —
// 32 (drift anchor) / 64 / 128 / 256 cores × {uncheckpointed, amnesic} ×
// {serial, parallel}, plus the 128-core quantum
// statistics. It is gated behind ACR_BENCH_JSON (the output path, or "1"
// for the repo-root default) so plain `go test ./...` stays fast; CI runs
// it with -benchtime=1x as a smoke check and uploads the artifact, and
// maintainers refresh the committed file with a real benchtime:
//
//	ACR_BENCH_JSON=1 go test ./internal/sim -run TestEmitBenchJSON -benchtime=10x -timeout 30m
func TestEmitBenchJSON(t *testing.T) {
	path := os.Getenv("ACR_BENCH_JSON")
	if path == "" {
		t.Skip("set ACR_BENCH_JSON to emit the benchmark JSON")
	}
	if path == "1" {
		path = "../../BENCH_8.json"
	}

	baseline := loadBenchBaseline(t)
	doc := benchFile{
		Issue:       8,
		Description: "Sharded memory plane and quantum-coalescing scheduler: the machine-scale matrix at 32 (BENCH_7's largest, kept as the cross-invocation drift anchor), 64, 128 and 256 cores, serial (workers=1) and through the deterministic parallel engine (workers=N), uncheckpointed and amnesic. Same synthetic NAS-shaped kernel as BENCH_7 (10 iterations, 48 words/thread; amnesic rows establish ~12 checkpoints per run); quantum coalescing is on (the default) in every row — it is bit-identical to the flat scheduler by contract. Baseline is BENCH_7 (pre-sharding block-compilation matrix), loaded from the committed file; the speedup criteria extrapolate its 32-core per-core cost to 128 cores by instruction count.",
		GoVersion:   runtime.Version(),
		HostCPUs:    runtime.GOMAXPROCS(0),
		Baseline:    baseline,
	}
	type anchor struct{ nsPerOp, instrs int64 }
	measured := map[string]anchor{}
	for _, cores := range []int{32, 64, 128, 256} {
		for _, kind := range []ckpt.Kind{-1, ckpt.KindAmnesic} {
			label := "none"
			if kind >= 0 {
				label = kind.String()
			}
			for _, w := range benchWorkersDim() {
				cfg, p := benchStrategySetup(t, cores, 10, kind)
				cfg.Workers = w
				// The /compile=false suffix is kept so rows match BENCH_7/BENCH_8 by name.
				name := fmt.Sprintf("cores=%d/strategy=%s/workers=%d/compile=false", cores, label, w)
				pt := measureCfg(t, cfg, p, name, cores, kind >= 0)
				pt.Workers = w
				if kind >= 0 {
					pt.Strategy = kind.String()
				}
				doc.Results = append(doc.Results, pt)
				t.Logf("%s: %d ns/op, %d allocs/op, %.3f sim-MIPS", pt.Name, pt.NsPerOp, pt.AllocsPerOp, pt.SimMIPS)
				if w == 1 {
					measured[pt.Name] = anchor{pt.NsPerOp, pt.Instrs}
				}
			}
		}
	}
	// Scale criteria: naive extrapolation holds BENCH_7's per-core (equiv.
	// per-instruction: the kernel's instruction count is linear in cores)
	// cost constant from 32 to 128 cores.
	extrapolate := func(baseRow, name string) float64 {
		got, ok := measured[name]
		if !ok || got.nsPerOp == 0 {
			return 0
		}
		for _, row := range baseline {
			if row.Name == baseRow && row.Instrs > 0 {
				naive := float64(row.NsPerOp) * float64(got.instrs) / float64(row.Instrs)
				return naive / float64(got.nsPerOp)
			}
		}
		t.Errorf("BENCH_7 baseline is missing row %q; criterion speedup not computed", baseRow)
		return 0
	}
	doc.ScaleVsBench7Amnesic = extrapolate(base32Amnesic, "cores=128/strategy=amnesic/workers=1/compile=false")
	doc.ScaleVsBench7None = extrapolate(base32None, "cores=128/strategy=none/workers=1/compile=false")
	if got, ok := measured[base32Amnesic]; ok && got.nsPerOp > 0 {
		for _, row := range baseline {
			if row.Name == base32Amnesic {
				doc.Drift32Amnesic = float64(row.NsPerOp) / float64(got.nsPerOp)
			}
		}
	}

	// Quantum statistics: one un-timed serial 128-core amnesic run per
	// coalescer setting, the same workload as the measured rows.
	quantum := func(coalesce bool) SchedStats {
		cfg, p := benchStrategySetup(t, 128, 10, ckpt.KindAmnesic)
		cfg.Coalesce = coalesce
		m, err := New(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.SchedStats()
	}
	on := quantum(true)
	doc.AvgQuantumInstrs = on.AvgQuantum()
	doc.AvgQuantumOff = quantum(false).AvgQuantum()
	doc.QuantumHist = append([]int64(nil), on.QuantumHist[:]...)
	if doc.AvgQuantumInstrs <= 2.7 {
		t.Errorf("average serial quantum %.2f with coalescing on, want > 2.7", doc.AvgQuantumInstrs)
	}

	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (128-core serial interp vs BENCH_7 per-core: amnesic %.2fx, none %.2fx; 32-core drift %.2fx; avg quantum %.2f on / %.2f off; %d host CPUs)",
		path, doc.ScaleVsBench7Amnesic, doc.ScaleVsBench7None, doc.Drift32Amnesic,
		doc.AvgQuantumInstrs, doc.AvgQuantumOff, doc.HostCPUs)
}

// TestBenchAllocBudget is the allocation ceiling on the per-instruction
// path. A run's allocations split into a bounded warm-up (machine
// construction, pool/arena ramp-up — capped by AddrMap capacity, not by
// run length) and the steady-state path, which must be allocation-free.
// The test measures the *marginal* allocations between a short and a 6×
// longer ACR run of the same kernel: with the steady-state path clean the
// margin is near zero per instruction, while the pre-optimization code
// allocated ~570 per 1000 instructions regardless of length.
func TestBenchAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed test")
	}
	// Keep the measurement short regardless of -benchtime: 5 iterations
	// are enough for an allocation count, which is near-deterministic
	// per run.
	old := flag.Lookup("test.benchtime").Value.String()
	if err := flag.Set("test.benchtime", "5x"); err != nil {
		t.Fatal(err)
	}
	defer flag.Set("test.benchtime", old)

	// Calibrate the checkpoint period once, on the short kernel, and hold
	// it for the long kernel: the comparison must scale the number of
	// intervals, not the per-interval state (pinned-record population and
	// pool high-water marks are proportional to interval volume, which is
	// warm-up state, not per-instruction cost).
	cfg, pShort := benchSetup(t, 8, 10, true)
	short := measureCfg(t, cfg, pShort, "cores=8/ckpt=true/iters=10", 8, true)
	pLong := testKernel(8, 48, 60)
	cfgLong := cfg
	long := measureCfg(t, cfgLong, pLong, "cores=8/ckpt=true/iters=60", 8, true)
	dInstr := long.Instrs - short.Instrs
	if dInstr <= 0 {
		t.Fatalf("kernel lengths did not scale: %d vs %d instrs", short.Instrs, long.Instrs)
	}
	marginal := float64(long.AllocsPerOp-short.AllocsPerOp) / (float64(dInstr) / 1000)
	t.Logf("short: %d allocs / %d instrs; long: %d allocs / %d instrs; marginal %.3f allocs/kinstr",
		short.AllocsPerOp, short.Instrs, long.AllocsPerOp, long.Instrs, marginal)
	const ceiling = 2.0
	if marginal > ceiling {
		t.Errorf("steady-state allocation budget exceeded: %.3f allocs per 1000 instructions (ceiling %.1f)",
			marginal, ceiling)
	}
}
