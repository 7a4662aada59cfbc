package bench

import (
	"strconv"
	"strings"
	"testing"

	"acr/internal/ckpt"
	"acr/internal/sim"
	"acr/internal/workloads"
)

// tinyParams keeps the experiment tests fast: 4 threads, a reduced class.
func tinyParams() Params {
	return Params{Threads: 4, Class: workloads.Class{Name: "T", N: 32, Iters: 24}}
}

func TestSpecNames(t *testing.T) {
	cases := map[string]Spec{
		"NoCkpt":        NoCkpt,
		"Ckpt_NE":       CkptNE,
		"Ckpt_E":        CkptE,
		"ReCkpt_NE":     ReCkptNE,
		"ReCkpt_E":      ReCkptE,
		"Ckpt_NE,Loc":   CkptNELoc,
		"Ckpt_E,Loc":    CkptELoc,
		"ReCkpt_NE,Loc": ReCkptNELoc,
		"ReCkpt_E,Loc":  ReCkptELoc,
	}
	for want, spec := range cases {
		if got := spec.String(); got != want {
			t.Errorf("Spec %v renders %q, want %q", spec, got, want)
		}
	}
}

func TestRunnerMemoises(t *testing.T) {
	r := NewRunner()
	p := tinyParams()
	a, err := r.Run("is", p, CkptNE)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run("is", p, CkptNE)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.EnergyPJ != b.EnergyPJ {
		t.Error("memoised run differs")
	}
	if len(r.cache) < 2 { // baseline + run
		t.Errorf("cache size = %d", len(r.cache))
	}
}

func TestRunnerRejectsUnknownBenchmark(t *testing.T) {
	r := NewRunner()
	if _, err := r.Run("nope", tinyParams(), NoCkpt); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestRunnerRejectsNegativeCkpts: a negative checkpoint budget is user
// input (acrsim -ckpts), so both Run and the RunAll pool must return an
// error instead of dividing the calibration period by zero.
func TestRunnerRejectsNegativeCkpts(t *testing.T) {
	for _, n := range []int{-1, -2} {
		spec := Spec{Ckpt: true, Amnesic: true, NumCkpts: n}
		if _, err := NewRunner().Run("is", tinyParams(), spec); err == nil {
			t.Errorf("Run accepted NumCkpts=%d", n)
		}
		jobs := []Job{{Bench: "is", Params: tinyParams(), Spec: spec}}
		if _, err := NewRunner().RunAll(jobs); err == nil {
			t.Errorf("RunAll accepted NumCkpts=%d", n)
		}
	}
}

func TestCheckpointBudgetRealised(t *testing.T) {
	r := NewRunner()
	p := tinyParams()
	spec := CkptNE
	spec.NumCkpts = 10
	res, err := r.Run("bt", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ckpt.Checkpoints != 10 {
		t.Errorf("realised checkpoints = %d, want 10", res.Ckpt.Checkpoints)
	}
}

func TestErrorRunsRecover(t *testing.T) {
	r := NewRunner()
	p := tinyParams()
	spec := ReCkptE
	spec.Errors = 2
	res, err := r.Run("lu", p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ckpt.Recoveries != 2 {
		t.Errorf("recoveries = %d, want 2", res.Ckpt.Recoveries)
	}
}

func TestTableIStatic(t *testing.T) {
	tab := TableI()
	if len(tab.Rows) < 5 {
		t.Errorf("Table I rows = %d", len(tab.Rows))
	}
	var b strings.Builder
	tab.Render(&b)
	if !strings.Contains(b.String(), "22nm") {
		t.Error("Table I missing technology node")
	}
}

func TestFig1Monotonic(t *testing.T) {
	tab := Fig1(6)
	prev := 0.0
	for _, row := range tab.Rows {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		if v <= prev && row[0] != "0" {
			t.Errorf("error rate not increasing at generation %s", row[0])
		}
		prev = v
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	r := NewRunner()
	tab, err := r.Fig6(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // 8 benchmarks + avg
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows[:8] {
		ckNE, _ := strconv.ParseFloat(row[1], 64)
		ckE, _ := strconv.ParseFloat(row[2], 64)
		if ckNE <= 0 {
			t.Errorf("%s: checkpointing overhead %v not positive", row[0], ckNE)
		}
		if ckE <= ckNE {
			t.Errorf("%s: error run (%v) not slower than error-free (%v)", row[0], ckE, ckNE)
		}
	}
	// The headline claim: ReCkpt reduces the overhead on average.
	avg, _ := strconv.ParseFloat(tab.Rows[8][5], 64)
	if avg <= 0 {
		t.Errorf("average NE reduction %v not positive", avg)
	}
}

func TestFig9AndTableIIShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	r := NewRunner()
	p := tinyParams()
	tab, err := r.TableII(p)
	if err != nil {
		t.Fatal(err)
	}
	// Size reduction must be (approximately) monotone in the threshold.
	for _, row := range tab.Rows {
		prev := -1.0
		for i := 1; i < len(row); i++ {
			v, _ := strconv.ParseFloat(row[i], 64)
			if v+1e-9 < prev-2.0 { // allow small interval-boundary noise
				t.Errorf("%s: reduction drops from %v to %v at threshold column %d",
					row[0], prev, v, i)
			}
			if prev < v {
				prev = v
			}
		}
	}
	fig9, err := r.Fig9(p)
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string) (overall, max float64) {
		for _, row := range fig9.Rows {
			if row[0] == name {
				o, _ := strconv.ParseFloat(row[1], 64)
				m, _ := strconv.ParseFloat(row[2], 64)
				return o, m
			}
		}
		t.Fatalf("missing %s", name)
		return 0, 0
	}
	// The paper's Fig. 9 signatures: is has high Overall but near-zero
	// Max; ft has near-zero Max.
	isO, isM := find("is")
	if isO < 20 {
		t.Errorf("is overall reduction %v too low", isO)
	}
	if isM > isO/2 {
		t.Errorf("is Max (%v) should be far below Overall (%v)", isM, isO)
	}
	_, ftM := find("ft")
	if ftM > 10 {
		t.Errorf("ft Max reduction %v should be near zero", ftM)
	}
}

func TestFig13LocalShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	r := NewRunner()
	tab, err := r.Fig13(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) float64 {
		for _, row := range tab.Rows {
			if row[0] == name {
				v, _ := strconv.ParseFloat(row[1], 64)
				return v
			}
		}
		t.Fatalf("missing %s", name)
		return 0
	}
	// bt/cg/sp communicate all-to-all: local buys (almost) nothing.
	for _, name := range []string{"bt", "cg", "sp"} {
		if v := get(name); v < 0.9 {
			t.Errorf("%s: local ratio %v unexpectedly low for an all-to-all benchmark", name, v)
		}
	}
	// ft/is/mg decompose into pairs: local must win clearly.
	for _, name := range []string{"ft", "is", "mg"} {
		if v := get(name); v > 0.95 {
			t.Errorf("%s: local ratio %v shows no benefit for a pairwise benchmark", name, v)
		}
	}
}

func TestSizeReductionSemantics(t *testing.T) {
	// Construct a synthetic interval history to pin Fig. 9 semantics:
	// the largest baseline checkpoint may be a different interval from
	// the largest amnesic one.
	resSim := simResultWith([][2]int64{
		{100, 0}, // interval 1: 100 logged, 0 omitted  (baseline max)
		{20, 60}, // interval 2: mostly omitted
		{10, 10},
	})
	overall, max := sizeReduction(resSim)
	wantOverall := 100 * 70.0 / 200.0
	if overall != wantOverall {
		t.Errorf("overall = %v, want %v", overall, wantOverall)
	}
	// maxBase = 100 (interval 1), maxACR = 100 (interval 1 logged).
	if max != 0 {
		t.Errorf("max = %v, want 0", max)
	}
	resSim = simResultWith([][2]int64{
		{10, 90}, // biggest baseline interval, heavily omitted
		{30, 0},
	})
	_, max = sizeReduction(resSim)
	// maxBase = 100, maxACR = 30 → 70%.
	if max != 70 {
		t.Errorf("max = %v, want 70", max)
	}
}

// simResultWith builds a sim.Result with the given (logged, omitted)
// interval history.
func simResultWith(ivs [][2]int64) (res sim.Result) {
	for _, iv := range ivs {
		res.Intervals = append(res.Intervals, ckpt.IntervalStat{Logged: iv[0], Omitted: iv[1]})
	}
	return res
}
