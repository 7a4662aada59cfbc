package sim

import (
	"testing"

	acr "acr/internal/core"
	"acr/internal/fault"
)

// TestROIStatsExcludeWarmup: with an ROI start, the reported interval
// history must begin after the warm-up, and the warm-up checkpoints must
// not count against the budget.
func TestROIStatsExcludeWarmup(t *testing.T) {
	base, _ := baseline(t)
	cfg := ckptConfig(t, true, tCkpts)
	cfg.ROIStartCycles = base.Cycles / 3
	cfg.MaxCheckpoints = 4
	res, _ := runCfg(t, cfg)
	// The budget caps post-ROI checkpoints; the run may end before the
	// budget is exhausted.
	if res.Ckpt.Checkpoints > 4 || res.Ckpt.Checkpoints < 2 {
		t.Errorf("budgeted checkpoints = %d, want 2..4", res.Ckpt.Checkpoints)
	}
	// Warm-up stores (first touches of every array) must not appear in
	// the ROI statistics: with a warm AddrMap, the ROI intervals see
	// omissions from their very first interval.
	if len(res.Intervals) == 0 {
		t.Fatal("no ROI intervals")
	}
	if res.Intervals[0].Omitted == 0 {
		t.Errorf("first ROI interval has no omissions — AddrMap not warm: %+v", res.Intervals[0])
	}
}

// TestROIRunsAreStillCorrect: ROI bookkeeping must not perturb semantics.
func TestROIRunsAreStillCorrect(t *testing.T) {
	_, base := baseline(t)
	bcfg, _ := baseline(t)
	cfg := errConfig(t, true, tCkpts, 2)
	cfg.ROIStartCycles = bcfg.Cycles / 4
	res, memv := runCfg(t, cfg)
	if res.Ckpt.Recoveries != 2 {
		t.Fatalf("recoveries = %d", res.Ckpt.Recoveries)
	}
	checkSameMem(t, memv, base, "roi")
}

// TestROIRecoveryBeforeFirstBoundaryCounts: the ROI starts between
// checkpoint boundaries, and statistics reset at the first boundary inside
// it. An error detected in that gap is a ROI recovery, so the reset must
// keep it; one detected before the ROI start is warm-up and stays out.
func TestROIRecoveryBeforeFirstBoundaryCounts(t *testing.T) {
	_, want := baseline(t)
	for _, tc := range []struct {
		name  string
		occur func(period int64) int64
		count int64
	}{
		{"in the gap", func(p int64) int64 { return 2*p + p/3 }, 1},
		{"in warm-up", func(p int64) int64 { return p + p/3 }, 0},
	} {
		cfg := ckptConfig(t, true, 8)
		period := cfg.PeriodCycles
		cfg.ROIStartCycles = 2*period + period/4
		cfg.MaxCheckpoints = 4
		cfg.Errors = &fault.Schedule{Times: []int64{tc.occur(period)}, DetectLatency: period / 4}
		cfg.RecordTimeline = true
		res, memv := runCfg(t, cfg)
		checkSameMem(t, memv, want, tc.name)

		// The shape under test: detection precedes the first boundary at
		// or after the ROI start.
		var detect, reset int64 = -1, -1
		var rec Event
		for _, e := range res.Timeline {
			switch {
			case e.Kind == EvError:
				detect = e.Time
			case e.Kind == EvRecovery:
				rec = e
			case e.Kind == EvCheckpoint && e.Time >= cfg.ROIStartCycles && reset < 0:
				reset = e.Time
			}
		}
		if detect < 0 || reset < 0 || detect >= reset {
			t.Fatalf("%s: error detected at %d, ROI reset at %d; want detection before the reset", tc.name, detect, reset)
		}
		// A kept recovery keeps its whole footprint: the volumes its
		// EvRecovery reported and its roll-back depth.
		want := Result{}.Ckpt
		if tc.count > 0 {
			want.Recoveries, want.MaxRollbackDepth = tc.count, 1
			want.RestoredWords, want.RecomputedWords = rec.Detail, rec.Aux
		}
		got := res.Ckpt
		if got.Recoveries != want.Recoveries || got.MaxRollbackDepth != want.MaxRollbackDepth ||
			got.RestoredWords != want.RestoredWords || got.RecomputedWords != want.RecomputedWords {
			t.Errorf("%s: recovery statistics %+v, want recoveries %d, depth %d, restored %d, recomputed %d",
				tc.name, got, want.Recoveries, want.MaxRollbackDepth, want.RestoredWords, want.RecomputedWords)
		}
	}
}

// TestAdaptiveDefersReduceCheckpoints: on a workload with uniformly high
// omission, adaptive placement must stretch intervals and realise fewer
// checkpoints for the same budget and period.
func TestAdaptiveDefersReduceCheckpoints(t *testing.T) {
	cfg := ckptConfig(t, true, 12)
	cfg.ACR = acr.Config{Threshold: 10, MapCapacity: 4096 * tThreads}
	uni, _ := runCfg(t, cfg)
	cfg.AdaptivePlacement = true
	ada, _ := runCfg(t, cfg)
	if ada.Ckpt.Checkpoints > uni.Ckpt.Checkpoints {
		t.Errorf("adaptive realised more checkpoints (%d) than uniform (%d)",
			ada.Ckpt.Checkpoints, uni.Ckpt.Checkpoints)
	}
	if ada.Cycles > uni.Cycles {
		t.Errorf("adaptive slower (%d) than uniform (%d) on an omission-rich kernel",
			ada.Cycles, uni.Cycles)
	}
}

func TestTimelineRecordsEvents(t *testing.T) {
	cfg := errConfig(t, true, tCkpts, 1)
	cfg.RecordTimeline = true
	res, _ := runCfg(t, cfg)
	var ckpts, errs, recs int
	for _, e := range res.Timeline {
		switch e.Kind {
		case EvCheckpoint:
			ckpts++
		case EvError:
			errs++
		case EvRecovery:
			recs++
		}
	}
	if int64(ckpts) != res.Ckpt.Checkpoints+1 { // +1: the pre-budget warmup/initial boundary may add
		// The timeline includes unbudgeted boundaries too; just require
		// at least the budgeted count.
		if int64(ckpts) < res.Ckpt.Checkpoints {
			t.Errorf("timeline checkpoints %d < budgeted %d", ckpts, res.Ckpt.Checkpoints)
		}
	}
	if errs != 1 || recs != 1 {
		t.Errorf("timeline errors/recoveries = %d/%d, want 1/1", errs, recs)
	}
	// Events must be time-ordered.
	for i := 1; i < len(res.Timeline); i++ {
		if res.Timeline[i].Time < res.Timeline[i-1].Time {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	// Without the flag, no timeline is retained.
	cfg.RecordTimeline = false
	res2, _ := runCfg(t, cfg)
	if len(res2.Timeline) != 0 {
		t.Error("timeline recorded without the flag")
	}
}

func TestEventKindNames(t *testing.T) {
	names := map[EventKind]string{
		EvCheckpoint: "checkpoint", EvDefer: "defer",
		EvError: "error", EvRecovery: "recovery", EventKind(99): "event",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("EventKind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}
