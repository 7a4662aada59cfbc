package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// referenceOrder is the replay order commit used before the k-way merge:
// the streams' concatenation, stable-sorted on (cycle, core). It is kept
// here only as the merge's oracle.
func referenceOrder(streams [][]hookEvent, ids []int) []hookEvent {
	var all []hookEvent
	for _, id := range ids {
		all = append(all, streams[id]...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].cycle != all[j].cycle {
			return all[i].cycle < all[j].cycle
		}
		return all[i].core < all[j].core
	})
	return all
}

// mergeEngine returns a parallel engine holding only the state commit's
// merge reads.
func mergeEngine(streams [][]hookEvent, ids []int) *parallelEngine {
	return &parallelEngine{events: streams, eligible: ids, heap: make([]mergeCursor, 0, len(streams))}
}

// mergeOrder drains commit's merge over the streams.
func mergeOrder(streams [][]hookEvent, ids []int) []hookEvent {
	e := mergeEngine(streams, ids)
	e.mergeInit()
	var out []hookEvent
	for ev := e.mergeNext(); ev != nil; ev = e.mergeNext() {
		out = append(out, *ev)
	}
	return out
}

// stream builds core's events at the given non-decreasing cycles; addr
// numbers them in program order so the comparison sees any reordering
// within a core.
func stream(core int, cycles ...int64) []hookEvent {
	out := make([]hookEvent, len(cycles))
	for i, c := range cycles {
		out[i] = hookEvent{cycle: c, core: int32(core), addr: int64(i), kind: uint8(i % 2)}
	}
	return out
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// randomStreams draws n per-core streams of up to maxLen events each, at
// non-decreasing cycles in [0, span) so cores collide on cycles.
func randomStreams(rng *rand.Rand, n, maxLen int, span int64) [][]hookEvent {
	streams := make([][]hookEvent, n)
	for id := range streams {
		cycles := make([]int64, rng.Intn(maxLen+1))
		for i := range cycles {
			cycles[i] = rng.Int63n(span)
		}
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
		streams[id] = stream(id, cycles...)
	}
	return streams
}

// TestEventMergeMatchesStableSort: commit's k-way merge replays the
// per-core hook streams in exactly the order the stable sort on
// (cycle, core) gave their concatenation — the serial oracle's order.
func TestEventMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct {
		name    string
		streams [][]hookEvent
		ids     []int
	}{
		{"no streams", nil, nil},
		{"all empty", [][]hookEvent{nil, nil, nil}, allIDs(3)},
		{"single core", [][]hookEvent{stream(0, 1, 1, 2, 5, 5, 9)}, allIDs(1)},
		{"one cycle across cores", [][]hookEvent{
			stream(0, 7, 7, 7), stream(1, 7), stream(2, 7, 7), stream(3, 7, 7, 7, 7),
		}, allIDs(4)},
		{"interleaved cycles", [][]hookEvent{
			stream(0, 0, 2, 4, 6, 8), stream(1, 1, 3, 5, 7, 9), stream(2, 0, 3, 3, 8),
		}, allIDs(3)},
		{"empty among full", [][]hookEvent{
			nil, stream(1, 4, 5), nil, stream(3, 1, 4, 4), nil,
		}, allIDs(5)},
		{"eligible subset", [][]hookEvent{
			stream(0, 1, 2), stream(1, 0, 2), stream(2, 1, 1), stream(3, 0),
		}, []int{1, 3}},
		{"256 streams", randomStreams(rng, 256, 12, 64), allIDs(256)},
		{"256 streams one cycle", randomStreams(rng, 256, 4, 1), allIDs(256)},
	}
	for i := 0; i < 20; i++ {
		n := 1 + rng.Intn(40)
		cases = append(cases, struct {
			name    string
			streams [][]hookEvent
			ids     []int
		}{"random", randomStreams(rng, n, 30, int64(1+rng.Intn(200))), allIDs(n)})
	}
	for _, tc := range cases {
		want := referenceOrder(tc.streams, tc.ids)
		got := mergeOrder(tc.streams, tc.ids)
		if len(got) != len(want) {
			t.Fatalf("%s: merge yielded %d events, want %d", tc.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d is %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// TestEventMergeAllocFree: once built, the merge allocates nothing, so
// commit's replay stays allocation-free.
func TestEventMergeAllocFree(t *testing.T) {
	streams := randomStreams(rand.New(rand.NewSource(3)), 32, 20, 100)
	ids := allIDs(len(streams))
	e := mergeEngine(streams, ids)
	allocs := testing.AllocsPerRun(10, func() {
		e.mergeInit()
		for e.mergeNext() != nil {
		}
	})
	if allocs != 0 {
		t.Fatalf("merge allocated %.1f times per run, want 0", allocs)
	}
}
