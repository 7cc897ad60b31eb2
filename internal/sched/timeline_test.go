package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestTimelineTailSemantics(t *testing.T) {
	tl := NewTimeline(3)
	if tl.Hosts() != 3 {
		t.Fatalf("hosts = %d", tl.Hosts())
	}
	tl.Reserve(0, 0, 5)
	tl.Reserve(0, 7, 9)
	tl.Reserve(1, 2, 3)
	if got := tl.FreeAt(0); got != 9 {
		t.Errorf("FreeAt(0) = %g, want 9", got)
	}
	if got := tl.FreeAt(2); got != 0 {
		t.Errorf("FreeAt(2) = %g, want 0", got)
	}
	if got := tl.Makespan(); got != 9 {
		t.Errorf("Makespan = %g, want 9", got)
	}
}

func TestTimelineEarliestGap(t *testing.T) {
	tl := NewTimeline(1)
	tl.Reserve(0, 2, 4)
	tl.Reserve(0, 6, 8)
	cases := []struct {
		ready, dur, want float64
	}{
		{0, 1, 0},   // fits before everything
		{0, 2, 0},   // exactly fills [0,2)
		{0, 3, 8},   // too big for both the head gap and [4,6)
		{3, 1, 4},   // ready inside a reservation
		{5, 2, 8},   // [5,7) collides with [6,8), spills past the tail
		{10, 5, 10}, // after everything
	}
	for _, c := range cases {
		if got := tl.EarliestGap(0, c.ready, c.dur); got != c.want {
			t.Errorf("EarliestGap(ready=%g, dur=%g) = %g, want %g", c.ready, c.dur, got, c.want)
		}
	}
}

func TestTimelineCoalescing(t *testing.T) {
	tl := NewTimeline(1)
	tl.Reserve(0, 0, 1)
	tl.Reserve(0, 1, 2) // touches the first
	tl.Reserve(0, 4, 5)
	tl.Reserve(0, 2, 4) // bridges the two runs
	if got := len(tl.Reserved(0)); got != 1 {
		t.Fatalf("intervals = %d, want 1 after coalescing: %v", got, tl.Reserved(0))
	}
	iv := tl.Reserved(0)[0]
	if iv.Start != 0 || iv.End != 5 {
		t.Fatalf("coalesced interval = %+v, want [0,5)", iv)
	}
}

func TestTimelineEarliestHosts(t *testing.T) {
	tl := NewTimeline(4)
	tl.Reserve(0, 0, 10)
	tl.Reserve(2, 0, 1)
	got := tl.EarliestHosts(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("EarliestHosts(2) = %v, want [1 3]", got)
	}
	if got := tl.EarliestHosts(10); len(got) != 4 {
		t.Fatalf("EarliestHosts clamps to host count, got %v", got)
	}
}

// TestEarliestHostsAgainstSort cross-checks the selection against sorting
// every host by (tail, index) and keeping the first need. Half the cases
// draw tails from a few values so ties are common, half from a continuum.
func TestEarliestHostsAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 1000; iter++ {
		hosts := 1 + rng.Intn(40)
		tl := NewTimeline(hosts)
		for h := 0; h < hosts; h++ {
			end := float64(rng.Intn(4))
			if iter%2 == 1 {
				end = rng.Float64() * 10
			}
			tl.Reserve(h, 0, end)
		}
		need := rng.Intn(hosts + 3)
		idx := make([]int, hosts)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if tl.FreeAt(idx[a]) != tl.FreeAt(idx[b]) {
				return tl.FreeAt(idx[a]) < tl.FreeAt(idx[b])
			}
			return idx[a] < idx[b]
		})
		want := idx[:min(need, hosts)]
		sort.Ints(want)
		if got := tl.EarliestHosts(need); !slices.Equal(got, want) {
			t.Fatalf("iter %d: EarliestHosts(%d) = %v, want %v", iter, need, got, want)
		}
	}
}

// TestTimelineAgainstNaive cross-checks gap queries against a brute-force
// reference on random reservation patterns.
func TestTimelineAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tl := NewTimeline(1)
	var naive []Interval
	for step := 0; step < 300; step++ {
		ready := rng.Float64() * 50
		dur := rng.Float64() * 5
		want := naiveGap(naive, ready, dur)
		got := tl.EarliestGap(0, ready, dur)
		if got != want {
			t.Fatalf("step %d: EarliestGap(%g, %g) = %g, want %g (reserved %v)",
				step, ready, dur, got, want, tl.Reserved(0))
		}
		tl.Reserve(0, got, got+dur)
		naive = append(naive, Interval{got, got + dur})
	}
	// The reservation list must stay sorted and disjoint.
	list := tl.Reserved(0)
	for i := 1; i < len(list); i++ {
		if list[i].Start < list[i-1].End {
			t.Fatalf("intervals overlap or unsorted at %d: %v", i, list)
		}
	}
}

func naiveGap(reserved []Interval, ready, dur float64) float64 {
	start := ready
	for changed := true; changed; {
		changed = false
		for _, iv := range reserved {
			if start < iv.End && start+dur > iv.Start {
				start = iv.End
				changed = true
			}
		}
	}
	return start
}
