package sched

import "sort"

// Interval is a reserved [Start, End) span on one host.
type Interval struct{ Start, End float64 }

// Timeline tracks per-host reservations for list scheduling. Each host keeps
// a sorted list of disjoint intervals (touching reservations are coalesced),
// so gap queries binary-search to the relevant region instead of rescanning
// the whole reservation history, and tail queries are O(1). It replaces the
// ad-hoc hostFree arrays and slot lists the algorithm packages used to
// maintain individually.
type Timeline struct {
	slots   [][]Interval
	tail    []float64 // end of the last reservation per host
	scratch []float64 // EarliestHosts' copy of tail for selection
}

// NewTimeline creates an empty timeline over the given host count.
func NewTimeline(hosts int) *Timeline {
	return &Timeline{
		slots: make([][]Interval, hosts),
		tail:  make([]float64, hosts),
	}
}

// Hosts returns the host count.
func (t *Timeline) Hosts() int { return len(t.slots) }

// FreeAt returns the instant from which the host is free forever — the end
// of its last reservation (tail semantics, as used by CPA's mapping phase
// and CRA's backfilling).
func (t *Timeline) FreeAt(host int) float64 { return t.tail[host] }

// EarliestGap returns the earliest start >= ready such that [start,
// start+dur) fits between the host's reservations — the HEFT insertion
// policy. Intervals ending at or before ready are skipped by binary search.
func (t *Timeline) EarliestGap(host int, ready, dur float64) float64 {
	list := t.slots[host]
	i := sort.Search(len(list), func(i int) bool { return list[i].End > ready })
	start := ready
	for ; i < len(list); i++ {
		if start+dur <= list[i].Start {
			return start // fits in the gap before this interval
		}
		if list[i].End > start {
			start = list[i].End
		}
	}
	return start
}

// Reserve marks [start, end) busy on the host, keeping the interval list
// sorted and coalescing touching or overlapping neighbors.
func (t *Timeline) Reserve(host int, start, end float64) {
	if end <= start {
		return
	}
	list := t.slots[host]
	i := sort.Search(len(list), func(i int) bool { return list[i].Start >= start })
	// Merge with the predecessor when it touches or overlaps.
	if i > 0 && list[i-1].End >= start {
		i--
		start = list[i].Start
		if list[i].End > end {
			end = list[i].End
		}
	} else {
		list = append(list, Interval{})
		copy(list[i+1:], list[i:])
		list[i] = Interval{}
	}
	// Swallow successors covered by or touching [start, end).
	j := i + 1
	for j < len(list) && list[j].Start <= end {
		if list[j].End > end {
			end = list[j].End
		}
		j++
	}
	list[i] = Interval{Start: start, End: end}
	list = append(list[:i+1], list[j:]...)
	t.slots[host] = list
	if end > t.tail[host] {
		t.tail[host] = end
	}
}

// ReserveAll reserves [start, end) on every listed host.
func (t *Timeline) ReserveAll(hosts []int, start, end float64) {
	for _, h := range hosts {
		t.Reserve(h, start, end)
	}
}

// EarliestHosts returns the indices of the `need` hosts with the smallest
// tail free times, preferring low indices on ties so Gantt charts show
// compact allocations; the result is sorted ascending. need is clamped to
// the host count.
//
// The chosen set is every host whose tail lies below the need-th smallest
// tail, topped up with the lowest-indexed hosts at exactly that tail, so a
// single scan in index order yields it already sorted. Tails start at 0 and
// only ever grow to a reservation's end, so they are never NaN.
func (t *Timeline) EarliestHosts(need int) []int {
	if need > len(t.tail) {
		need = len(t.tail)
	}
	if need <= 0 {
		return nil
	}
	t.scratch = append(t.scratch[:0], t.tail...)
	cut := nthSmallest(t.scratch, need-1)
	atCut := need // hosts to take at exactly the cut, lowest first
	for _, f := range t.tail {
		if f < cut {
			atCut--
		}
	}
	out := make([]int, 0, need)
	for h, f := range t.tail {
		if f == cut {
			if atCut == 0 {
				continue
			}
			atCut--
		} else if f > cut {
			continue
		}
		out = append(out, h)
	}
	return out
}

// nthSmallest returns the k-th smallest value of a (0-based), partially
// reordering a (Hoare's selection: expected linear time).
func nthSmallest(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// Reserved returns the host's reservation list (read-only view).
func (t *Timeline) Reserved(host int) []Interval { return t.slots[host] }

// Makespan returns the latest reservation end across all hosts.
func (t *Timeline) Makespan() float64 {
	var m float64
	for _, e := range t.tail {
		if e > m {
			m = e
		}
	}
	return m
}
