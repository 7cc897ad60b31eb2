package main

import (
	"runtime"
	"sort"
	"time"
)

// series collects samples (durations in milliseconds, or plain numbers).
type series []float64

func (s *series) add(v float64)          { *s = append(*s, v) }
func (s *series) addDur(d time.Duration) { s.add(ms(d)) }

// quantile interpolates linearly between the closest ranks, so a
// percentile moves smoothly with the samples instead of jumping between
// them; 0 for an empty series.
func (s series) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(pos)
	if lo >= len(v)-1 {
		return v[len(v)-1]
	}
	frac := pos - float64(lo)
	return v[lo] + frac*(v[lo+1]-v[lo])
}

func (s series) median() float64 { return s.quantile(0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opLoop times the measured ops of a closed loop.
type opLoop struct {
	o        options
	deadline time.Time
	start    time.Time
	end      time.Time
	ops      series
	host     hostProbe
	// probed is the probe time spent between start and end.
	probed time.Duration
}

func newOpLoop(o options) *opLoop {
	now := time.Now()
	return &opLoop{o: o, start: now, end: now,
		deadline: now.Add(time.Duration(o.seconds * float64(time.Second)))}
}

// smokeOps is how many ops a smoke run measures.
const smokeOps = 4

// more reports whether another op may start.
func (l *opLoop) more() bool {
	if l.o.smoke && len(l.ops) >= smokeOps {
		return false
	}
	return time.Now().Before(l.deadline)
}

// done records one op that ended at end after lasting d, then, in an
// untraced run, runs a probe slice if one is due; the caller starts timing
// the next op after done. A traced run reports no host-scaled metric, and
// probing only its untraced ops would skew trace_overhead.
func (l *opLoop) done(d time.Duration, end time.Time) {
	l.ops.addDur(d)
	l.end = end
	l.probed = l.host.spent
	if !l.o.trace {
		l.host.between()
	}
}

// endToEnd fills the op metrics every workload reports, at the reference
// host speed (see host.go). The op rate leaves out the probe's own time.
func (l *opLoop) endToEnd(r *report) {
	f := l.host.factor()
	if wall := (l.end.Sub(l.start) - l.probed).Seconds(); wall > 0 {
		r.notes["raw_ops_per_s"] = float64(len(l.ops)) / wall
		r.metrics["ops_per_s"] = r.notes["raw_ops_per_s"] * f
	}
	r.notes["raw_op_p50_ms"] = l.ops.quantile(0.5)
	r.notes["raw_op_p90_ms"] = l.ops.quantile(0.9)
	r.metrics["op_p50_ms"] = r.notes["raw_op_p50_ms"] / f
	r.metrics["op_p90_ms"] = r.notes["raw_op_p90_ms"] / f
	r.notes["host_factor"] = f
	for i, k := range probeKernels {
		r.notes["probe_"+k.name+"_ms"] = l.host.times[i].median()
	}
	r.notes["ops"] = float64(len(l.ops))
}

// liveHeapMB forces a collection and returns the live heap in MB, leaving
// out the host probe's inputs.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc-probeHeapBytes) / 1e6
}

// setupReps is how many times a run sets up (n, or 1 in smoke mode);
// setup_s is the median of their times (setupTimer).
func setupReps(o options, n int) int {
	if o.smoke {
		return 1
	}
	return n
}
