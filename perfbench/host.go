package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// The host this benchmark runs on is a small VM whose speed drifts with its
// neighbours' load: the same code runs up to 40% slower for minutes at a
// time, far more than any bound a regression gate could use. So every run
// also times a fixed probe — four small kernels of standard-library work
// (sorting, map lookups, DEFLATE, number formatting), none of them program
// code — in short slices between ops and between set-ups. The timing
// metrics are reported at the reference host speed: the raw time divided by
// the host factor, which is the probe's time now over its reference time.
// A change to the program does not move the probe, so it moves the reported
// figures fully; a slow phase of the host slows both and cancels out. The
// raw figures and the factor are printed as notes.

// probeKernel is one kernel of the probe. ref is its time in milliseconds
// on an unloaded host of the kind the benchmark is sized for (2 vCPUs of an
// Intel Xeon, Sapphire Rapids generation); only the sum matters.
type probeKernel struct {
	name string
	ref  float64
	run  func(*probeData)
}

var probeKernels = [...]probeKernel{
	{"sort", 1.45, func(d *probeData) {
		copy(d.sorted, d.ints)
		sort.Ints(d.sorted)
		d.sink += d.sorted[0]
	}},
	{"map", 2.11, func(d *probeData) {
		for _, k := range d.keys {
			d.sink += d.table[k]
		}
	}},
	{"flate", 3.00, func(d *probeData) {
		d.zbuf.Reset()
		d.zw.Reset(&d.zbuf)
		d.zw.Write(d.text) //nolint:errcheck // writes to memory
		d.zw.Close()       //nolint:errcheck // writes to memory
		d.sink += d.zbuf.Len()
	}},
	{"format", 1.89, func(d *probeData) {
		b, x := d.digits[:0], 1.0
		for i := 0; i < 20_000; i++ {
			x = x*1.0000001 + 0.5
			b = strconv.AppendFloat(b, x, 'g', -1, 64)
			b = strconv.AppendInt(b, int64(i), 10)
		}
		d.sink += len(b)
	}},
}

// probeData holds the kernels' inputs and scratch space, built once, so a
// kernel allocates nothing and never waits on the program's garbage
// collector.
type probeData struct {
	ints, sorted []int
	table        map[int]int
	keys         []int
	text         []byte
	zbuf         bytes.Buffer
	zw           *flate.Writer
	digits       []byte
	sink         int
}

var (
	probe *probeData
	// probeHeapBytes is the live heap the probe's inputs hold, which the
	// set-up heap metric leaves out.
	probeHeapBytes uint64
)

// initProbe builds the probe's inputs; run calls it before any set-up.
func initProbe() {
	if probe != nil {
		return
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rng := rand.New(rand.NewSource(7))
	d := &probeData{ints: make([]int, 20_000), sorted: make([]int, 20_000),
		table: make(map[int]int, 100_000), keys: make([]int, 50_000),
		digits: make([]byte, 0, 1<<20)}
	for i := range d.ints {
		d.ints[i] = rng.Int()
	}
	for i := 0; i < 100_000; i++ {
		d.table[rng.Intn(1_000_000)] = i
	}
	for i := range d.keys {
		d.keys[i] = rng.Intn(1_000_000)
	}
	var text bytes.Buffer
	for text.Len() < 64<<10 {
		text.WriteString(strconv.FormatFloat(rng.NormFloat64(), 'g', -1, 64))
		text.WriteByte(',')
		if rng.Intn(10) == 0 {
			text.WriteString("aaaaaaaaaaaaaaaaaaaaaaaa")
		}
	}
	d.text = text.Bytes()
	d.zw, _ = flate.NewWriter(&d.zbuf, flate.DefaultCompression)
	for _, k := range probeKernels { // grow the scratch buffers once
		k.run(d)
	}
	probe = d
	runtime.GC()
	runtime.ReadMemStats(&after)
	probeHeapBytes = after.HeapAlloc - before.HeapAlloc
}

// probeInterval is the least time between two probe slices in an op loop:
// each slice runs one kernel for about 2 ms.
const probeInterval = 100 * time.Millisecond

// hostProbe times the probe's kernels over one phase of a run.
type hostProbe struct {
	times [len(probeKernels)]series // per kernel, in ms
	next  int
	last  time.Time
	spent time.Duration
}

// slice runs the next kernel, round robin.
func (h *hostProbe) slice() {
	k := h.next % len(probeKernels)
	t0 := time.Now()
	probeKernels[k].run(probe)
	h.last = time.Now()
	h.times[k].addDur(h.last.Sub(t0))
	h.spent += h.last.Sub(t0)
	h.next++
}

// between runs a slice if probeInterval has passed since the last one; op
// loops call it after each op, outside the op's timing.
func (h *hostProbe) between() {
	if time.Since(h.last) >= probeInterval {
		h.slice()
	}
}

// rounds runs every kernel n times.
func (h *hostProbe) rounds(n int) {
	for i := 0; i < n*len(probeKernels); i++ {
		h.slice()
	}
}

// factor is how much slower than the reference the host ran the probe:
// the sum of the kernels' median times over the sum of their references.
func (h *hostProbe) factor() float64 {
	var now, ref float64
	for i, k := range probeKernels {
		if len(h.times[i]) == 0 {
			return 1
		}
		now += h.times[i].median()
		ref += k.ref
	}
	return now / ref
}

// setupProbeRounds is how many probe rounds follow each set-up repetition.
const setupProbeRounds = 4

// setupTimer collects a run's set-up repetitions. Each is probed right
// after it ends and scaled by its own host factor, so a change of host
// phase between repetitions moves one of them, not the median.
type setupTimer struct {
	raw, scaled, factors series
}

func (s *setupTimer) add(d time.Duration) {
	var h hostProbe
	h.rounds(setupProbeRounds)
	f := h.factor()
	s.raw.add(d.Seconds())
	s.scaled.add(d.Seconds() / f)
	s.factors.add(f)
}

// report sets setup_s: the median set-up time at the reference host speed.
func (s *setupTimer) report(r *report) {
	r.metrics["setup_s"] = s.scaled.median()
	r.notes["raw_setup_s"] = s.raw.median()
	r.notes["setup_host_factor"] = s.factors.median()
}
