package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/campaign"
	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

// cornerThreshold is the campaign command's default corner-case cut.
const cornerThreshold = 1.2

// cpaConfig is the campaign_cpa factorial: the paper's CPA-family
// comparison over every DAG shape, 30 cells of 2 replicates, on one worker
// goroutine so cells never compete with each other for the two CPUs.
func cpaConfig(o options) campaign.Config {
	cfg := campaign.Config{
		Shapes:       dag.Shapes(),
		DAGSizes:     []int{40, 80},
		ClusterSizes: []int{32, 64, 128},
		Algos:        []string{"cpa", "mcpa", "mcpa2"},
		Replicates:   2,
		Seed:         o.seed,
		Workers:      1,
	}
	if o.smoke {
		cfg.Shapes = cfg.Shapes[:2]
		cfg.DAGSizes = []int{20}
		cfg.ClusterSizes = []int{32}
		cfg.Replicates = 1
	}
	return cfg
}

// cpaPass runs the whole campaign once, calling onCell as each cell
// completes, and returns the summary every pass must reproduce. A result
// that does not cover every cell counts as a failed op.
func cpaPass(cfg campaign.Config, rep *report, onCell func(campaign.Cell)) ([]byte, error) {
	res, err := campaign.RunContext(context.Background(), cfg, campaign.RunOptions{
		OnCell: func(c campaign.Cell) error { onCell(c); return nil },
	})
	if err != nil {
		return nil, err
	}
	if err := res.Complete(len(campaign.Cells(cfg))); err != nil {
		rep.fail("campaign_cpa: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteSummary(&buf, cornerThreshold); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// cpaSetup runs the set-up passes: the first yields the reference summary,
// the others must reproduce it. Together they warm the allocator and the
// scheduler code before anything is timed.
func cpaSetup(o options, cfg campaign.Config, rep *report) ([]byte, error) {
	var ref []byte
	var st setupTimer
	for i := 0; i < setupReps(o, 3); i++ {
		t0 := time.Now()
		sum, err := cpaPass(cfg, rep, func(campaign.Cell) {})
		if err != nil {
			return nil, err
		}
		st.add(time.Since(t0))
		if ref == nil {
			ref = sum
			if o.corrupt {
				ref = append([]byte(nil), ref...)
				ref[len(ref)/2] ^= 0x20
			}
		} else if !bytes.Equal(sum, ref) {
			rep.fail("campaign_cpa: set-up pass %d summary differs from the first", i+1)
		}
	}
	st.report(rep)
	return ref, nil
}

// timedPass runs one untraced pass, timing each cell as one op: the time
// between successive OnCell callbacks, less any probe slice run between
// them.
func timedPass(cfg campaign.Config, ref []byte, loop *opLoop, rep *report) error {
	last := time.Now()
	sum, err := cpaPass(cfg, rep, func(campaign.Cell) {
		now := time.Now()
		loop.done(now.Sub(last), now)
		rep.attempted++
		last = time.Now()
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(sum, ref) {
		rep.fail("campaign_cpa: pass summary differs from the reference")
	}
	return nil
}

func runCampaignCPA(o options) (*report, error) {
	cfg := cpaConfig(o)
	rep := newReport()
	ref, err := cpaSetup(o, cfg, rep)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return rep, tracedCPA(o, cfg, ref, rep)
	}
	rep.metrics["setup_heap_mb"] = liveHeapMB()
	loop := newOpLoop(o)
	for loop.more() {
		if err := timedPass(cfg, ref, loop, rep); err != nil {
			return nil, err
		}
	}
	loop.endToEnd(rep)
	return rep, nil
}

// cpaTrace accumulates the traced mirror's per-call allocation counts.
type cpaTrace struct {
	tr      *tracer
	calls   map[string]int
	bytes   map[string]uint64
	mallocs map[string]uint64
}

// tracedCPA alternates untraced passes (runtime metrics, the overhead
// baseline) with traced passes through mirrorCell. The first traced pass
// also checks each mirrored cell against campaign.RunCell.
func tracedCPA(o options, cfg campaign.Config, ref []byte, rep *report) error {
	schedulers, err := sched.LookupAll(cfg.Algos)
	if err != nil {
		return err
	}
	ct := &cpaTrace{tr: newTracer(), calls: map[string]int{},
		bytes: map[string]uint64{}, mallocs: map[string]uint64{}}
	untraced := newOpLoop(o)
	var traced series
	gc := newGCProbe()
	op := 0
	for pass := 0; pass < 2 || untraced.more(); pass++ {
		if pass%2 == 0 {
			gc.begin()
			if err := timedPass(cfg, ref, untraced, rep); err != nil {
				return err
			}
			gc.end()
			continue
		}
		res := &campaign.Result{Algos: append([]string(nil), cfg.Algos...)}
		for _, spec := range campaign.Cells(cfg) {
			op++
			t0 := time.Now()
			cell, err := ct.mirrorCell(cfg, schedulers, spec, op)
			if err != nil {
				return err
			}
			traced.addDur(time.Since(t0))
			rep.attempted++
			if pass == 1 {
				want, err := campaign.RunCell(cfg, spec)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(cell, want) {
					rep.fail("campaign_cpa: traced cell %s differs from campaign.RunCell", spec.Key())
				}
			}
			res.Cells = append(res.Cells, cell)
			res.Total += cell.Runs
		}
		var buf bytes.Buffer
		if err := res.WriteSummary(&buf, cornerThreshold); err != nil {
			return err
		}
		if !bytes.Equal(buf.Bytes(), ref) {
			rep.fail("campaign_cpa: traced pass summary differs from the reference")
		}
	}

	durs, self := ct.tr.durations(), ct.tr.selfTimes()
	for _, a := range cfg.Algos {
		rep.metrics["sched."+a+".schedule_ms"] = durs["sched."+a+".schedule"].median()
		if n := ct.calls[a]; n > 0 {
			rep.metrics["sched."+a+".alloc_mb"] = float64(ct.bytes[a]) / float64(n) / 1e6
			rep.metrics["sched."+a+".mallocs"] = float64(ct.mallocs[a]) / float64(n)
		}
	}
	rep.metrics["dag.generate_ms"] = durs["dag.generate"].median()
	rep.metrics["sim.execute_ms"] = durs["sim.execute"].median()
	rep.metrics["campaign.cell_self_ms"] = self["campaign.cell"].median()
	gc.report(len(untraced.ops), rep)
	rep.metrics["trace_overhead"] = overhead(traced, untraced.ops)
	rep.notes["traced_ops"] = float64(len(traced))
	rep.notes["untraced_ops"] = float64(len(untraced.ops))
	return ct.tr.write(o.spans)
}

// mirrorCell is campaign's replicate loop for one cell, rebuilt from the
// public functions it calls (dag.Generate, Scheduler.Schedule,
// Result.Execute, campaign.ReplicateSeed) so each call can be timed. It
// must produce exactly the cell campaign.RunCell does.
func (ct *cpaTrace) mirrorCell(cfg campaign.Config, schedulers []sched.Scheduler, spec campaign.CellSpec, op int) (campaign.Cell, error) {
	tr := ct.tr
	cellID, cellStart := tr.id(), time.Now()
	cell := campaign.Cell{
		Index: spec.Index, Shape: spec.Shape, DAGSize: spec.DAGSize, Cluster: spec.Cluster,
		Algos:      append([]string(nil), cfg.Algos...),
		Wins:       make([]int, len(cfg.Algos)),
		MeanSpread: 1,
	}
	p := platform.Homogeneous(spec.Cluster, 1e9)
	logSum := 0.0
	var before, after runtime.MemStats
	for r := 0; r < cfg.Replicates; r++ {
		seed := campaign.ReplicateSeed(cfg.Seed, spec.Shape, spec.DAGSize, spec.Cluster, r)
		t0 := time.Now()
		g := dag.Generate(spec.Shape, dag.DefaultGenOptions(spec.DAGSize), rand.New(rand.NewSource(seed)))
		tr.add(cellID, op, "dag.generate", t0, time.Now())
		makespans := make([]float64, len(schedulers))
		for i, s := range schedulers {
			// The MemStats reads are spans of their own, so their
			// stop-the-world cost counts neither as scheduler time nor as
			// the cell's self time.
			t0 = time.Now()
			runtime.ReadMemStats(&before)
			t1 := time.Now()
			res, err := s.Schedule(g, p)
			t2 := time.Now()
			runtime.ReadMemStats(&after)
			t3 := time.Now()
			tr.add(cellID, op, "trace.memstats", t0, t1)
			tr.add(cellID, op, "sched."+s.Name()+".schedule", t1, t2)
			tr.add(cellID, op, "trace.memstats", t2, t3)
			if err != nil {
				return cell, fmt.Errorf("mirror %s/%s: %w", spec.Key(), s.Name(), err)
			}
			ct.calls[s.Name()]++
			ct.bytes[s.Name()] += after.TotalAlloc - before.TotalAlloc
			ct.mallocs[s.Name()] += after.Mallocs - before.Mallocs

			t0 = time.Now()
			wr, err := res.Execute(sim.ExecOptions{})
			tr.add(cellID, op, "sim.execute", t0, time.Now())
			if err != nil {
				return cell, fmt.Errorf("mirror %s/%s: %w", spec.Key(), s.Name(), err)
			}
			makespans[i] = wr.Makespan
		}
		cell.Runs++
		best, worst, bestIdx := makespans[0], makespans[0], 0
		for i, m := range makespans[1:] {
			if m < best {
				best, bestIdx = m, i+1
			}
			if m > worst {
				worst = m
			}
		}
		strict := true
		for i, m := range makespans {
			if i != bestIdx && m <= best*(1+1e-9) {
				strict = false
				break
			}
		}
		if strict {
			cell.Wins[bestIdx]++
		} else {
			cell.Ties++
		}
		spread := 1.0
		if best > 0 {
			spread = worst / best
		}
		logSum += math.Log(spread)
		if spread > cell.MaxSpread {
			cell.MaxSpread = spread
		}
	}
	cell.MeanSpread = math.Exp(logSum / float64(cell.Runs))
	tr.record(cellID, 0, op, "campaign.cell", cellStart, time.Now())
	return cell, nil
}

// gcProbe sums the runtime's GC counters over the untraced passes.
type gcProbe struct {
	samples       []metrics.Sample
	cycles, gcCPU float64
	totalCPU      float64
	c0, g0, t0    float64
}

func newGCProbe() *gcProbe {
	return &gcProbe{samples: []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}}
}

func (g *gcProbe) read() (cycles, gcCPU, total float64) {
	metrics.Read(g.samples)
	return float64(g.samples[0].Value.Uint64()), g.samples[1].Value.Float64(), g.samples[2].Value.Float64()
}

func (g *gcProbe) begin() { g.c0, g.g0, g.t0 = g.read() }

func (g *gcProbe) end() {
	c, gc, t := g.read()
	g.cycles += c - g.c0
	g.gcCPU += gc - g.g0
	g.totalCPU += t - g.t0
}

func (g *gcProbe) report(ops int, rep *report) {
	if ops > 0 {
		rep.metrics["runtime.gc_cycles_per_op"] = g.cycles / float64(ops)
	}
	if g.totalCPU > 0 {
		rep.metrics["runtime.gc_cpu_fraction"] = g.gcCPU / g.totalCPU
	}
}
