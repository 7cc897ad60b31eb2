// Package cpa implements the two-step mixed-parallel scheduling algorithms
// of the paper's first case study (section III): CPA (Critical Path and
// Area-based scheduling, Radulescu & van Gemund), MCPA (modified CPA,
// Bansal et al.), and the MCPA2 poly-algorithm (Hunold) that picks whichever
// of the two produces the better schedule for the given DAG and platform.
//
// Both algorithms decouple the problem:
//
//	allocation phase — choose a processor count p(v) for every moldable
//	task, growing allocations of critical-path tasks while the critical
//	path T_CP exceeds the average area T_A = (1/P) Σ T(v,p(v))·p(v);
//
//	mapping phase — list-schedule the tasks with their fixed allocations
//	onto the homogeneous cluster by decreasing bottom level, picking for
//	each task the p(v) hosts that become free earliest.
//
// MCPA differs only in the allocation phase: it refuses to grow a task's
// allocation when the total allocation of its precedence level would exceed
// the cluster size, preserving task parallelism within a level — the very
// behavior whose failure mode (load imbalance under unequal sibling costs)
// Figure 4 of the paper exposes.
package cpa

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

func init() {
	for _, v := range []Variant{CPA, MCPA, MCPA2} {
		sched.Register(variantScheduler{v})
	}
}

// variantScheduler adapts one Variant to the sched.Scheduler interface.
type variantScheduler struct{ v Variant }

func (s variantScheduler) Name() string { return s.v.String() }

func (s variantScheduler) Schedule(g *dag.Graph, p *platform.Platform) (*sched.Result, error) {
	res, err := Schedule(g, p, s.v)
	if err != nil {
		return nil, err
	}
	return res.Unified(), nil
}

// Variant selects the allocation strategy.
type Variant int

const (
	// CPA is the original Critical Path and Area-based algorithm.
	CPA Variant = iota
	// MCPA caps per-precedence-level allocations at the cluster size.
	MCPA
	// MCPA2 runs both and keeps the schedule with the smaller predicted
	// makespan (the paper's poly-algorithm).
	MCPA2
)

func (v Variant) String() string {
	switch v {
	case CPA:
		return "cpa"
	case MCPA:
		return "mcpa"
	case MCPA2:
		return "mcpa2"
	default:
		return "variant(?)"
	}
}

// Result is a complete two-step scheduling outcome.
type Result struct {
	Variant  Variant
	Chosen   Variant // for MCPA2: which variant won; otherwise == Variant
	Alloc    []int   // processors per node ID
	TCP, TA  float64 // lower bounds after allocation
	Makespan float64 // predicted by the mapping phase

	unified *sched.Result
}

// Unified returns the result in the common scheduler format: per-node
// assignment with planned start/finish times, ready for campaign and
// registry use.
func (r *Result) Unified() *sched.Result { return r.unified }

// Planned converts the mapping into simulator tasks.
func (r *Result) Planned() []sim.PlannedTask { return r.unified.Planned() }

// Schedule runs the selected variant for the graph on a homogeneous
// cluster described by the platform's first cluster.
func Schedule(g *dag.Graph, p *platform.Platform, variant Variant) (*Result, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cpa: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("cpa: %w", err)
	}
	if len(p.Clusters) != 1 {
		return nil, fmt.Errorf("cpa: CPA/MCPA target a single homogeneous cluster, platform has %d", len(p.Clusters))
	}
	switch variant {
	case CPA, MCPA:
		return scheduleVariant(g, p, variant)
	case MCPA2:
		a, err := scheduleVariant(g, p, CPA)
		if err != nil {
			return nil, err
		}
		b, err := scheduleVariant(g, p, MCPA)
		if err != nil {
			return nil, err
		}
		best := a
		if b.Makespan < a.Makespan {
			best = b
		}
		out := *best
		out.Variant = MCPA2
		u := *best.unified
		u.Algorithm = MCPA2.String()
		u.Meta = map[string]string{"chosen": best.Chosen.String()}
		for k, v := range best.unified.Meta {
			u.Meta[k] = v
		}
		out.unified = &u
		return &out, nil
	default:
		return nil, fmt.Errorf("cpa: unknown variant %d", variant)
	}
}

// scheduleVariant runs both phases of CPA or MCPA on inputs Schedule has
// already validated.
func scheduleVariant(g *dag.Graph, p *platform.Platform, variant Variant) (*Result, error) {
	alloc, tcp, ta, err := allocate(g, p, variant == MCPA)
	if err != nil {
		return nil, err
	}
	unified, err := mapTasks(g, p, alloc, variant.String())
	if err != nil {
		return nil, err
	}
	unified.SetMeta("tcp", fmt.Sprintf("%.3f", tcp))
	unified.SetMeta("ta", fmt.Sprintf("%.3f", ta))
	return &Result{
		Variant: variant, Chosen: variant, Alloc: alloc,
		TCP: tcp, TA: ta,
		Makespan: unified.Makespan, unified: unified,
	}, nil
}

// allocate is the allocation phase shared by CPA and MCPA. Each step adds
// one processor to the critical-path task whose time drops the most, until
// T_CP <= T_A or no task may grow.
//
// The loop is incremental and allocates nothing per step. The graph is
// flattened once into a topological order with CSR predecessor lists, and
// each node's time and one-processor gain are cached. Growing node b
// changes only times[b], and a node's longest-path distance depends only on
// its ancestors, which sit earlier in the order; so only the order
// positions at or after pos[b] are stale and are re-relaxed, each exactly
// as a full pass would (same predecessor order, prev reset to -1). The area
// is re-summed over the cached times in node-ID order every step: the same
// terms in the same order give the same bits, so the tcp <= ta test
// decides exactly as a from-scratch evaluation (dag.CriticalPath plus a
// full sum) would.
func allocate(g *dag.Graph, p *platform.Platform, levelCap bool) (alloc []int, tcp, ta float64, err error) {
	P := p.NumHosts()
	speed := p.Hosts()[0].Speed
	nodes := g.Nodes()
	n := len(nodes)
	order, err := g.TopoOrder()
	if err != nil {
		return nil, 0, 0, err
	}

	// Flat per-position layout: orderID[i] is the node at position i, its
	// predecessor IDs are preds[predStart[i]:predStart[i+1]] in Preds()
	// order, and pos maps a node ID back to its position.
	orderID := make([]int, n)
	pos := make([]int, n)
	predStart := make([]int, n+1)
	preds := make([]int, 0, len(g.Edges()))
	for i, nd := range order {
		orderID[i] = nd.ID
		pos[nd.ID] = i
		for _, e := range nd.Preds() {
			preds = append(preds, e.From.ID)
		}
		predStart[i+1] = len(preds)
	}

	alloc = make([]int, n)
	times := make([]float64, n) // times[id] = Time(alloc[id], speed)
	gains := make([]float64, n) // gains[id] = Time(alloc[id]) - Time(alloc[id]+1)
	for id, nd := range nodes {
		alloc[id] = 1
		times[id] = nd.Time(1, speed)
		gains[id] = nd.Time(1, speed) - nd.Time(2, speed)
	}

	// MCPA: precedence level per node and processors allocated per level.
	var levels, levelAlloc []int
	if levelCap {
		levels = make([]int, n)
		levelAlloc = make([]int, n) // levels run from 0 to at most n-1
		for i, id := range orderID {
			for _, from := range preds[predStart[i]:predStart[i+1]] {
				levels[id] = max(levels[id], levels[from]+1)
			}
			levelAlloc[levels[id]]++
		}
	}

	if n == 0 {
		return alloc, 0, 0, nil
	}
	dist := make([]float64, n) // finish of the longest path ending at node
	prev := make([]int, n)     // predecessor on that path, -1 at its start
	path := make([]int, 0, n)
	stale := 0 // first order position whose dist/prev is out of date
	for {
		for i := stale; i < n; i++ {
			id := orderID[i]
			start := 0.0
			prev[id] = -1
			for _, from := range preds[predStart[i]:predStart[i+1]] {
				if dist[from] > start {
					start = dist[from]
					prev[id] = from
				}
			}
			dist[id] = start + times[id]
		}
		// One pass in ID order: the critical path ends at the first node of
		// longest dist, and the area sums its terms in ID order.
		sink, sum := 0, 0.0
		for id, t := range times {
			if dist[id] > dist[sink] {
				sink = id
			}
			sum += t * float64(alloc[id])
		}
		tcp, ta = dist[sink], sum/float64(P)
		if tcp <= ta {
			break
		}
		// Pick the critical-path task whose extra processor shortens it
		// the most, subject to the variant's constraints. The path is
		// collected from the sink and scanned from the source end, so ties
		// go to the task that runs first.
		path = path[:0]
		for id := sink; id >= 0; id = prev[id] {
			path = append(path, id)
		}
		best := -1
		bestGain := 0.0
		for k := len(path) - 1; k >= 0; k-- {
			id := path[k]
			if alloc[id] >= P {
				continue
			}
			if levelCap && levelAlloc[levels[id]]+1 > P {
				continue // MCPA: level is saturated
			}
			if gains[id] > bestGain {
				bestGain = gains[id]
				best = id
			}
		}
		if best < 0 {
			break // nothing can grow: CP stays above TA
		}
		alloc[best]++
		nd := nodes[best]
		times[best] = nd.Time(alloc[best], speed)
		gains[best] = nd.Time(alloc[best], speed) - nd.Time(alloc[best]+1, speed)
		if levelCap {
			levelAlloc[levels[best]]++
		}
		stale = pos[best]
	}
	return alloc, tcp, ta, nil
}

// mapTasks is the mapping phase: bottom-level list scheduling with
// earliest-available host selection, built on the shared sched toolkit
// (bottom levels + host timeline).
func mapTasks(g *dag.Graph, p *platform.Platform, alloc []int, algorithm string) (*sched.Result, error) {
	speed := p.Hosts()[0].Speed
	// Bottom levels with allocated times (communication excluded).
	blevel, err := sched.BottomLevels(g, func(nd *dag.Node) float64 {
		return nd.Time(alloc[nd.ID], speed)
	})
	if err != nil {
		return nil, err
	}

	tl := sched.NewTimeline(p.NumHosts())
	res := sched.NewResult(algorithm, g, p)
	pendingPreds := make([]int, g.Len())
	readyAt := make([]float64, g.Len())
	for _, nd := range g.Nodes() {
		pendingPreds[nd.ID] = len(nd.Preds())
	}
	var ready []*dag.Node
	for _, nd := range g.Nodes() {
		if pendingPreds[nd.ID] == 0 {
			ready = append(ready, nd)
		}
	}
	scheduled := 0
	for scheduled < g.Len() {
		if len(ready) == 0 {
			return nil, fmt.Errorf("cpa: mapping deadlock (cycle?)")
		}
		// Highest bottom level first.
		sort.SliceStable(ready, func(i, j int) bool { return blevel[ready[i].ID] > blevel[ready[j].ID] })
		nd := ready[0]
		ready = ready[1:]

		// Moldable tasks hold all their hosts for the whole duration, so the
		// tail free time is the binding constraint (no reusable gaps open up
		// behind a task the way they do for HEFT's sequential tasks).
		hosts := tl.EarliestHosts(alloc[nd.ID])
		start := readyAt[nd.ID]
		for _, h := range hosts {
			if f := tl.FreeAt(h); f > start {
				start = f
			}
		}
		end := start + nd.Time(len(hosts), speed)
		tl.ReserveAll(hosts, start, end)
		res.Assignments[nd.ID] = sched.Assignment{Hosts: hosts, Start: start, Finish: end}
		if end > res.Makespan {
			res.Makespan = end
		}
		scheduled++
		for _, e := range nd.Succs() {
			// Data availability: the redistribution target is unknown until
			// the successor is mapped, so the mapping phase counts only the
			// predecessor's finish; the simulator charges the exact
			// transfer during execution.
			if end > readyAt[e.To.ID] {
				readyAt[e.To.ID] = end
			}
			pendingPreds[e.To.ID]--
			if pendingPreds[e.To.ID] == 0 {
				ready = append(ready, e.To)
			}
		}
	}
	return res, nil
}

// Execute runs the planned schedule on the simulator (the SimGrid
// substitute) and returns the trace with algorithm meta data attached.
func Execute(res *Result, p *platform.Platform) (*sim.WorkflowResult, error) {
	wr, err := sim.Execute(p, res.Planned(), sim.ExecOptions{})
	if err != nil {
		return nil, err
	}
	wr.Schedule.SetMeta("algorithm", res.Chosen.String())
	wr.Schedule.SetMeta("tcp", fmt.Sprintf("%.3f", res.TCP))
	wr.Schedule.SetMeta("ta", fmt.Sprintf("%.3f", res.TA))
	return wr, nil
}

// MaxAllocPerLevel returns, per precedence level, the total processors
// allocated — the quantity MCPA constrains.
func MaxAllocPerLevel(g *dag.Graph, alloc []int) (map[int]int, error) {
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	out := map[int]int{}
	for _, nd := range g.Nodes() {
		out[levels[nd.ID]] += alloc[nd.ID]
	}
	return out, nil
}

// LowerBound returns max(T_CP, T_A), the classic lower bound on the
// makespan of a schedule with the given allocation.
func LowerBound(res *Result) float64 { return math.Max(res.TCP, res.TA) }
