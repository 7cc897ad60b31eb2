package cpa

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
)

func cluster(n int) *platform.Platform { return platform.Homogeneous(n, 1e9) }

func TestVariantString(t *testing.T) {
	if CPA.String() != "cpa" || MCPA.String() != "mcpa" || MCPA2.String() != "mcpa2" {
		t.Fatal("variant strings")
	}
	if Variant(9).String() != "variant(?)" {
		t.Fatal("unknown variant string")
	}
}

func TestAllocationGrowsCriticalPath(t *testing.T) {
	// A chain is all critical path: allocations must grow beyond 1.
	g := dag.Generate(dag.ShapeSerial, dag.DefaultGenOptions(10), rand.New(rand.NewSource(1)))
	res, err := Schedule(g, cluster(16), CPA)
	if err != nil {
		t.Fatal(err)
	}
	grew := false
	for _, a := range res.Alloc {
		if a < 1 || a > 16 {
			t.Fatalf("allocation %d out of range", a)
		}
		if a > 1 {
			grew = true
		}
	}
	if !grew {
		t.Fatal("CPA never grew any allocation on a pure chain")
	}
	// On a chain T_A is tiny relative to T_CP until allocations grow; the
	// loop must terminate with TCP <= TA or saturated allocations.
	if res.TCP > res.TA {
		for _, a := range res.Alloc {
			if a < 16 {
				// Not saturated but stopped: the serial fraction made
				// further growth useless (gain 0 is never selected).
				break
			}
		}
	}
}

func TestMCPALevelCapRespected(t *testing.T) {
	P := 16
	g := dag.ImbalancedLayer(5, 10)
	res, err := Schedule(g, cluster(P), MCPA)
	if err != nil {
		t.Fatal(err)
	}
	perLevel, err := MaxAllocPerLevel(g, res.Alloc)
	if err != nil {
		t.Fatal(err)
	}
	for level, total := range perLevel {
		if total > P {
			t.Fatalf("MCPA level %d allocates %d > %d processors", level, total, P)
		}
	}
	// CPA on the same DAG is allowed to oversubscribe a level.
	resCPA, err := Schedule(g, cluster(P), CPA)
	if err != nil {
		t.Fatal(err)
	}
	perLevelCPA, _ := MaxAllocPerLevel(g, resCPA.Alloc)
	if perLevelCPA[1] <= P {
		t.Logf("note: CPA level allocation %d did not exceed P on this instance", perLevelCPA[1])
	}
}

// TestFigure4Scenario reproduces the paper's Figure 4 finding: on a DAG
// whose middle layer has tasks of very different costs, MCPA's level cap
// produces a load-imbalance hole, CPA exploits the cluster better, and the
// MCPA2 poly-algorithm recovers CPA's schedule.
func TestFigure4Scenario(t *testing.T) {
	// Layer width close to the cluster size: MCPA's per-level cap then
	// pins the expensive task to very few processors.
	P := 16
	g := dag.ImbalancedLayer(14, 10)
	p := cluster(P)

	resCPA, err := Schedule(g, p, CPA)
	if err != nil {
		t.Fatal(err)
	}
	resMCPA, err := Schedule(g, p, MCPA)
	if err != nil {
		t.Fatal(err)
	}
	simCPA, err := Execute(resCPA, p)
	if err != nil {
		t.Fatal(err)
	}
	simMCPA, err := Execute(resMCPA, p)
	if err != nil {
		t.Fatal(err)
	}
	// CPA finishes earlier...
	if simCPA.Makespan >= simMCPA.Makespan {
		t.Fatalf("CPA makespan %g should beat MCPA %g on the imbalanced layer",
			simCPA.Makespan, simMCPA.Makespan)
	}
	// ...and uses the cluster better (fewer idle holes).
	utilCPA := simCPA.Schedule.ComputeStats().Utilization
	utilMCPA := simMCPA.Schedule.ComputeStats().Utilization
	if utilCPA <= utilMCPA {
		t.Fatalf("CPA utilization %.3f should exceed MCPA %.3f", utilCPA, utilMCPA)
	}
	// MCPA2 picks CPA here ("generates the same schedule as CPA").
	res2, err := Schedule(g, p, MCPA2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Chosen != CPA {
		t.Fatalf("MCPA2 chose %v, want CPA", res2.Chosen)
	}
	if math.Abs(res2.Makespan-resCPA.Makespan) > 1e-9 {
		t.Fatalf("MCPA2 makespan %g != CPA %g", res2.Makespan, resCPA.Makespan)
	}
}

// Structural safety on random DAGs of every shape.
func TestScheduleInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := []dag.Shape{dag.ShapeSerial, dag.ShapeWide, dag.ShapeLong, dag.ShapeRandom, dag.ShapeForkJoin}
	for iter := 0; iter < 20; iter++ {
		shape := shapes[iter%len(shapes)]
		g := dag.Generate(shape, dag.DefaultGenOptions(10+rng.Intn(30)), rng)
		P := 4 + rng.Intn(28)
		p := cluster(P)
		for _, variant := range []Variant{CPA, MCPA, MCPA2} {
			res, err := Schedule(g, p, variant)
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, variant, err)
			}
			// Allocation bounds.
			for id, a := range res.Alloc {
				if a < 1 || a > P {
					t.Fatalf("iter %d %v: alloc[%d]=%d", iter, variant, id, a)
				}
			}
			// Virtual execution respects everything (Execute validates).
			wr, err := Execute(res, p)
			if err != nil {
				t.Fatalf("iter %d %v: %v", iter, variant, err)
			}
			if err := wr.Schedule.Validate(); err != nil {
				t.Fatalf("iter %d %v: %v", iter, variant, err)
			}
			// The simulated makespan can never beat max(TCP at alloc, 0)
			// by more than numerical noise... it must be >= the critical
			// path under the chosen allocation.
			if wr.Makespan < res.TCP-1e-6 {
				t.Fatalf("iter %d %v: makespan %g below critical path %g",
					iter, variant, wr.Makespan, res.TCP)
			}
			// MCPA's invariant: a level never exceeds P unless it holds
			// more than P tasks (each task needs at least one processor).
			if variant == MCPA {
				perLevel, _ := MaxAllocPerLevel(g, res.Alloc)
				sets, _ := g.LevelSets()
				for level, total := range perLevel {
					cap := P
					if w := len(sets[level]); w > cap {
						cap = w
					}
					if total > cap {
						t.Fatalf("iter %d: MCPA level %d allocates %d > %d", iter, level, total, cap)
					}
				}
			}
		}
	}
}

func TestMCPA2NeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 10; iter++ {
		g := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(25), rng)
		p := cluster(16)
		a, _ := Schedule(g, p, CPA)
		b, _ := Schedule(g, p, MCPA)
		c, err := Schedule(g, p, MCPA2)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Min(a.Makespan, b.Makespan)
		if c.Makespan > best+1e-9 {
			t.Fatalf("MCPA2 makespan %g worse than best(%g, %g)", c.Makespan, a.Makespan, b.Makespan)
		}
	}
}

func TestScheduleErrors(t *testing.T) {
	g := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(10), rand.New(rand.NewSource(1)))
	multi := platform.Figure7(platform.Figure7FlawedLatency)
	if _, err := Schedule(g, multi, CPA); err == nil {
		t.Error("multi-cluster platform accepted")
	}
	bad := dag.New("bad")
	n1 := bad.AddNode("a", "x", 1, 0)
	n2 := bad.AddNode("b", "x", 1, 0)
	bad.AddEdge(n1, n2, 0)
	bad.AddEdge(n2, n1, 0)
	if _, err := Schedule(bad, cluster(4), CPA); err == nil {
		t.Error("cyclic graph accepted")
	}
	if _, err := Schedule(g, cluster(4), Variant(42)); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestLowerBound(t *testing.T) {
	res := &Result{TCP: 10, TA: 20}
	if LowerBound(res) != 20 {
		t.Fatal("lower bound should be max(TCP, TA)")
	}
}

func TestPickEarliestHosts(t *testing.T) {
	// Host selection now goes through the shared timeline's tail times.
	tl := sched.NewTimeline(4)
	tl.Reserve(0, 0, 5)
	tl.Reserve(1, 0, 1)
	tl.Reserve(2, 0, 3)
	tl.Reserve(3, 0, 1)
	got := tl.EarliestHosts(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("picked %v, want [1 3]", got)
	}
	// Overask clamps to all hosts.
	if got := tl.EarliestHosts(10); len(got) != 4 {
		t.Fatal("overask not clamped")
	}
}

// referenceAllocate is the allocation phase as first written: every step
// recomputes the critical path from scratch with dag.CriticalPath and
// re-sums the whole area. It is the oracle the incremental allocate must
// match bit for bit.
func referenceAllocate(g *dag.Graph, p *platform.Platform, levelCap bool) (alloc []int, tcp, ta float64, err error) {
	P := p.NumHosts()
	speed := p.Hosts()[0].Speed
	alloc = make([]int, g.Len())
	for i := range alloc {
		alloc[i] = 1
	}
	var levels []int
	levelAlloc := map[int]int{}
	if levelCap {
		if levels, err = g.Levels(); err != nil {
			return nil, 0, 0, err
		}
		for _, l := range levels {
			levelAlloc[l]++
		}
	}
	timeOf := func(nd *dag.Node) float64 { return nd.Time(alloc[nd.ID], speed) }
	for {
		var path []int
		tcp, path, err = g.CriticalPath(timeOf)
		if err != nil {
			return nil, 0, 0, err
		}
		var sum float64
		for _, nd := range g.Nodes() {
			sum += timeOf(nd) * float64(alloc[nd.ID])
		}
		ta = sum / float64(P)
		if tcp <= ta {
			break
		}
		best := -1
		bestGain := 0.0
		for _, id := range path {
			nd := g.Nodes()[id]
			if alloc[id] >= P || levelCap && levelAlloc[levels[id]]+1 > P {
				continue
			}
			gain := nd.Time(alloc[id], speed) - nd.Time(alloc[id]+1, speed)
			if gain > bestGain {
				bestGain = gain
				best = id
			}
		}
		if best < 0 {
			break
		}
		alloc[best]++
		if levelCap {
			levelAlloc[levels[best]]++
		}
	}
	return alloc, tcp, ta, nil
}

// TestAllocateMatchesReference checks the incremental allocation phase
// against the from-scratch oracle on every shape and a spread of DAG and
// cluster sizes, including degenerate graphs: allocations must be equal and
// T_CP and T_A bit-identical.
func TestAllocateMatchesReference(t *testing.T) {
	type instance struct {
		name string
		g    *dag.Graph
	}
	var graphs []instance
	for _, shape := range dag.Shapes() {
		for _, size := range []int{1, 10, 40, 80} {
			g := dag.Generate(shape, dag.DefaultGenOptions(size), rand.New(rand.NewSource(int64(size))))
			graphs = append(graphs, instance{fmt.Sprintf("%v/%d", shape, size), g})
		}
	}
	single := dag.New("single")
	single.AddNode("only", "x", 4e10, 0.05)
	graphs = append(graphs, instance{"single", single})
	// A zero-work task on the critical path never gains from a processor,
	// and a zero-work sink ties with its predecessor's path length.
	zero := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(20), rand.New(rand.NewSource(3)))
	free := zero.AddNode("free", "x", 0, 0.05)
	for _, sink := range zero.Sinks() {
		if sink != free {
			zero.AddEdge(sink, free, 0)
		}
	}
	mid := zero.Nodes()[len(zero.Nodes())/2]
	mid.Work = 0
	graphs = append(graphs, instance{"zero-work", zero})
	graphs = append(graphs, instance{"ImbalancedLayer", dag.ImbalancedLayer(14, 10)})

	for _, in := range graphs {
		for _, P := range []int{1, 4, 32, 128} {
			for _, levelCap := range []bool{false, true} {
				name := fmt.Sprintf("%s/P%d/cap=%v", in.name, P, levelCap)
				wantAlloc, wantTCP, wantTA, err := referenceAllocate(in.g, cluster(P), levelCap)
				if err != nil {
					t.Fatalf("%s: reference: %v", name, err)
				}
				alloc, tcp, ta, err := allocate(in.g, cluster(P), levelCap)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !slices.Equal(alloc, wantAlloc) {
					t.Fatalf("%s: alloc %v, want %v", name, alloc, wantAlloc)
				}
				if math.Float64bits(tcp) != math.Float64bits(wantTCP) ||
					math.Float64bits(ta) != math.Float64bits(wantTA) {
					t.Fatalf("%s: tcp/ta %v/%v, want %v/%v", name, tcp, ta, wantTCP, wantTA)
				}
			}
		}
	}
}

// TestAllocateAllocsConstant guards the incremental loop: its allocations
// are the fixed set-up buffers, however many one-processor steps it takes.
func TestAllocateAllocsConstant(t *testing.T) {
	g := dag.Generate(dag.ShapeRandom, dag.DefaultGenOptions(80), rand.New(rand.NewSource(1)))
	p := cluster(128)
	alloc, _, _, err := allocate(g, p, false)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for _, a := range alloc {
		steps += a - 1
	}
	const bound = 20
	if steps < 10*bound {
		t.Fatalf("only %d growth steps: the instance does not exercise the loop", steps)
	}
	for _, levelCap := range []bool{false, true} {
		n := testing.AllocsPerRun(5, func() {
			if _, _, _, err := allocate(g, p, levelCap); err != nil {
				t.Fatal(err)
			}
		})
		if n > bound {
			t.Errorf("levelCap=%v: %v allocations per run over %d steps, want <= %d", levelCap, n, steps, bound)
		}
	}
}
