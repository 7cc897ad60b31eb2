// Package dag models the task graphs scheduled in the paper's case studies:
// directed acyclic graphs of moldable tasks (paper section III-A). A
// moldable task can run on a varying number of processors; its execution
// time T(v, p) follows an Amdahl-style cost model. Edges carry the amount of
// data communicated between tasks.
//
// The package provides graph analyses used by the CPA/MCPA and HEFT
// schedulers (topological order, precedence levels, critical path, top and
// bottom levels) plus the generators behind the experiments: the shaped
// random DAGs of section III ("long, wide, serial, etc."), the
// imbalanced-layer DAG of Figure 4, and the Montage workflow of Figure 6.
package dag

import (
	"fmt"
	"sort"
)

// Node is one moldable task of the graph.
type Node struct {
	ID   int
	Name string
	// Type groups nodes for coloring and analysis (Montage stage names,
	// or "computation" for generic DAGs).
	Type string
	// Work is the total computation of the task in flop.
	Work float64
	// SerialFraction is the Amdahl non-parallelizable fraction in [0, 1].
	SerialFraction float64

	preds, succs []*Edge
}

// Edge is a data dependency: To may start only after From completes and
// Bytes of data have been transferred.
type Edge struct {
	From, To *Node
	Bytes    float64
}

// Graph is a DAG of moldable tasks.
type Graph struct {
	Name  string
	nodes []*Node
	edges []*Edge
}

// New creates an empty graph.
func New(name string) *Graph { return &Graph{Name: name} }

// AddNode appends a task and returns it. IDs are assigned sequentially.
func (g *Graph) AddNode(name, typ string, work, serialFraction float64) *Node {
	n := &Node{
		ID: len(g.nodes), Name: name, Type: typ,
		Work: work, SerialFraction: serialFraction,
	}
	g.nodes = append(g.nodes, n)
	return n
}

// AddEdge connects from -> to carrying bytes of data.
func (g *Graph) AddEdge(from, to *Node, bytes float64) *Edge {
	e := &Edge{From: from, To: to, Bytes: bytes}
	g.edges = append(g.edges, e)
	from.succs = append(from.succs, e)
	to.preds = append(to.preds, e)
	return e
}

// Nodes returns the nodes in insertion (ID) order.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Edges returns all edges.
func (g *Graph) Edges() []*Edge { return g.edges }

// Len returns the node count.
func (g *Graph) Len() int { return len(g.nodes) }

// Preds returns the incoming edges of n.
func (n *Node) Preds() []*Edge { return n.preds }

// Succs returns the outgoing edges of n.
func (n *Node) Succs() []*Edge { return n.succs }

// Time evaluates the moldable cost model: the execution time of the task on
// p processors of the given speed (flop/s), following Amdahl's law:
//
//	T(v, p) = Work/speed * (alpha + (1-alpha)/p)
//
// p < 1 is treated as 1.
func (n *Node) Time(p int, speed float64) float64 {
	if p < 1 {
		p = 1
	}
	if speed <= 0 {
		return 0
	}
	seq := n.SerialFraction
	return n.Work / speed * (seq + (1-seq)/float64(p))
}

// Validate checks that the graph is acyclic and internally consistent.
func (g *Graph) Validate() error {
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	for _, e := range g.edges {
		if e.From == e.To {
			return fmt.Errorf("dag %q: self-loop on node %d", g.Name, e.From.ID)
		}
		if e.Bytes < 0 {
			return fmt.Errorf("dag %q: negative edge data %g on %d->%d",
				g.Name, e.Bytes, e.From.ID, e.To.ID)
		}
	}
	for _, n := range g.nodes {
		if n.Work < 0 {
			return fmt.Errorf("dag %q: node %d has negative work", g.Name, n.ID)
		}
		if n.SerialFraction < 0 || n.SerialFraction > 1 {
			return fmt.Errorf("dag %q: node %d serial fraction %g outside [0,1]",
				g.Name, n.ID, n.SerialFraction)
		}
	}
	return nil
}

// TopoOrder returns the nodes in a topological order, or an error if the
// graph has a cycle.
func (g *Graph) TopoOrder() ([]*Node, error) {
	indeg := make([]int, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n.ID] = len(n.preds)
	}
	queue := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		if indeg[n.ID] == 0 {
			queue = append(queue, n)
		}
	}
	out := make([]*Node, 0, len(g.nodes))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, e := range n.succs {
			indeg[e.To.ID]--
			if indeg[e.To.ID] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(out) != len(g.nodes) {
		return nil, fmt.Errorf("dag %q: cycle detected (%d of %d nodes ordered)",
			g.Name, len(out), len(g.nodes))
	}
	return out, nil
}

// Levels assigns each node its precedence level: 0 for entry nodes, and
// 1 + max(level of predecessors) otherwise. MCPA constrains per-level
// allocations with this notion (paper section III-B).
func (g *Graph) Levels() ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	levels := make([]int, len(g.nodes))
	for _, n := range order {
		for _, e := range n.preds {
			if levels[e.From.ID]+1 > levels[n.ID] {
				levels[n.ID] = levels[e.From.ID] + 1
			}
		}
	}
	return levels, nil
}

// LevelSets groups node IDs by precedence level.
func (g *Graph) LevelSets() ([][]int, error) {
	levels, err := g.Levels()
	if err != nil {
		return nil, err
	}
	maxL := 0
	for _, l := range levels {
		if l > maxL {
			maxL = l
		}
	}
	sets := make([][]int, maxL+1)
	for id, l := range levels {
		sets[l] = append(sets[l], id)
	}
	return sets, nil
}

// CriticalPath returns the length of the longest path through the graph
// (sum of node execution times, communication excluded as in CPA's T_CP)
// under the given per-node time function, together with the node IDs on one
// such path in execution order.
func (g *Graph) CriticalPath(timeOf func(*Node) float64) (float64, []int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, nil, err
	}
	dist := make([]float64, len(g.nodes)) // finish of longest path ending at node
	prev := make([]int, len(g.nodes))
	for i := range prev {
		prev[i] = -1
	}
	for _, n := range order {
		start := 0.0
		for _, e := range n.preds {
			if dist[e.From.ID] > start {
				start = dist[e.From.ID]
				prev[n.ID] = e.From.ID
			}
		}
		dist[n.ID] = start + timeOf(n)
	}
	best := -1
	for id, d := range dist {
		if best < 0 || d > dist[best] {
			best = id
		}
	}
	if best < 0 {
		return 0, nil, nil
	}
	var path []int
	for id := best; id >= 0; id = prev[id] {
		path = append(path, id)
	}
	// reverse
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return dist[best], path, nil
}

// TotalWork sums the work of all nodes.
func (g *Graph) TotalWork() float64 {
	var w float64
	for _, n := range g.nodes {
		w += n.Work
	}
	return w
}

// Sources returns the entry nodes (no predecessors).
func (g *Graph) Sources() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if len(n.preds) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Sinks returns the exit nodes (no successors).
func (g *Graph) Sinks() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if len(n.succs) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// TypeCounts tallies nodes per type, useful for workflow structure checks.
func (g *Graph) TypeCounts() map[string]int {
	out := map[string]int{}
	for _, n := range g.nodes {
		out[n.Type]++
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	out := New(g.Name)
	for _, n := range g.nodes {
		out.AddNode(n.Name, n.Type, n.Work, n.SerialFraction)
	}
	for _, e := range g.edges {
		out.AddEdge(out.nodes[e.From.ID], out.nodes[e.To.ID], e.Bytes)
	}
	return out
}

// Stats summarizes the graph shape.
func (g *Graph) Stats() string {
	sets, err := g.LevelSets()
	if err != nil {
		return fmt.Sprintf("dag %q: %v", g.Name, err)
	}
	widths := make([]int, len(sets))
	for i, s := range sets {
		widths[i] = len(s)
	}
	maxW := 0
	for _, w := range widths {
		if w > maxW {
			maxW = w
		}
	}
	return fmt.Sprintf("dag %q: %d nodes, %d edges, %d levels, max width %d",
		g.Name, len(g.nodes), len(g.edges), len(sets), maxW)
}

// NodesByID returns nodes sorted by ID (a fresh slice).
func (g *Graph) NodesByID() []*Node {
	out := append([]*Node(nil), g.nodes...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
