// Package prefgraph implements the preference graph G of the paper's
// Section 4.2: a directed acyclic graph whose vertices are concrete
// scenarios (identified by integer IDs) and whose edge u→v records that
// the architect prefers scenario u over scenario v.
//
// The synthesizer must ensure every synthesized objective function f
// satisfies f(u) > f(v) for every edge u→v, so the graph must stay
// acyclic — a cycle would make the constraint set unsatisfiable. The
// package detects cycles on insertion and, for the noise-robustness
// extension (paper §6.1), can localize and break cycles introduced by
// inconsistent user input.
package prefgraph

import (
	"fmt"
	"sort"
	"strings"
)

// Edge is a single preference: Better is preferred over Worse.
type Edge struct {
	Better, Worse int
}

// Graph is a preference DAG over integer scenario IDs. The zero value
// is not usable; call New.
type Graph struct {
	succ map[int]map[int]bool // succ[u][v]: u preferred over v
	pred map[int]map[int]bool
	n    int // number of edges
	// weight is the accumulated observation weight per ordered pair
	// (weighted-edge learning; see weighted.go). Nil until the first
	// Observe — the unweighted Add/ForceAdd surface never touches it.
	weight map[Edge]float64
}

func errSelf(v int) error {
	return fmt.Errorf("prefgraph: self-preference on vertex %d", v)
}

// New returns an empty preference graph.
func New() *Graph {
	return &Graph{
		succ: make(map[int]map[int]bool),
		pred: make(map[int]map[int]bool),
	}
}

// ErrCycle reports that adding an edge would create a preference cycle.
// Path is a witness: a chain of vertices from the proposed Worse back to
// the proposed Better through existing edges.
type ErrCycle struct {
	Better, Worse int
	Path          []int
}

func (e ErrCycle) Error() string {
	return fmt.Sprintf("prefgraph: preference %d > %d contradicts existing chain %v", e.Better, e.Worse, e.Path)
}

// AddVertex ensures the vertex exists (isolated vertices are allowed;
// they represent scenarios shown to the user but not yet ranked against
// anything).
func (g *Graph) AddVertex(v int) {
	if g.succ[v] == nil {
		g.succ[v] = make(map[int]bool)
	}
	if g.pred[v] == nil {
		g.pred[v] = make(map[int]bool)
	}
}

// Add inserts the preference better > worse. It returns ErrCycle (and
// leaves the graph unchanged) if the opposite ordering is already
// implied, and an error for a self-preference. Adding an existing edge
// is a no-op.
func (g *Graph) Add(better, worse int) error {
	if better == worse {
		return errSelf(better)
	}
	g.AddVertex(better)
	g.AddVertex(worse)
	if g.succ[better][worse] {
		return nil
	}
	if path := g.path(worse, better); path != nil {
		return ErrCycle{Better: better, Worse: worse, Path: path}
	}
	g.succ[better][worse] = true
	g.pred[worse][better] = true
	g.n++
	return nil
}

// ForceAdd inserts the edge even if it creates a cycle. It is the entry
// point for noisy user input; callers are expected to follow up with
// BreakCycles. The return value reports whether the graph is still
// acyclic afterwards.
func (g *Graph) ForceAdd(better, worse int) bool {
	if better == worse {
		return false
	}
	g.AddVertex(better)
	g.AddVertex(worse)
	if !g.succ[better][worse] {
		g.succ[better][worse] = true
		g.pred[worse][better] = true
		g.n++
	}
	return g.FindCycle() == nil
}

// Remove deletes the edge if present and reports whether it existed.
func (g *Graph) Remove(better, worse int) bool {
	if !g.succ[better][worse] {
		return false
	}
	delete(g.succ[better], worse)
	delete(g.pred[worse], better)
	g.n--
	return true
}

// Has reports whether the direct edge better→worse exists.
func (g *Graph) Has(better, worse int) bool { return g.succ[better][worse] }

// Prefers reports whether better is (transitively) preferred over worse.
func (g *Graph) Prefers(better, worse int) bool {
	if better == worse {
		return false
	}
	return g.path(better, worse) != nil
}

// Comparable reports whether the graph orders the two scenarios in
// either direction.
func (g *Graph) Comparable(a, b int) bool {
	return g.Prefers(a, b) || g.Prefers(b, a)
}

// NumEdges returns the number of direct edges.
func (g *Graph) NumEdges() int { return g.n }

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.succ) }

// Vertices returns all vertex IDs in ascending order.
func (g *Graph) Vertices() []int {
	out := make([]int, 0, len(g.succ))
	for v := range g.succ {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Edges returns all direct edges, sorted for determinism.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.n)
	for u, ws := range g.succ {
		for w := range ws {
			out = append(out, Edge{Better: u, Worse: w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Better != out[j].Better {
			return out[i].Better < out[j].Better
		}
		return out[i].Worse < out[j].Worse
	})
	return out
}

// path returns a vertex chain from src to dst following succ edges
// (inclusive of both endpoints), or nil if dst is unreachable. BFS keeps
// witnesses short for error messages.
func (g *Graph) path(src, dst int) []int {
	if g.succ[src] == nil {
		return nil
	}
	if src == dst {
		return []int{src}
	}
	parent := map[int]int{src: src}
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		// Deterministic expansion order.
		next := make([]int, 0, len(g.succ[u]))
		for v := range g.succ[u] {
			next = append(next, v)
		}
		sort.Ints(next)
		for _, v := range next {
			if _, seen := parent[v]; seen {
				continue
			}
			parent[v] = u
			if v == dst {
				// Reconstruct.
				var rev []int
				for x := dst; ; x = parent[x] {
					rev = append(rev, x)
					if x == src {
						break
					}
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				return rev
			}
			queue = append(queue, v)
		}
	}
	return nil
}

// FindCycle returns a directed cycle as a vertex list (first == last),
// or nil if the graph is acyclic.
func (g *Graph) FindCycle() []int {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[int]int, len(g.succ))
	parent := make(map[int]int)
	var cycle []int

	var dfs func(u int) bool
	dfs = func(u int) bool {
		color[u] = gray
		next := make([]int, 0, len(g.succ[u]))
		for v := range g.succ[u] {
			next = append(next, v)
		}
		sort.Ints(next)
		for _, v := range next {
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// Found a back edge u→v: reconstruct v ... u v.
				cycle = []int{v}
				for x := u; x != v; x = parent[x] {
					cycle = append(cycle, x)
				}
				// cycle currently v, u, ..., child(v); reverse tail.
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				cycle = append(cycle, v)
				return true
			}
		}
		color[u] = black
		return false
	}

	for _, u := range g.Vertices() {
		if color[u] == white {
			if dfs(u) {
				return cycle
			}
		}
	}
	return nil
}

// TopoSort returns the vertices in a topological order (most-preferred
// first where determined). It returns an error if the graph has a cycle.
// Ties are broken by ascending vertex ID, making the order deterministic.
func (g *Graph) TopoSort() ([]int, error) {
	indeg := make(map[int]int, len(g.succ))
	for v := range g.succ {
		indeg[v] = len(g.pred[v])
	}
	var ready []int
	for v, d := range indeg {
		if d == 0 {
			ready = append(ready, v)
		}
	}
	sort.Ints(ready)
	var out []int
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		out = append(out, u)
		var freed []int
		for v := range g.succ[u] {
			indeg[v]--
			if indeg[v] == 0 {
				freed = append(freed, v)
			}
		}
		sort.Ints(freed)
		ready = mergeSorted(ready, freed)
	}
	if len(out) != len(g.succ) {
		return nil, fmt.Errorf("prefgraph: graph has a cycle: %v", g.FindCycle())
	}
	return out, nil
}

func mergeSorted(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// BreakCycles removes a minimal-count heuristic set of edges to restore
// acyclicity, preferring to drop the edges given lower weight (weight is
// the caller's confidence in that preference; unweighted callers can pass
// nil to drop arbitrary cycle edges). It returns the removed edges.
func (g *Graph) BreakCycles(weight func(Edge) float64) []Edge {
	var removed []Edge
	for {
		cycle := g.FindCycle()
		if cycle == nil {
			return removed
		}
		// Pick the lowest-weight edge along the cycle.
		best := Edge{Better: cycle[0], Worse: cycle[1]}
		bestW := edgeWeight(weight, best)
		for i := 1; i < len(cycle)-1; i++ {
			e := Edge{Better: cycle[i], Worse: cycle[i+1]}
			if w := edgeWeight(weight, e); w < bestW {
				best, bestW = e, w
			}
		}
		g.Remove(best.Better, best.Worse)
		removed = append(removed, best)
	}
}

func edgeWeight(weight func(Edge) float64, e Edge) float64 {
	if weight == nil {
		return 0
	}
	return weight(e)
}

// Clone returns a deep copy of the graph, accumulated edge weights
// included.
func (g *Graph) Clone() *Graph {
	c := New()
	for u, ws := range g.succ {
		c.AddVertex(u)
		for w := range ws {
			c.AddVertex(w)
			c.succ[u][w] = true
			c.pred[w][u] = true
			c.n++
		}
	}
	if g.weight != nil {
		c.weight = make(map[Edge]float64, len(g.weight))
		for e, w := range g.weight {
			c.weight[e] = w
		}
	}
	return c
}

// DOT renders the graph in Graphviz DOT syntax. label maps vertex IDs
// to display labels (nil uses the numeric ID). Edges point from the
// preferred scenario to the less-preferred one.
func (g *Graph) DOT(label func(int) string) string {
	if label == nil {
		label = func(v int) string { return fmt.Sprintf("s%d", v) }
	}
	var b strings.Builder
	b.WriteString("digraph preferences {\n  rankdir=TB;\n  node [shape=box];\n")
	for _, v := range g.Vertices() {
		fmt.Fprintf(&b, "  %d [label=%q];\n", v, label(v))
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %d -> %d;\n", e.Better, e.Worse)
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders the edge list, e.g. "{3>1, 3>2, 5>3}".
func (g *Graph) String() string {
	es := g.Edges()
	s := "{"
	for i, e := range es {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%d>%d", e.Better, e.Worse)
	}
	return s + "}"
}
