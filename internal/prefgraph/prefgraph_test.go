package prefgraph

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestAddAndQuery(t *testing.T) {
	g := New()
	if err := g.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(2, 3); err != nil {
		t.Fatal(err)
	}
	if !g.Has(1, 2) || g.Has(2, 1) {
		t.Error("direct edge query wrong")
	}
	if !g.Prefers(1, 3) {
		t.Error("transitive preference 1>3 not derived")
	}
	if g.Prefers(3, 1) {
		t.Error("reverse preference derived")
	}
	if g.Prefers(1, 1) {
		t.Error("self preference")
	}
	if !g.Comparable(1, 3) || g.Comparable(1, 4) {
		t.Error("Comparable wrong")
	}
	if g.NumEdges() != 2 || g.NumVertices() != 3 {
		t.Errorf("counts = %d edges, %d vertices", g.NumEdges(), g.NumVertices())
	}
}

func TestAddDuplicateIsNoop(t *testing.T) {
	g := New()
	if err := g.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.Add(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("duplicate edge counted: %d", g.NumEdges())
	}
}

func TestAddSelfErrors(t *testing.T) {
	g := New()
	if err := g.Add(1, 1); err == nil {
		t.Error("self edge accepted")
	}
}

func TestCycleRejected(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 3)
	err := g.Add(3, 1)
	var ec ErrCycle
	if !errors.As(err, &ec) {
		t.Fatalf("cycle not rejected: %v", err)
	}
	if ec.Better != 3 || ec.Worse != 1 {
		t.Errorf("ErrCycle endpoints %d,%d", ec.Better, ec.Worse)
	}
	// Witness path goes from worse=1 to better=3.
	if len(ec.Path) < 2 || ec.Path[0] != 1 || ec.Path[len(ec.Path)-1] != 3 {
		t.Errorf("witness path %v", ec.Path)
	}
	// Graph unchanged.
	if g.NumEdges() != 2 {
		t.Errorf("failed Add mutated graph: %d edges", g.NumEdges())
	}
	if g.FindCycle() != nil {
		t.Error("graph has cycle after rejected Add")
	}
}

func TestDirectReverseRejected(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	if err := g.Add(2, 1); err == nil {
		t.Error("direct contradiction accepted")
	}
}

func TestRemove(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	if !g.Remove(1, 2) {
		t.Error("Remove existing returned false")
	}
	if g.Remove(1, 2) {
		t.Error("Remove missing returned true")
	}
	if g.NumEdges() != 0 {
		t.Errorf("edges after remove = %d", g.NumEdges())
	}
	// After removal the reverse edge becomes legal.
	if err := g.Add(2, 1); err != nil {
		t.Errorf("reverse add after removal failed: %v", err)
	}
}

func TestForceAddAndFindCycle(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 3)
	if ok := g.ForceAdd(3, 1); ok {
		t.Error("ForceAdd creating cycle reported acyclic")
	}
	cycle := g.FindCycle()
	if cycle == nil {
		t.Fatal("cycle not found after ForceAdd")
	}
	if cycle[0] != cycle[len(cycle)-1] {
		t.Errorf("cycle not closed: %v", cycle)
	}
	seen := map[int]bool{}
	for _, v := range cycle[:len(cycle)-1] {
		if seen[v] {
			t.Errorf("cycle revisits %d: %v", v, cycle)
		}
		seen[v] = true
	}
	// All cycle edges must exist.
	for i := 0; i+1 < len(cycle); i++ {
		if !g.Has(cycle[i], cycle[i+1]) {
			t.Errorf("cycle edge %d->%d missing", cycle[i], cycle[i+1])
		}
	}
}

func TestForceAddSelfRejected(t *testing.T) {
	g := New()
	if g.ForceAdd(1, 1) {
		t.Error("self ForceAdd returned acyclic=true after adding nothing is fine, but edge must not exist")
	}
	if g.Has(1, 1) {
		t.Error("self edge added")
	}
}

func TestBreakCyclesRestoresDAG(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 3)
	g.ForceAdd(3, 1)
	removed := g.BreakCycles(nil)
	if len(removed) == 0 {
		t.Fatal("no edges removed")
	}
	if g.FindCycle() != nil {
		t.Error("cycle remains after BreakCycles")
	}
}

func TestBreakCyclesPrefersLowWeight(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 3)
	g.ForceAdd(3, 1) // the noisy edge
	weight := func(e Edge) float64 {
		if e.Better == 3 && e.Worse == 1 {
			return 0.1 // low confidence
		}
		return 1.0
	}
	removed := g.BreakCycles(weight)
	if len(removed) != 1 || removed[0] != (Edge{Better: 3, Worse: 1}) {
		t.Errorf("removed %v, want the low-confidence edge", removed)
	}
	if !g.Has(1, 2) || !g.Has(2, 3) {
		t.Error("high-confidence edges removed")
	}
}

func TestTopoSort(t *testing.T) {
	g := New()
	mustAdd(t, g, 5, 3)
	mustAdd(t, g, 3, 1)
	mustAdd(t, g, 5, 4)
	mustAdd(t, g, 4, 1)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int]int{}
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Better] > pos[e.Worse] {
			t.Errorf("topo order violates %d>%d: %v", e.Better, e.Worse, order)
		}
	}
	// Deterministic: run again, same order.
	order2, _ := g.TopoSort()
	for i := range order {
		if order[i] != order2[i] {
			t.Fatalf("TopoSort not deterministic: %v vs %v", order, order2)
		}
	}
}

func TestTopoSortCycleError(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	g.ForceAdd(2, 1)
	if _, err := g.TopoSort(); err == nil {
		t.Error("TopoSort on cyclic graph succeeded")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	c := g.Clone()
	mustAdd(t, c, 2, 3)
	if g.NumEdges() != 1 {
		t.Error("clone mutation leaked to original")
	}
	if c.NumEdges() != 2 {
		t.Error("clone missing edges")
	}
	if !c.Has(1, 2) {
		t.Error("clone lost original edge")
	}
}

func TestVerticesAndString(t *testing.T) {
	g := New()
	mustAdd(t, g, 3, 1)
	g.AddVertex(7)
	vs := g.Vertices()
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 3 || vs[2] != 7 {
		t.Errorf("Vertices = %v", vs)
	}
	if s := g.String(); s != "{3>1}" {
		t.Errorf("String = %q", s)
	}
}

// Property: random DAG insertion order never yields a cycle, and
// Prefers is consistent with the edge-insertion partial order.
func TestPropRandomDAGStaysAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		g := New()
		n := 2 + rng.Intn(20)
		// Random true order: vertex i preferred over j iff perm[i] < perm[j].
		perm := rng.Perm(n)
		rank := make([]int, n)
		for i, p := range perm {
			rank[p] = i
		}
		for k := 0; k < 4*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			if rank[i] > rank[j] {
				i, j = j, i
			}
			if err := g.Add(i, j); err != nil {
				t.Fatalf("consistent edge rejected: %v", err)
			}
		}
		if g.FindCycle() != nil {
			t.Fatal("consistent insertions produced a cycle")
		}
		if _, err := g.TopoSort(); err != nil {
			t.Fatalf("TopoSort failed on DAG: %v", err)
		}
		// Prefers must agree with the true order.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if g.Prefers(a, b) && rank[a] > rank[b] {
					t.Fatalf("derived preference %d>%d contradicts true order", a, b)
				}
			}
		}
	}
}

// Property: BreakCycles always restores acyclicity on random noisy graphs.
func TestPropBreakCyclesAlwaysRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		g := New()
		n := 3 + rng.Intn(10)
		for k := 0; k < 4*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				g.ForceAdd(i, j)
			}
		}
		g.BreakCycles(func(e Edge) float64 { return rng.Float64() })
		if g.FindCycle() != nil {
			t.Fatal("cycle remains")
		}
	}
}

func mustAdd(t *testing.T, g *Graph, better, worse int) {
	t.Helper()
	if err := g.Add(better, worse); err != nil {
		t.Fatal(err)
	}
}

func TestDOT(t *testing.T) {
	g := New()
	mustAdd(t, g, 1, 2)
	mustAdd(t, g, 2, 3)
	out := g.DOT(nil)
	for _, frag := range []string{"digraph preferences", "1 -> 2", "2 -> 3", `label="s1"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("DOT missing %q:\n%s", frag, out)
		}
	}
	labeled := g.DOT(func(v int) string { return fmt.Sprintf("node-%d", v) })
	if !strings.Contains(labeled, `label="node-2"`) {
		t.Errorf("custom label missing:\n%s", labeled)
	}
}
