package te

import (
	"fmt"
	"math"
	"sort"

	"compsynth/internal/lp"
	"compsynth/internal/sketch"
	"compsynth/internal/topo"
)

// AlphaFair maximizes the α-fair utility Σ_f U_α(b_f), the family the
// paper mentions as an alternative architects struggle to choose among
// (α→0: throughput; α=1: proportional fairness; α→∞: max-min). The
// concave utilities are approximated piecewise-linearly with the given
// number of segments per flow, which is exact in the limit and
// typically within 1% for 8+ segments.
func (n *Network) AlphaFair(alpha float64, segments int) (*Allocation, error) {
	if alpha < 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return nil, fmt.Errorf("te: invalid alpha %v", alpha)
	}
	if segments < 1 {
		return nil, fmt.Errorf("te: segments = %d", segments)
	}
	// Utility derivative u'(x) = x^(−α); slopes are evaluated at segment
	// midpoints. Concavity means the LP fills segments in order without
	// extra constraints.
	l := n.layout()
	// Variables: per (flow, tunnel) rates, then per (flow, segment)
	// utility pieces y_{f,s} with Σ_s y_{f,s} = b_f.
	segVar := func(f, s int) int { return l.total + f*segments + s }
	totalVars := l.total + len(n.Flows)*segments
	p := lp.Problem{NumVars: totalVars, Objective: make([]float64, totalVars)}
	for f := range n.Flows {
		segWidth := n.Flows[f].Demand / float64(segments)
		for s := 0; s < segments; s++ {
			mid := (float64(s) + 0.5) * segWidth
			slope := math.Pow(mid, -alpha)
			// Cap the first segment's slope to keep the LP well-scaled.
			if slope > 1e6 {
				slope = 1e6
			}
			p.Objective[segVar(f, s)] = slope
			// y_{f,s} ≤ segWidth.
			row := make([]float64, totalVars)
			row[segVar(f, s)] = 1
			p.AddConstraint(row, lp.LE, segWidth)
		}
		// Σ_t x_{f,t} − Σ_s y_{f,s} = 0 links rates to utility pieces.
		row := make([]float64, totalVars)
		for t := range n.Tunnels[f] {
			row[l.offset[f]+t] = 1
		}
		for s := 0; s < segments; s++ {
			row[segVar(f, s)] = -1
		}
		p.AddConstraint(row, lp.EQ, 0)
		// Demand cap.
		drow := make([]float64, totalVars)
		for t := range n.Tunnels[f] {
			drow[l.offset[f]+t] = 1
		}
		p.AddConstraint(drow, lp.LE, n.Flows[f].Demand)
	}
	n.addCapacityConstraints(&p, l, totalVars-l.total)
	sol, err := lp.Solve(p)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("te: alpha-fair LP %v", sol.Status)
	}
	return n.extractAllocation(sol.X, l), nil
}

// Scheme names an allocation policy for design enumeration.
type Scheme struct {
	// Name identifies the design (e.g. "swan ε=0.001", "max-min").
	Name string
	// Run computes the allocation.
	Run func(n *Network) (*Allocation, error)
}

// DesignPoint is an evaluated design: the allocation plus its scenario
// metrics and objective score.
type DesignPoint struct {
	Name  string
	Alloc *Allocation
	// Throughput and Latency are the scenario metrics.
	Throughput, Latency float64
	// Score is the objective value (set by SelectDesign).
	Score float64
}

// StandardSchemes returns the design space the tedemo binary and the
// swan-te example sweep: SWAN max-throughput at several ε values, plain
// and weighted max-min fairness, balanced allocations at several qf,
// and proportional fairness.
func StandardSchemes(epsilons []float64, qfs []float64) []Scheme {
	var out []Scheme
	for _, eps := range epsilons {
		e := eps
		out = append(out, Scheme{
			Name: fmt.Sprintf("swan ε=%g", e),
			Run:  func(n *Network) (*Allocation, error) { return n.MaxThroughput(e) },
		})
	}
	out = append(out, Scheme{
		Name: "max-min",
		Run:  func(n *Network) (*Allocation, error) { return n.MaxMinFair() },
	})
	for _, qf := range qfs {
		q := qf
		out = append(out, Scheme{
			Name: fmt.Sprintf("balanced qf=%g", q),
			Run: func(n *Network) (*Allocation, error) {
				a, _, err := n.Balanced(q)
				return a, err
			},
		})
	}
	out = append(out, Scheme{
		Name: "proportional-fair",
		Run:  func(n *Network) (*Allocation, error) { return n.AlphaFair(1, 8) },
	})
	return out
}

// Evaluate runs every scheme and returns its design point (unscored).
func Evaluate(n *Network, schemes []Scheme) ([]DesignPoint, error) {
	out := make([]DesignPoint, 0, len(schemes))
	for _, s := range schemes {
		alloc, err := s.Run(n)
		if err != nil {
			return nil, fmt.Errorf("te: scheme %q: %w", s.Name, err)
		}
		out = append(out, DesignPoint{
			Name:       s.Name,
			Alloc:      alloc,
			Throughput: alloc.Throughput(),
			Latency:    alloc.AvgLatency(n),
		})
	}
	return out, nil
}

// SelectDesign scores design points under a synthesized objective and
// returns them sorted best-first — the paper's §6.1 strategy of
// generating multiple good designs and picking one by the learned
// objective. The scenario fed to the objective is (throughput, latency).
func SelectDesign(points []DesignPoint, objective *sketch.Candidate) []DesignPoint {
	scored := append([]DesignPoint(nil), points...)
	for i := range scored {
		sc := clampScenario(objective, scored[i].Throughput, scored[i].Latency)
		scored[i].Score = objective.Eval(sc)
	}
	sort.SliceStable(scored, func(i, j int) bool { return scored[i].Score > scored[j].Score })
	return scored
}

// clampScenario clips design metrics into the objective's metric box so
// that out-of-range designs (e.g. throughput beyond the sketch's
// assumed maximum) still get a well-defined score.
func clampScenario(objective *sketch.Candidate, throughput, latency float64) []float64 {
	space := objective.Sketch().Space()
	return space.Clamp([]float64{throughput, latency})
}

// OptimizeEpsilon searches SWAN's ε knob for the value whose
// allocation the objective scores highest — golden-section search over
// [0, maxEps] refined to tol, falling back to the better endpoint. This
// is the paper's punchline for the motivating example: the knob the
// architect could not set by hand (§2) is set by optimizing the learned
// objective. The objective landscape over ε is piecewise constant (LP
// bases switch at discrete ε), so the search also probes a coarse grid
// first and then refines the best bracket.
func OptimizeEpsilon(n *Network, objective *sketch.Candidate, maxEps, tol float64) (bestEps float64, best DesignPoint, err error) {
	if maxEps <= 0 {
		return 0, DesignPoint{}, fmt.Errorf("te: maxEps = %v", maxEps)
	}
	if tol <= 0 {
		tol = maxEps / 1000
	}
	score := func(eps float64) (DesignPoint, error) {
		alloc, err := n.MaxThroughput(eps)
		if err != nil {
			return DesignPoint{}, err
		}
		p := DesignPoint{
			Name:       fmt.Sprintf("swan ε=%g", eps),
			Alloc:      alloc,
			Throughput: alloc.Throughput(),
			Latency:    alloc.AvgLatency(n),
		}
		p.Score = objective.Eval(clampScenario(objective, p.Throughput, p.Latency))
		return p, nil
	}

	// Coarse grid pass brackets the best region.
	const gridN = 16
	bestEps, best = 0, DesignPoint{Score: math.Inf(-1)}
	for i := 0; i <= gridN; i++ {
		eps := maxEps * float64(i) / gridN
		p, err := score(eps)
		if err != nil {
			return 0, DesignPoint{}, err
		}
		if p.Score > best.Score {
			bestEps, best = eps, p
		}
	}
	// Golden-section refinement inside the bracket around the grid best.
	lo := math.Max(0, bestEps-maxEps/gridN)
	hi := math.Min(maxEps, bestEps+maxEps/gridN)
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	p1, err := score(x1)
	if err != nil {
		return 0, DesignPoint{}, err
	}
	p2, err := score(x2)
	if err != nil {
		return 0, DesignPoint{}, err
	}
	for hi-lo > tol {
		if p1.Score >= p2.Score {
			hi, x2, p2 = x2, x1, p1
			x1 = hi - phi*(hi-lo)
			if p1, err = score(x1); err != nil {
				return 0, DesignPoint{}, err
			}
		} else {
			lo, x1, p1 = x1, x2, p2
			x2 = lo + phi*(hi-lo)
			if p2, err = score(x2); err != nil {
				return 0, DesignPoint{}, err
			}
		}
	}
	for _, cand := range []struct {
		eps float64
		p   DesignPoint
	}{{x1, p1}, {x2, p2}} {
		if cand.p.Score > best.Score {
			bestEps, best = cand.eps, cand.p
		}
	}
	return bestEps, best, nil
}

// PriorityAllocate implements SWAN's multi-class allocation: classes
// are served in strict priority order (class 0 first), each class
// allocated with the given scheme on the capacity left over by higher
// classes. It returns the combined allocation over all flows.
func (n *Network) PriorityAllocate(run func(sub *Network) (*Allocation, error)) (*Allocation, error) {
	classes := map[int][]int{} // class -> flow indices
	for i, f := range n.Flows {
		classes[f.Class] = append(classes[f.Class], i)
	}
	order := make([]int, 0, len(classes))
	for c := range classes {
		order = append(order, c)
	}
	sort.Ints(order)

	residual := make([]float64, n.Graph.NumLinks())
	for i := 0; i < n.Graph.NumLinks(); i++ {
		residual[i] = n.Graph.Link(i).Capacity
	}

	combined := &Allocation{
		FlowRate:   make([]float64, len(n.Flows)),
		TunnelRate: make([][]float64, len(n.Flows)),
	}
	for i := range n.Flows {
		combined.TunnelRate[i] = make([]float64, len(n.Tunnels[i]))
	}

	for _, class := range order {
		idxs := classes[class]
		sub, err := n.subNetwork(idxs, residual)
		if err != nil {
			return nil, err
		}
		alloc, err := run(sub)
		if err != nil {
			return nil, fmt.Errorf("te: class %d: %w", class, err)
		}
		for si, fi := range idxs {
			combined.FlowRate[fi] = alloc.FlowRate[si]
			copy(combined.TunnelRate[fi], alloc.TunnelRate[si])
			// Consume residual capacity.
			for t, r := range alloc.TunnelRate[si] {
				for _, li := range n.Tunnels[fi][t].LinkIdx {
					residual[li] -= r
					if residual[li] < 0 {
						residual[li] = 0
					}
				}
			}
		}
	}
	return combined, nil
}

// subNetwork builds a Network over a subset of flows with the residual
// link capacities, keeping the parent's tunnels (so tunnel indices
// align with the flow subset).
func (n *Network) subNetwork(flowIdx []int, residual []float64) (*Network, error) {
	g := cloneWithCapacities(n.Graph, residual)
	sub := &Network{Graph: g}
	for _, fi := range flowIdx {
		sub.Flows = append(sub.Flows, n.Flows[fi])
		sub.Tunnels = append(sub.Tunnels, n.Tunnels[fi])
	}
	return sub, nil
}

// cloneWithCapacities copies a graph, replacing link capacities. Links
// whose residual hits zero keep a tiny capacity so LPs remain feasible
// (the allocation over them is forced to ~0).
func cloneWithCapacities(g *topo.Graph, caps []float64) *topo.Graph {
	names := make([]string, g.NumNodes())
	for i := range names {
		names[i] = g.NodeName(i)
	}
	out := topo.MustNewGraph(names)
	for i := 0; i < g.NumLinks(); i++ {
		l := g.Link(i)
		c := caps[i]
		if c <= 0 {
			c = 1e-9
		}
		if _, err := out.AddLink(l.From, l.To, c, l.Latency); err != nil {
			panic(err) // cloning a valid graph cannot fail
		}
	}
	return out
}
