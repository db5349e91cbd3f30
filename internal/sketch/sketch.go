// Package sketch implements objective-function sketches: partial
// programs with numeric holes plus bounded domains for each hole,
// following the sketch-based synthesis approach the paper adopts
// (Solar-Lezama et al.) for objective functions.
//
// A Sketch pairs an expression over a metric space with a domain box
// for its holes. A Candidate is a concrete hole assignment; the
// synthesizer searches the hole box for candidates consistent with the
// user's preferences.
package sketch

import (
	"fmt"
	"math"
	"strings"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
	"compsynth/internal/scenario"
)

// Sketch is an objective-function template over a metric space.
type Sketch struct {
	name    string
	body    expr.Expr
	prog    *expr.Program
	space   *scenario.Space
	holes   []string
	domains []interval.Interval
}

// New builds a sketch from an expression body. Every variable of the
// body must be a metric of the space; every hole must have a bounded
// non-empty domain.
func New(name string, body expr.Expr, space *scenario.Space, domains map[string]interval.Interval) (*Sketch, error) {
	if name == "" {
		return nil, fmt.Errorf("sketch: empty name")
	}
	for _, v := range expr.Vars(body) {
		if _, ok := space.Index(v); !ok {
			return nil, fmt.Errorf("sketch: variable %q is not a metric of the space", v)
		}
	}
	holes := expr.Holes(body)
	ds := make([]interval.Interval, len(holes))
	for i, h := range holes {
		d, ok := domains[h]
		if !ok {
			return nil, fmt.Errorf("sketch: no domain for hole %q", h)
		}
		if d.IsEmpty() || math.IsInf(d.Lo, 0) || math.IsInf(d.Hi, 0) {
			return nil, fmt.Errorf("sketch: hole %q has invalid domain %v", h, d)
		}
		ds[i] = d
	}
	for h := range domains {
		if !contains(holes, h) {
			return nil, fmt.Errorf("sketch: domain given for unknown hole %q", h)
		}
	}
	prog, err := expr.Compile(body, space.Names(), holes)
	if err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	return &Sketch{
		name:    name,
		body:    body,
		prog:    prog,
		space:   space,
		holes:   holes,
		domains: ds,
	}, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// MustNew is New but panics on error.
func MustNew(name string, body expr.Expr, space *scenario.Space, domains map[string]interval.Interval) *Sketch {
	s, err := New(name, body, space, domains)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the sketch name.
func (s *Sketch) Name() string { return s.name }

// Body returns the sketch expression.
func (s *Sketch) Body() expr.Expr { return s.body }

// Space returns the metric space.
func (s *Sketch) Space() *scenario.Space { return s.space }

// Holes returns the hole names in canonical (sorted) order; hole
// vectors everywhere in this project are positional per this order.
func (s *Sketch) Holes() []string { return append([]string(nil), s.holes...) }

// NumHoles returns the dimensionality of the hole box.
func (s *Sketch) NumHoles() int { return len(s.holes) }

// Domains returns the hole domain box in hole order.
func (s *Sketch) Domains() []interval.Interval {
	return append([]interval.Interval(nil), s.domains...)
}

// Domain returns the domain of hole i.
func (s *Sketch) Domain(i int) interval.Interval { return s.domains[i] }

// InDomain reports whether the hole vector lies inside the domain box.
func (s *Sketch) InDomain(holes []float64) bool {
	if len(holes) != len(s.domains) {
		return false
	}
	for i, v := range holes {
		if !s.domains[i].Contains(v) {
			return false
		}
	}
	return true
}

// Eval evaluates the sketch at a scenario under a hole assignment.
func (s *Sketch) Eval(sc scenario.Scenario, holes []float64) float64 {
	return s.prog.Eval(sc, holes)
}

// Program returns the compiled body Eval runs: variables in
// Space().Names() order, holes in Holes() order. Batched callers
// evaluate it over many scenarios or hole vectors at once
// (expr.ScenarioBatch) or over a hole box (expr.ScenarioBoxBatch).
func (s *Sketch) Program() *expr.Program { return s.prog }

// Candidate returns the candidate for the given hole vector. The vector
// is copied.
func (s *Sketch) Candidate(holes []float64) (*Candidate, error) {
	if len(holes) != len(s.holes) {
		return nil, fmt.Errorf("sketch: candidate has %d holes, sketch needs %d", len(holes), len(s.holes))
	}
	if !s.InDomain(holes) {
		return nil, fmt.Errorf("sketch: candidate %v outside domain box", holes)
	}
	return &Candidate{sketch: s, holes: append([]float64(nil), holes...)}, nil
}

// MustCandidate is Candidate but panics on error.
func (s *Sketch) MustCandidate(holes []float64) *Candidate {
	c, err := s.Candidate(holes)
	if err != nil {
		panic(err)
	}
	return c
}

// Candidate is a concrete objective function: a sketch plus a hole
// assignment.
type Candidate struct {
	sketch *Sketch
	holes  []float64
}

// Sketch returns the owning sketch.
func (c *Candidate) Sketch() *Sketch { return c.sketch }

// Holes returns the hole vector (copy).
func (c *Candidate) Holes() []float64 { return append([]float64(nil), c.holes...) }

// Eval evaluates the objective at a scenario.
func (c *Candidate) Eval(sc scenario.Scenario) float64 {
	return c.sketch.prog.Eval(sc, c.holes)
}

// Prefers reports whether the candidate scores a strictly higher than b.
func (c *Candidate) Prefers(a, b scenario.Scenario) bool {
	return c.Eval(a) > c.Eval(b)
}

// Assignment returns the hole assignment as a map.
func (c *Candidate) Assignment() map[string]float64 {
	m := make(map[string]float64, len(c.holes))
	for i, h := range c.sketch.holes {
		m[h] = c.holes[i]
	}
	return m
}

// Concretize returns the candidate as a closed expression (holes
// substituted by their values).
func (c *Candidate) Concretize() expr.Expr {
	return expr.Subst(c.sketch.body, c.Assignment())
}

// String renders the hole assignment, e.g. "swan{l_thrsh=50, slope1=1}".
func (c *Candidate) String() string {
	var b strings.Builder
	b.WriteString(c.sketch.name)
	b.WriteByte('{')
	for i, h := range c.sketch.holes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%.4g", h, c.holes[i])
	}
	b.WriteByte('}')
	return b.String()
}

// SWANHoles are the hole names of the SWAN sketch in canonical order.
var SWANHoles = []string{"l_thrsh", "slope1", "slope2", "tp_thrsh"}

// SWAN returns the paper's Figure 2a sketch over the SWAN metric space:
//
//	objective_func(throughput, latency) =
//	    if throughput >= ??tp_thrsh && latency <= ??l_thrsh then
//	        throughput - ??slope1*throughput*latency + 1000
//	    else
//	        throughput - ??slope2*throughput*latency
//
// Hole domains follow the paper's experimental setup: thresholds range
// over the metric ranges; slopes over [0, 10].
func SWAN() *Sketch {
	body := expr.MustParse(`
		if throughput >= ??tp_thrsh && latency <= ??l_thrsh then
			throughput - ??slope1*throughput*latency + 1000
		else
			throughput - ??slope2*throughput*latency`)
	return MustNew("swan", body, scenario.SWANSpace(), map[string]interval.Interval{
		"tp_thrsh": interval.New(0, 10),
		"l_thrsh":  interval.New(0, 200),
		"slope1":   interval.New(0, 10),
		"slope2":   interval.New(0, 10),
	})
}

// SWANTargetParams are the concrete hole values of a SWAN-style target
// function (paper Figure 2b uses TpThrsh=1, LThrsh=50, Slope1=1,
// Slope2=5).
type SWANTargetParams struct {
	TpThrsh, LThrsh, Slope1, Slope2 float64
}

// DefaultSWANTarget is the paper's Figure 2b ground truth.
var DefaultSWANTarget = SWANTargetParams{TpThrsh: 1, LThrsh: 50, Slope1: 1, Slope2: 5}

// Candidate materializes the params as a candidate of sk (which must be
// the SWAN sketch or share its hole names).
func (p SWANTargetParams) Candidate(sk *Sketch) (*Candidate, error) {
	m := map[string]float64{
		"tp_thrsh": p.TpThrsh, "l_thrsh": p.LThrsh,
		"slope1": p.Slope1, "slope2": p.Slope2,
	}
	holes := make([]float64, sk.NumHoles())
	for i, h := range sk.Holes() {
		v, ok := m[h]
		if !ok {
			return nil, fmt.Errorf("sketch: %q is not a SWAN hole", h)
		}
		holes[i] = v
	}
	return sk.Candidate(holes)
}

// MultiRegion generalizes the SWAN sketch to n nested quality regions
// (paper §4.1: "it can be generalized to support multiple regions").
// Region i (1-based, most preferred first) applies while
// throughput >= ??tp_thrsh_i && latency <= ??l_thrsh_i, awards a bonus
// of (n-i)*1000, and uses its own slope ??slope_i; the final else branch
// uses ??slope_n+1 with no bonus.
func MultiRegion(n int) (*Sketch, error) {
	if n < 1 {
		return nil, fmt.Errorf("sketch: MultiRegion needs n >= 1")
	}
	space := scenario.SWANSpace()
	domains := map[string]interval.Interval{}
	// Build from the innermost else outward.
	last := fmt.Sprintf("slope_%d", n+1)
	body := expr.Sub(expr.V("throughput"),
		expr.Mul(expr.Mul(expr.H(last), expr.V("throughput")), expr.V("latency")))
	domains[last] = interval.New(0, 10)
	for i := n; i >= 1; i-- {
		tp := fmt.Sprintf("tp_thrsh_%d", i)
		lt := fmt.Sprintf("l_thrsh_%d", i)
		sl := fmt.Sprintf("slope_%d", i)
		domains[tp] = interval.New(0, 10)
		domains[lt] = interval.New(0, 200)
		domains[sl] = interval.New(0, 10)
		bonus := float64(n-i+1) * 1000
		then := expr.Add(
			expr.Sub(expr.V("throughput"),
				expr.Mul(expr.Mul(expr.H(sl), expr.V("throughput")), expr.V("latency"))),
			expr.C(bonus))
		cond := expr.And(
			expr.GE(expr.V("throughput"), expr.H(tp)),
			expr.LE(expr.V("latency"), expr.H(lt)))
		body = expr.Ite(cond, then, body)
	}
	return New(fmt.Sprintf("swan-%dregion", n), body, space, domains)
}

// WeightedSum returns a linear sketch Σ sign_i * ??w_i * metric_i over
// the given space. signs[i] = +1 rewards the metric, -1 penalizes it
// (e.g. +bitrate, -rebuffering for ABR QoE). Weights range over
// weightDomain.
func WeightedSum(name string, space *scenario.Space, signs []float64, weightDomain interval.Interval) (*Sketch, error) {
	if len(signs) != space.Dim() {
		return nil, fmt.Errorf("sketch: %d signs for %d metrics", len(signs), space.Dim())
	}
	domains := map[string]interval.Interval{}
	var body expr.Expr
	for i, m := range space.Names() {
		w := "w_" + m
		domains[w] = weightDomain
		term := expr.Mul(expr.H(w), expr.V(m))
		if signs[i] < 0 {
			term = expr.Neg{X: term}
		}
		if body == nil {
			body = term
		} else {
			body = expr.Add(body, term)
		}
	}
	return New(name, body, space, domains)
}
