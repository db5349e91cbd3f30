package sketch

import (
	"compsynth/internal/expr"
	"compsynth/internal/scenario"
)

// Scenario specialization: the solver's sweeps evaluate a sketch
// thousands of times at the same scenario with different hole vectors
// or boxes (every sampled point, branch-and-prune box and floor corner,
// for every preference edge). Specialize partial-evaluates the scenario
// into the body (expr.Partial) and compiles the resulting hole-only
// program, so those evaluations skip the scenario binding and the
// scenario-dependent subexpressions entirely. (The solver's point
// checks — one hole vector against every constraint, as in each repair
// step — take the other route: one pass of the unspecialized body with
// the constraint scenarios as lanes.) Specialized programs are
// bit-exact stand-ins for evaluating the sketch at that scenario —
// expr.Partial guarantees it — which is what keeps synthesis
// transcripts identical when the solver switches to them.
//
// Every call compiles afresh. The solver compiles each constraint once,
// when the constraint is added, and keeps the program for the
// constraint's lifetime, so there is nothing for a cache here to reuse.

// Specialize returns the hole-only program for the sketch body at the
// given scenario. The returned program takes (nil, holes) positional
// arguments with holes in Sketch.Holes order, and its point and
// interval evaluation agree bit-exactly with evaluating the sketch at
// that scenario.
func (s *Sketch) Specialize(sc scenario.Scenario) *expr.Program {
	vars := make(map[string]float64, len(sc))
	for i, name := range s.space.Names() {
		vars[name] = sc[i]
	}
	// New validated every body variable against the space, so the
	// partial body is hole-only and compilation cannot fail.
	return expr.MustCompile(expr.Partial(s.body, vars), nil, s.holes)
}

// SpecializeDiff returns a compiled program computing f(a) − f(b) over
// the hole-only specializations of the two scenarios. Preference
// constraints are differences by construction, so the solver evaluates
// one fused program per constraint. Fusing is bit-exact with evaluating
// the sides separately and subtracting: the same float operations run
// in the same order, and interval Sub is exactly the Bin/OpSub
// semantics.
func (s *Sketch) SpecializeDiff(a, b scenario.Scenario) *expr.Program {
	// Both sides compiled against the hole ordering already, so the
	// fused body cannot fail to compile.
	body := expr.Bin{Op: expr.OpSub, L: s.Specialize(a).Expr(), R: s.Specialize(b).Expr()}
	return expr.MustCompile(body, nil, s.holes)
}
