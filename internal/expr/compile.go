package expr

import (
	"fmt"

	"compsynth/internal/interval"
)

// Program is an expression compiled against fixed variable and hole
// orderings. Evaluation takes positional slices instead of maps, which
// keeps the synthesizer's inner loops allocation-free.
type Program struct {
	expr  Expr
	vars  []string
	holes []string
	tp    *tape // nil when the program is too deep for its fixed stacks
	ft    *flatTape
}

// Compile binds e's variables and holes to positions in the given
// orderings and returns a Program. Every variable and hole occurring in
// e must appear in the respective list; extra names are permitted.
func Compile(e Expr, vars, holes []string) (*Program, error) {
	p := &Program{
		expr:  e,
		vars:  append([]string(nil), vars...),
		holes: append([]string(nil), holes...),
	}
	varIdx := make(map[string]int, len(vars))
	for i, v := range vars {
		if _, dup := varIdx[v]; dup {
			return nil, fmt.Errorf("expr: duplicate variable %q", v)
		}
		varIdx[v] = i
	}
	holeIdx := make(map[string]int, len(holes))
	for i, h := range holes {
		if _, dup := holeIdx[h]; dup {
			return nil, fmt.Errorf("expr: duplicate hole %q", h)
		}
		holeIdx[h] = i
	}
	// One emitter, two lowerings (tape.go): the jump tape for single
	// points, the select-lowered flat tape for lanes of points and boxes.
	jt := &emitter{jumps: true, varIdx: varIdx, holeIdx: holeIdx}
	if err := jt.num(e); err != nil {
		return nil, err
	}
	ft := &emitter{varIdx: varIdx, holeIdx: holeIdx}
	if err := ft.num(e); err != nil {
		return nil, err
	}
	if max(len(jt.code), len(ft.code), len(ft.consts), len(vars), len(holes)) > tapeMaxArg {
		return nil, fmt.Errorf("expr: program exceeds the tape's %d-entry operand range", tapeMaxArg)
	}
	if jt.maxF <= tapeMaxFloat && jt.maxB <= tapeMaxBool {
		p.tp = &tape{code: jt.code, consts: jt.consts}
	}
	p.ft = &flatTape{code: ft.code, consts: ft.consts, maxF: ft.maxF, maxB: ft.maxB}
	p.ft.constsIv = make([]interval.Interval, len(ft.consts))
	for i, c := range ft.consts {
		// Constructed directly rather than via interval.Point: the pool is
		// NaN-free by the invariant constIndex documents, and the interval
		// interpreter must never take a constructor panic path.
		p.ft.constsIv[i] = interval.Interval{Lo: c, Hi: c}
	}
	return p, nil
}

// MustCompile is Compile but panics on error; for package-level sketches
// whose well-formedness is a code invariant.
func MustCompile(e Expr, vars, holes []string) *Program {
	p, err := Compile(e, vars, holes)
	if err != nil {
		panic(err)
	}
	return p
}

// Expr returns the source expression.
func (p *Program) Expr() Expr { return p.expr }

// Vars returns the variable ordering.
func (p *Program) Vars() []string { return append([]string(nil), p.vars...) }

// HoleNames returns the hole ordering.
func (p *Program) HoleNames() []string { return append([]string(nil), p.holes...) }

// NumHoles returns the number of holes in the ordering.
func (p *Program) NumHoles() int { return len(p.holes) }

// NumVars returns the number of variables in the ordering.
func (p *Program) NumVars() int { return len(p.vars) }

// Eval evaluates the program. vars and holes are positional per the
// orderings given to Compile.
func (p *Program) Eval(vars, holes []float64) float64 {
	if p.tp == nil {
		return p.evalDeep(vars, holes)
	}
	return p.tp.eval(vars, holes)
}

// evalDeep evaluates a program too deep for the jump tape's fixed
// stacks as a 1-lane flat batch. Kept out of line so the jump-tape path
// through Eval carries none of its code.
//
//go:noinline
func (p *Program) evalDeep(vars, holes []float64) float64 {
	b := NewPointBatch(len(vars), len(holes), 1)
	b.SetVars(0, vars)
	b.SetHoles(0, holes)
	p.EvalBatch(b, 1)
	return b.Out(0)
}
