package expr

import (
	"fmt"
	"sync"
)

// Program is an expression compiled against fixed variable and hole
// orderings. Evaluation takes positional slices instead of maps, which
// keeps the synthesizer's inner loops allocation-free.
type Program struct {
	expr  Expr
	vars  []string
	holes []string
	tape  *tape

	// reg is the tape's register form for scenario batches, derived on
	// first use (see regs).
	regOnce sync.Once
	reg     *regPlan
	// points holds the 1-lane scenario batches Eval runs on.
	points sync.Pool
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
	em := &emitter{varIdx: varIdx, holeIdx: holeIdx}
	if err := em.num(e); err != nil {
		return nil, err
	}
	// Operands index the constant pool and the variable and hole slots.
	if max(len(em.consts), len(vars), len(holes)) > tapeMaxArg {
		return nil, fmt.Errorf("expr: program exceeds the tape's %d-entry operand range", tapeMaxArg)
	}
	p.tape = &tape{code: em.code, consts: em.consts}
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

// Eval evaluates the program at one point. vars and holes are
// positional per the orderings given to Compile: Eval reads exactly
// NumVars variables (a longer vector's tail is ignored, a shorter one
// panics) and the holes the program reads. Eval runs a 1-lane scenario
// batch from a pool the Program holds, so a warm call allocates nothing
// and concurrent calls never share a batch; Eval is safe for concurrent
// use.
func (p *Program) Eval(vars, holes []float64) float64 {
	b, _ := p.points.Get().(*ScenarioBatch)
	if b == nil {
		b = NewScenarioBatch(p, 1)
	}
	b.SetVars(0, vars)
	out := b.Eval(holes, 1)[0]
	p.points.Put(b)
	return out
}
