// The race detector makes sync.Pool drop items at random, so the
// allocation counts below only hold without it.

//go:build !race

package expr

import "testing"

// TestProgramEvalAllocFree pins that a warm Program.Eval allocates
// nothing: every call borrows a pooled 1-lane batch, deep programs
// included.
func TestProgramEvalAllocFree(t *testing.T) {
	for _, c := range []struct {
		name        string
		prog        *Program
		vars, holes []float64
	}{
		{"swan", MustCompile(swanBody(), swanVars, swanHoles), []float64{5, 60}, []float64{1, 50, 1, 5}},
		{"subChain(20)", MustCompile(subChain(20), fuzzVars, fuzzHoles), []float64{1, 2, 3}, []float64{0.5, -1}},
	} {
		c.prog.Eval(c.vars, c.holes) // warm
		if a := testing.AllocsPerRun(200, func() { c.prog.Eval(c.vars, c.holes) }); a != 0 {
			t.Errorf("%s: warm Eval allocates %.0f times per call", c.name, a)
		}
	}
}

// TestScenarioMoveAllocFree pins that a warm scenario batch's Move and
// Commit allocate nothing.
func TestScenarioMoveAllocFree(t *testing.T) {
	sb := NewScenarioBatch(MustCompile(swanBody(), swanVars, swanHoles), 64)
	for l := 0; l < 40; l++ {
		sb.SetVars(l, []float64{float64(l % 10), float64(5 * l)})
	}
	sb.Eval([]float64{1, 50, 1, 5}, 40)
	v := 0.0
	for name, fn := range map[string]func(){
		"Move":   func() { sb.Move(int(v)%4, v) },
		"Commit": func() { sb.Commit(int(v)%4, v) },
	} {
		fn() // warm
		if a := testing.AllocsPerRun(200, func() { fn(); v++ }); a != 0 {
			t.Errorf("warm %s allocates %.0f times per call", name, a)
		}
	}
}
