package expr

import (
	"math"
	"math/rand"
	"testing"
)

// twoRegionVars and twoRegionHoles order twoRegionBody, the body of
// sketch.MultiRegion(2) (rebuilt here: the sketch package imports this
// one).
var (
	twoRegionVars  = []string{"throughput", "latency"}
	twoRegionHoles = []string{"l_thrsh_1", "l_thrsh_2", "slope_1", "slope_2", "slope_3", "tp_thrsh_1", "tp_thrsh_2"}
)

// twoRegionBody nests two SWAN quality regions: region i applies while
// throughput >= ??tp_thrsh_i && latency <= ??l_thrsh_i, with its own
// slope and a bonus of (3-i)*1000, and ??slope_3 prices the rest.
func twoRegionBody() Expr {
	body := Sub(V("throughput"), Mul(Mul(H("slope_3"), V("throughput")), V("latency")))
	for i := 2; i >= 1; i-- {
		tp, lt, sl := H("tp_thrsh_"+string(rune('0'+i))), H("l_thrsh_"+string(rune('0'+i))), H("slope_"+string(rune('0'+i)))
		then := Add(Sub(V("throughput"), Mul(Mul(sl, V("throughput")), V("latency"))), C(float64(3-i)*1000))
		body = Ite(And(GE(V("throughput"), tp), LE(V("latency"), lt)), then, body)
	}
	return body
}

// moveCase is one program the move tests run: vars and holes order it,
// and draw returns a variable or hole value.
type moveCase struct {
	name        string
	e           Expr
	vars, holes []string
	draw        func(rng *rand.Rand) float64
}

func moveCases() []moveCase {
	swanDraw := func(rng *rand.Rand) float64 { return rng.Float64() * 200 }
	palette := func(rng *rand.Rand) float64 { return fuzzConsts[rng.Intn(len(fuzzConsts))] }
	cases := []moveCase{
		// "unused" is a hole the body never reads.
		{"swan", swanBody(), swanVars, append(append([]string(nil), swanHoles...), "unused"), swanDraw},
		{"2-region", twoRegionBody(), twoRegionVars, twoRegionHoles, swanDraw},
		{"subChain(20)", subChain(20), fuzzVars, fuzzHoles, palette},
		{"ifOr chain", genExpr(&byteSrc{data: deepSeeds()[1]}, fuzzDepth), fuzzVars, fuzzHoles, palette},
	}
	// If/Or-heavy programs from the fuzz generator: byte streams
	// biased toward If (7), Or (4) and comparisons (1).
	rng := rand.New(rand.NewSource(3))
	for len(cases) < 12 {
		data := make([]byte, 96)
		for i := range data {
			data[i] = []byte{7, 4, 1, 2, 3, byte(rng.Intn(256))}[rng.Intn(6)]
		}
		e := genExpr(&byteSrc{data: data}, 8)
		if _, ok := e.(If); ok {
			cases = append(cases, moveCase{"generated " + e.String(), e, fuzzVars, fuzzHoles, palette})
		}
	}
	return cases
}

// specialValues are the move targets every case includes.
var specialValues = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}

// TestScenarioMoveMatchesEval holds every Move, and the kept rows after
// every Commit, bit for bit to a fresh stack-loop pass at the moved
// hole vector, over random base vectors, at least 50 moves each with
// commits interleaved, moves to NaN, ±Inf and −0, and a hole the
// program never reads. A Move after SetVars without a new Eval must be
// refused.
func TestScenarioMoveMatchesEval(t *testing.T) {
	const lanes, n = 64, 61
	for ci, c := range moveCases() {
		prog := MustCompile(c.e, c.vars, c.holes)
		rng := rand.New(rand.NewSource(int64(10 + ci)))
		sb := NewScenarioBatch(prog, lanes)
		ref := NewPointBatch(len(c.vars), len(c.holes), lanes)
		vars := make([]float64, len(c.vars))
		for l := 0; l < n; l++ {
			for i := range vars {
				vars[i] = c.draw(rng)
			}
			sb.SetVars(l, vars)
			ref.SetVars(l, vars)
		}
		// full is a fresh stack-loop pass at holes.
		full := func(holes []float64) []float64 {
			ref.BroadcastHoles(holes, n)
			prog.EvalBatch(ref, n)
			return ref.Outs(n)
		}
		same := func(what string, got, want []float64) {
			t.Helper()
			for l := range want {
				if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
					t.Fatalf("%s: %s lane %d = %v (%#x), full pass %v (%#x)",
						c.name, what, l, got[l], math.Float64bits(got[l]), want[l], math.Float64bits(want[l]))
				}
			}
		}
		for base := 0; base < 3; base++ {
			holes := make([]float64, len(c.holes))
			for i := range holes {
				holes[i] = c.draw(rng)
			}
			same("Eval", sb.Eval(holes, n), full(holes))
			moved := append([]float64(nil), holes...)
			for m := 0; m < 60; m++ {
				h := rng.Intn(len(holes))
				v := c.draw(rng)
				if m < len(specialValues) {
					v = specialValues[m]
				}
				copy(moved, holes)
				moved[h] = v
				same("Move", sb.Move(h, v), full(moved))
				if rng.Intn(3) == 0 {
					sb.Commit(h, v)
					holes[h] = v
					same("Outs after Commit", sb.Outs(), full(holes))
				}
			}
			// A Commit of a value that was not the pending move re-runs
			// it first.
			h, v := rng.Intn(len(holes)), c.draw(rng)
			sb.Move(h, c.draw(rng))
			sb.Commit(h, v)
			holes[h] = v
			same("Outs after an unpending Commit", sb.Outs(), full(holes))
		}

		sb.SetVars(0, vars)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Move after SetVars without Eval was not refused", c.name)
				}
			}()
			sb.Move(0, 1)
		}()
	}
}

// TestScenarioConeSizes pins how many of a sketch body's instructions
// a move runs, the moved hole's fill included.
func TestScenarioConeSizes(t *testing.T) {
	for _, c := range []struct {
		name            string
		e               Expr
		vars, holes     []string
		code, min, most int
	}{
		{"swan", swanBody(), swanVars, swanHoles, 24, 4, 6},
		{"2-region", twoRegionBody(), twoRegionVars, twoRegionHoles, 41, 4, 7},
	} {
		prog := MustCompile(c.e, c.vars, c.holes)
		lo, hi := math.MaxInt, 0
		for _, m := range prog.regs().moves {
			size := 1 + len(m.steps)
			lo, hi = min(lo, size), max(hi, size)
		}
		if n := len(prog.tape.code); n != c.code || lo != c.min || hi != c.most {
			t.Errorf("%s: moves run %d–%d of %d instructions; want %d–%d of %d",
				c.name, lo, hi, n, c.min, c.most, c.code)
		}
	}
}

func FuzzDifferentialMove(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 3, 3, 2, 0, 2, 1})          // a - b style
	f.Add([]byte{7, 1, 3, 1, 0, 0, 9, 3, 2, 2, 0, 1, 2}) // if with cmp
	f.Add([]byte{3, 3, 0, 9, 1, 0, 3, 5, 0, 10, 2, 1})   // Inf arithmetic
	for _, seed := range deepSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSrc{data: data}
		e := genExpr(s, fuzzDepth)
		prog, err := Compile(e, fuzzVars, fuzzHoles)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		lanes := fuzzLaneWidths[int(s.next())%len(fuzzLaneWidths)]
		n := 1 + int(s.next())%lanes
		sb := NewScenarioBatch(prog, lanes)
		envs := make([]Env, n)
		vars := make([]float64, len(fuzzVars))
		for l := range envs {
			envs[l] = Env{Vars: map[string]float64{}, Holes: map[string]float64{}}
			for i, name := range fuzzVars {
				vars[i] = s.pick()
				envs[l].Vars[name] = vars[i]
			}
			sb.SetVars(l, vars)
		}
		holes := make([]float64, len(fuzzHoles))
		for i := range holes {
			holes[i] = s.pick()
		}
		// check holds a column to the AST interpreter at the hole vector.
		check := func(what string, got, holes []float64) {
			t.Helper()
			for l, env := range envs {
				for i, name := range fuzzHoles {
					env.Holes[name] = holes[i]
				}
				want, err := Eval(e, env)
				if err != nil {
					t.Fatalf("eval %s: %v", e, err)
				}
				if !eqBits(got[l], want) {
					t.Fatalf("%s: lane %d/%d of %s at holes %v = %v, tree = %v", what, l, n, e, holes, got[l], want)
				}
			}
		}
		check("Eval", sb.Eval(holes, n), holes)
		moved := make([]float64, len(holes))
		for m := 0; m < 8; m++ {
			op := s.next()
			h, v := int(op)%len(holes), s.pick()
			copy(moved, holes)
			moved[h] = v
			check("Move", sb.Move(h, v), moved)
			if op&4 != 0 {
				sb.Commit(h, v)
				holes[h] = v
				check("Outs after Commit", sb.Outs(), holes)
			}
		}
	})
}
