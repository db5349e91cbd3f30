package expr

import (
	"testing"

	"compsynth/internal/interval"
)

// Differential fuzzing of the batched interpreters: for a random
// expression and a batch of random lane environments, every lane of
// EvalBatch / EvalIntervalBatch must reproduce the AST interpreter's
// Eval / EvalInterval result for that lane's input, for every lane
// width and fill count — programs too deep for the jump tape included.
// This is the contract that lets the solver batch its sweeps without
// perturbing transcripts.

// fuzzLaneWidths exercises a single lane (how one point or box is
// evaluated), a width that divides nothing evenly (3), the solver's
// width (16), and a wide batch.
var fuzzLaneWidths = []int{1, 3, 16, 64}

// evalBox evaluates prog over one box as a 1-lane interval batch.
func evalBox(prog *Program, vars, holes []interval.Interval) interval.Interval {
	b := NewIntervalBatch(len(vars), len(holes), 1)
	b.SetVars(0, vars)
	b.SetHoles(0, holes)
	prog.EvalIntervalBatch(b, 1)
	return b.Out(0)
}

// evalFlat evaluates prog at one point as a 1-lane point batch: the
// flat tape, whether or not the program also has a jump tape.
func evalFlat(prog *Program, vars, holes []float64) float64 {
	b := NewPointBatch(len(vars), len(holes), 1)
	b.SetVars(0, vars)
	b.SetHoles(0, holes)
	prog.EvalBatch(b, 1)
	return b.Out(0)
}

func FuzzDifferentialBatch(f *testing.F) {
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
		pb := NewPointBatch(len(fuzzVars), len(fuzzHoles), lanes)
		ib := NewIntervalBatch(len(fuzzVars), len(fuzzHoles), lanes)
		n := 1 + int(s.next())%lanes // fill count in [1, lanes]

		// Draw per-lane environments and load both batches.
		envs := make([]Env, n)
		ivEnvs := make([]IntervalEnv, n)
		for l := range envs {
			env := Env{Vars: map[string]float64{}, Holes: map[string]float64{}}
			ivEnv := IntervalEnv{Vars: map[string]interval.Interval{}, Holes: map[string]interval.Interval{}}
			vars := make([]float64, len(fuzzVars))
			varIvs := make([]interval.Interval, len(fuzzVars))
			for i, name := range fuzzVars {
				vars[i] = s.pick()
				varIvs[i] = interval.Point(vars[i])
				env.Vars[name], ivEnv.Vars[name] = vars[i], varIvs[i]
			}
			holes := make([]float64, len(fuzzHoles))
			holeIvs := make([]interval.Interval, len(fuzzHoles))
			for i, name := range fuzzHoles {
				holes[i] = s.pick()
				lo, hi := s.pick(), s.pick()
				if hi < lo {
					lo, hi = hi, lo
				}
				holeIvs[i] = interval.New(lo, hi)
				env.Holes[name], ivEnv.Holes[name] = holes[i], holeIvs[i]
			}
			pb.SetVars(l, vars)
			pb.SetHoles(l, holes)
			ib.SetVars(l, varIvs)
			ib.SetHoles(l, holeIvs)
			envs[l], ivEnvs[l] = env, ivEnv
		}

		prog.EvalBatch(pb, n)
		prog.EvalIntervalBatch(ib, n)
		for l := range envs {
			want, err := Eval(e, envs[l])
			if err != nil {
				t.Fatalf("eval %s: %v", e, err)
			}
			if got := pb.Out(l); !eqBits(got, want) {
				t.Errorf("point lane %d/%d of %s = %v, tree = %v", l, n, e, got, want)
			}
			wantIv, err := EvalInterval(e, ivEnvs[l])
			if err != nil {
				t.Fatalf("interval eval %s: %v", e, err)
			}
			if got := ib.Out(l); !eqInterval(got, wantIv) {
				t.Errorf("interval lane %d/%d of %s = %v, tree = %v", l, n, e, got, wantIv)
			}
		}
	})
}

// subChain builds c0 - (c1 - (... - ??a)): right-nested subtraction
// holds one more float per level, so depth levels need depth+1 slots.
func subChain(depth int) Expr {
	var e Expr = Hole{Name: "a"}
	for i := depth - 1; i >= 0; i-- {
		e = Bin{Op: OpSub, L: Const{Value: float64(i)}, R: e}
	}
	return e
}

// TestDeepProgram pins evaluation of programs too deep for the jump
// tape's fixed stacks: Eval runs them as a 1-lane flat batch, and the
// batch entry points size their stack rows from the program, so every
// lane width agrees with the AST interpreter — including a batch that
// evaluated a shallow program first and must grow its stacks.
func TestDeepProgram(t *testing.T) {
	deep := subChain(tapeMaxFloat + 4)
	prog, err := Compile(deep, fuzzVars, fuzzHoles)
	if err != nil {
		t.Fatal(err)
	}
	if prog.tp != nil {
		t.Fatalf("a %d-deep chain fits the jump tape's %d float slots; the test exercises nothing", tapeMaxFloat+4, tapeMaxFloat)
	}
	shallow := MustCompile(Hole{Name: "b"}, fuzzVars, fuzzHoles)
	vars := []float64{1, 2, 3}
	varIvs := []interval.Interval{interval.Point(1), interval.Point(2), interval.Point(3)}
	holesAt := func(l int) []float64 { return []float64{float64(l) * 0.5, -float64(l)} }
	holeIvsAt := func(l int) []interval.Interval {
		return []interval.Interval{{Lo: -float64(l), Hi: float64(l)}, {Lo: 0.25, Hi: 0.5}}
	}
	for _, lanes := range fuzzLaneWidths {
		pb := NewPointBatch(len(fuzzVars), len(fuzzHoles), lanes)
		ib := NewIntervalBatch(len(fuzzVars), len(fuzzHoles), lanes)
		for l := 0; l < lanes; l++ {
			pb.SetVars(l, vars)
			pb.SetHoles(l, holesAt(l))
			ib.SetVars(l, varIvs)
			ib.SetHoles(l, holeIvsAt(l))
		}
		shallow.EvalBatch(pb, lanes)
		shallow.EvalIntervalBatch(ib, lanes)
		prog.EvalBatch(pb, lanes)
		prog.EvalIntervalBatch(ib, lanes)
		for l := 0; l < lanes; l++ {
			want, err := Eval(deep, Env{Holes: map[string]float64{"a": holesAt(l)[0], "b": holesAt(l)[1]}})
			if err != nil {
				t.Fatal(err)
			}
			if got := pb.Out(l); !eqBits(got, want) {
				t.Errorf("lanes=%d point lane %d = %v, tree = %v", lanes, l, got, want)
			}
			if got := prog.Eval(vars, holesAt(l)); !eqBits(got, want) {
				t.Errorf("Eval at lane %d's point = %v, tree = %v", l, got, want)
			}
			hb := holeIvsAt(l)
			wantIv, err := EvalInterval(deep, IntervalEnv{Holes: map[string]interval.Interval{"a": hb[0], "b": hb[1]}})
			if err != nil {
				t.Fatal(err)
			}
			if got := ib.Out(l); !eqInterval(got, wantIv) {
				t.Errorf("lanes=%d interval lane %d = %v, tree = %v", lanes, l, got, wantIv)
			}
		}
	}
}

// TestBatchLaneOverflowPanics pins the misuse guard: asking a batch to
// evaluate more lanes than it holds is a programming error, not a
// silent truncation.
func TestBatchLaneOverflowPanics(t *testing.T) {
	prog, err := Compile(Hole{Name: "a"}, nil, fuzzHoles)
	if err != nil {
		t.Fatal(err)
	}
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s with n > lanes did not panic", name)
			}
		}()
		fn()
	}
	pb := NewPointBatch(0, len(fuzzHoles), 4)
	expectPanic("EvalBatch", func() { prog.EvalBatch(pb, 5) })
	ib := NewIntervalBatch(0, len(fuzzHoles), 4)
	expectPanic("EvalIntervalBatch", func() { prog.EvalIntervalBatch(ib, 5) })
}

// TestBoolDepthDeepCmpChain is a regression test for the bool-depth
// accounting of comparisons: a right-nested Or chain of comparisons
// needs one bool-stack slot per level plus the comparison's own slot,
// and an undercount would index past a stack. Chains past the jump
// tape's bool array evaluate through the flat tape; every chain must
// match the tree walker through Eval, a point batch, and an interval
// batch.
func TestBoolDepthDeepCmpChain(t *testing.T) {
	for chain := 1; chain <= tapeMaxBool+2; chain++ {
		var b BoolExpr = Cmp{Op: CmpGT, L: Var{Name: "x"}, R: Const{Value: 0}}
		for i := 1; i < chain; i++ {
			// Right-nested: the left result is held while the right
			// subtree (another full chain level) evaluates.
			b = BoolBin{Op: OpOr, L: Cmp{Op: CmpGT, L: Var{Name: "x"}, R: Const{Value: float64(i)}}, R: b}
		}
		e := If{Cond: b, Then: Const{Value: 1}, Else: Const{Value: 0}}
		prog, err := Compile(e, []string{"x"}, nil)
		if err != nil {
			t.Fatalf("chain=%d: compile: %v", chain, err)
		}
		if fits := chain <= tapeMaxBool; (prog.tp != nil) != fits {
			t.Errorf("chain=%d: jump tape present = %v, want %v", chain, prog.tp != nil, fits)
		}
		for _, x := range []float64{-1, 0.5, float64(chain) + 1} {
			want, err := Eval(e, Env{Vars: map[string]float64{"x": x}})
			if err != nil {
				t.Fatalf("chain=%d: tree eval: %v", chain, err)
			}
			if got := prog.Eval([]float64{x}, nil); !eqBits(got, want) {
				t.Errorf("chain=%d x=%v: Eval = %v, tree = %v", chain, x, got, want)
			}
			iv := evalBox(prog, []interval.Interval{interval.Point(x)}, nil)
			if !eqInterval(iv, interval.Point(want)) {
				t.Errorf("chain=%d x=%v: interval batch = %v, tree = %v", chain, x, iv, want)
			}
			pb := NewPointBatch(1, 0, 2)
			pb.SetVars(0, []float64{x})
			pb.SetVars(1, []float64{x})
			prog.EvalBatch(pb, 2)
			if got := pb.Out(0); !eqBits(got, want) {
				t.Errorf("chain=%d x=%v: EvalBatch = %v, tree = %v", chain, x, got, want)
			}
		}
	}
}

// TestBatchOutsAliasing documents that Outs returns live columns: the
// next evaluation overwrites them, so callers must consume or copy.
func TestBatchOutsAliasing(t *testing.T) {
	prog, err := Compile(Hole{Name: "a"}, nil, fuzzHoles)
	if err != nil {
		t.Fatal(err)
	}
	pb := NewPointBatch(0, len(fuzzHoles), 2)
	pb.SetHoles(0, []float64{1, 0})
	pb.SetHoles(1, []float64{2, 0})
	prog.EvalBatch(pb, 2)
	outs := pb.Outs(2)
	if outs[0] != 1 || outs[1] != 2 {
		t.Fatalf("Outs = %v, want [1 2]", outs)
	}
	pb.SetHoles(0, []float64{7, 0})
	prog.EvalBatch(pb, 1)
	if outs[0] != 7 {
		t.Errorf("Outs did not alias the batch: got %v after re-eval, want 7", outs[0])
	}
}
