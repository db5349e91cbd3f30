package expr

import (
	"testing"

	"compsynth/internal/interval"
)

// Differential fuzzing of the lane interpreters: for a random
// expression and a batch of random lane environments, every lane of
// EvalBatch must reproduce the AST interpreter's Eval result for that
// lane's point, and every lane of a box batch's pass must reproduce
// EvalInterval at that lane's variables and the batch's one hole box,
// bit for bit, for every lane width and fill count — deep programs
// included. On about half the inputs the point lanes share one hole
// vector loaded with BroadcastHoles, the way the solver's score
// matrices evaluate the sketch body over their scenarios; the box lanes
// always share theirs, as the prune waves' do. This is the contract
// that lets the solver batch its sweeps and decide its boxes without
// perturbing transcripts.

// fuzzLaneWidths exercises a single lane (how one point or box is
// evaluated), a width that divides nothing evenly (3), the solver's
// width (16), a wide batch, and a width past 64 such as the solver's
// scenario lanes reach on large constraint systems.
var fuzzLaneWidths = []int{1, 3, 16, 64, 128}

// evalBox evaluates prog at one lane of point variables over a hole
// box, in a 1-lane box batch.
func evalBox(prog *Program, vars []float64, box []interval.Interval) interval.Interval {
	b := NewScenarioBoxBatch(prog, 1)
	b.SetVars(0, vars)
	lo, hi := b.Eval(box, 1)
	return interval.Interval{Lo: lo[0], Hi: hi[0]}
}

// broadcastSeed decodes into if x >= ??a then ??a*y - ??b else z / ??b
// over 120 filled lanes of a 128-lane batch whose point holes are one
// broadcast vector (??a = 2, ??b = 0.5, ??c = 0), so plain `go test`
// runs the broadcast entry point and the box batch past 64 lanes.
func broadcastSeed() []byte {
	seed := []byte{7, 1, 0, 1, 0, 2, 0, 3, 1, 3, 2, 2, 0, 1, 1, 2, 1, 3, 3, 1, 2, 2, 1}
	seed = append(seed, 4, 119, 1, 3, 4, 0) // width 128, 120 lanes, broadcast 2, 0.5 and 0
	seed = append(seed, 2, 7, 0, 4, 1, 1)   // the hole box: [-1, 1e9], [0, 0.5], [1, 1]
	for i := 0; i < 120*3; i++ {
		seed = append(seed, byte(i*7%11)) // per lane: 3 variables
	}
	return seed
}

func FuzzDifferentialBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 0, 3, 3, 2, 0, 2, 1})          // a - b style
	f.Add([]byte{7, 1, 3, 1, 0, 0, 9, 3, 2, 2, 0, 1, 2}) // if with cmp
	f.Add([]byte{3, 3, 0, 9, 1, 0, 3, 5, 0, 10, 2, 1})   // Inf arithmetic
	for _, seed := range deepSeeds() {
		f.Add(seed)
	}
	f.Add(broadcastSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSrc{data: data}
		e := genExpr(s, fuzzDepth)
		prog, err := Compile(e, fuzzVars, fuzzHoles)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		lanes := fuzzLaneWidths[int(s.next())%len(fuzzLaneWidths)]
		pb := NewPointBatch(len(fuzzVars), len(fuzzHoles), lanes)
		bb := NewScenarioBoxBatch(prog, lanes)
		n := 1 + int(s.next())%lanes // fill count in [1, lanes]
		var shared []float64         // the broadcast hole vector, if any
		if s.next()%2 == 1 {
			shared = make([]float64, len(fuzzHoles))
			for i := range shared {
				shared[i] = s.pick()
			}
			pb.BroadcastHoles(shared, n)
		}
		box := make([]interval.Interval, len(fuzzHoles))
		boxEnv := map[string]interval.Interval{}
		for i, name := range fuzzHoles {
			lo, hi := s.pick(), s.pick()
			if hi < lo {
				lo, hi = hi, lo
			}
			box[i] = interval.New(lo, hi)
			boxEnv[name] = box[i]
		}

		// Draw per-lane environments and load both batches.
		envs := make([]Env, n)
		ivEnvs := make([]IntervalEnv, n)
		for l := range envs {
			env := Env{Vars: map[string]float64{}, Holes: map[string]float64{}}
			ivEnv := IntervalEnv{Vars: map[string]interval.Interval{}, Holes: boxEnv}
			vars := make([]float64, len(fuzzVars))
			for i, name := range fuzzVars {
				vars[i] = s.pick()
				env.Vars[name], ivEnv.Vars[name] = vars[i], interval.Point(vars[i])
			}
			holes := make([]float64, len(fuzzHoles))
			for i, name := range fuzzHoles {
				if shared != nil {
					holes[i] = shared[i]
				} else {
					holes[i] = s.pick()
				}
				env.Holes[name] = holes[i]
			}
			pb.SetVars(l, vars)
			if shared == nil {
				pb.SetHoles(l, holes)
			}
			bb.SetVars(l, vars)
			envs[l], ivEnvs[l] = env, ivEnv
		}

		prog.EvalBatch(pb, n)
		outLo, outHi := bb.Eval(box, n)
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
			if got := (interval.Interval{Lo: outLo[l], Hi: outHi[l]}); !eqBitsInterval(got, wantIv) {
				t.Errorf("box lane %d/%d of %s = %v, tree = %v", l, n, e, got, wantIv)
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

// TestDeepProgram pins evaluation of a deep program (21 float stack
// rows): the point batch sizes its stack rows from the program, so
// every lane width and Eval agree with the AST interpreter — including
// a batch that evaluated a shallow program first and must grow its
// stacks. A box batch at every lane width moves through each lane's
// box in turn and agrees with EvalInterval bit for bit on every lane.
func TestDeepProgram(t *testing.T) {
	deep := subChain(20)
	prog, err := Compile(deep, fuzzVars, fuzzHoles)
	if err != nil {
		t.Fatal(err)
	}
	shallow := MustCompile(Hole{Name: "b"}, fuzzVars, fuzzHoles)
	vars := []float64{1, 2, 3}
	holesAt := func(l int) []float64 { return []float64{float64(l) * 0.5, -float64(l), 0} }
	holeIvsAt := func(l int) []interval.Interval {
		return []interval.Interval{{Lo: -float64(l), Hi: float64(l)}, {Lo: 0.25, Hi: 0.5}, {}}
	}
	for _, lanes := range fuzzLaneWidths {
		pb := NewPointBatch(len(fuzzVars), len(fuzzHoles), lanes)
		bb := NewScenarioBoxBatch(prog, lanes)
		for l := 0; l < lanes; l++ {
			pb.SetVars(l, vars)
			pb.SetHoles(l, holesAt(l))
			bb.SetVars(l, vars)
		}
		shallow.EvalBatch(pb, lanes)
		prog.EvalBatch(pb, lanes)
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
			lo, hi := bb.Eval(hb, lanes)
			for x := range lo {
				if got := (interval.Interval{Lo: lo[x], Hi: hi[x]}); !eqBitsInterval(got, wantIv) {
					t.Fatalf("lanes=%d box %d lane %d = %v, tree = %v", lanes, l, x, got, wantIv)
				}
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
	sb := NewScenarioBatch(prog, 4)
	expectPanic("ScenarioBatch.Eval", func() { sb.Eval(make([]float64, len(fuzzHoles)), 5) })
	bb := NewScenarioBoxBatch(prog, 4)
	box := make([]interval.Interval, len(fuzzHoles))
	bb.Eval(box, 4)
	expectPanic("ScenarioBoxBatch.Eval", func() { bb.Eval(box, 5) })
}

// TestBoolDepthDeepCmpChain is a regression test for the bool-depth
// accounting of comparisons: a right-nested Or chain of comparisons
// needs one bool-stack slot per level plus the comparison's own slot,
// and an undercount would index past a stack. Every chain must match
// the tree walker through Eval, a point batch, and a box batch.
func TestBoolDepthDeepCmpChain(t *testing.T) {
	for chain := 1; chain <= 10; chain++ {
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
		for _, x := range []float64{-1, 0.5, float64(chain) + 1} {
			want, err := Eval(e, Env{Vars: map[string]float64{"x": x}})
			if err != nil {
				t.Fatalf("chain=%d: tree eval: %v", chain, err)
			}
			if got := prog.Eval([]float64{x}, nil); !eqBits(got, want) {
				t.Errorf("chain=%d x=%v: Eval = %v, tree = %v", chain, x, got, want)
			}
			iv := evalBox(prog, []float64{x}, nil)
			if !eqBitsInterval(iv, interval.Point(want)) {
				t.Errorf("chain=%d x=%v: box batch = %v, tree = %v", chain, x, iv, want)
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
