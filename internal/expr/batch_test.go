package expr

import (
	"testing"

	"compsynth/internal/interval"
)

// Differential fuzzing of the lane interpreters: for a random
// expression and a batch of random lane environments, every lane of a
// scenario batch's pass must reproduce the AST interpreter's Eval
// result for that lane's point, and every lane of a box batch's pass
// must reproduce EvalInterval at that lane's variables and the batch's
// one hole box, bit for bit, for every lane width and fill count — deep
// programs included. The point lanes run one of the scenario batch's
// two orientations: scenario lanes at one broadcast hole vector (Eval),
// the way the point checks and the score matrices run the sketch body,
// or hole-vector lanes at one broadcast variable vector (EvalVars), the
// way the solver's sweeps run each constraint side. The box lanes
// always share one box, as the prune waves' do. This is the contract
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

// laneSeedExpr decodes into if x >= ??a then ??a*y - ??b else z / ??b.
var laneSeedExpr = []byte{7, 1, 0, 1, 0, 2, 0, 3, 1, 3, 2, 2, 0, 1, 1, 2, 1, 3, 3, 1, 2, 2, 1}

// broadcastSeed decodes into laneSeedExpr over 120 filled lanes of a
// 128-lane batch in the scenario orientation, its holes one broadcast
// vector (??a = 2, ??b = 0.5, ??c = 0), so plain `go test` runs Eval's
// broadcast and the box batch past 64 lanes.
func broadcastSeed() []byte {
	seed := append([]byte(nil), laneSeedExpr...)
	seed = append(seed, 4, 119, 1, 3, 4, 0) // width 128, 120 lanes, scenario lanes, holes 2, 0.5 and 0
	seed = append(seed, 2, 7, 0, 4, 1, 1)   // the hole box: [-1, 1e9], [0, 0.5], [1, 1]
	for i := 0; i < 120*3; i++ {
		seed = append(seed, byte(i*7%11)) // per lane: 3 variables
	}
	return seed
}

// holeLanesSeed decodes into laneSeedExpr over 120 filled lanes of a
// 128-lane batch in the hole orientation, its variables one broadcast
// vector (x = 1, y = 100, z = -1), so plain `go test` runs EvalVars.
func holeLanesSeed() []byte {
	seed := append([]byte(nil), laneSeedExpr...)
	seed = append(seed, 4, 119, 0, 1, 6, 2) // width 128, 120 lanes, hole lanes, variables 1, 100 and -1
	seed = append(seed, 2, 7, 0, 4, 1, 1)   // the hole box, as in broadcastSeed
	for i := 0; i < 120*6; i++ {
		seed = append(seed, byte(i*5%11)) // per lane: 3 box variables, 3 holes
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
	f.Add(holeLanesSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &byteSrc{data: data}
		e := genExpr(s, fuzzDepth)
		prog, err := Compile(e, fuzzVars, fuzzHoles)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		lanes := fuzzLaneWidths[int(s.next())%len(fuzzLaneWidths)]
		sb := NewScenarioBatch(prog, lanes)
		bb := NewScenarioBoxBatch(prog, lanes)
		n := 1 + int(s.next())%lanes // fill count in [1, lanes]
		// The point lanes hold scenarios at one broadcast hole vector,
		// or hole vectors at one broadcast variable vector.
		scenarioLanes := s.next()%2 == 1
		shared := make([]float64, len(fuzzHoles))
		if !scenarioLanes {
			shared = make([]float64, len(fuzzVars))
		}
		for i := range shared {
			shared[i] = s.pick()
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
			bb.SetVars(l, vars)
			if scenarioLanes {
				sb.SetVars(l, vars)
				for i, name := range fuzzHoles {
					env.Holes[name] = shared[i]
				}
			} else {
				holes := make([]float64, len(fuzzHoles))
				for i, name := range fuzzHoles {
					holes[i] = s.pick()
					env.Holes[name] = holes[i]
				}
				sb.SetHoles(l, holes)
				for i, name := range fuzzVars {
					env.Vars[name] = shared[i]
				}
			}
			envs[l], ivEnvs[l] = env, ivEnv
		}

		var out []float64
		if scenarioLanes {
			out = sb.Eval(shared, n)
		} else {
			out = sb.EvalVars(shared, n)
		}
		outLo, outHi := bb.Eval(box, n)
		for l := range envs {
			want, err := Eval(e, envs[l])
			if err != nil {
				t.Fatalf("eval %s: %v", e, err)
			}
			if got := out[l]; !eqBits(got, want) {
				t.Errorf("point lane %d/%d of %s (scenario lanes %v) = %v, tree = %v", l, n, e, scenarioLanes, got, want)
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

// subChain builds c0 - (c1 - (... - ??a)): right-nested subtraction,
// one register row per level.
func subChain(depth int) Expr {
	var e Expr = Hole{Name: "a"}
	for i := depth - 1; i >= 0; i-- {
		e = Bin{Op: OpSub, L: Const{Value: float64(i)}, R: e}
	}
	return e
}

// TestDeepProgram pins evaluation of a deep program (a 20-level
// subtraction chain): at every lane width a scenario batch over hole
// lanes, each lane at its own hole vector, Program.Eval at each lane's
// point, and a box batch moved through each lane's box in turn agree
// with the AST interpreter bit for bit on every lane.
func TestDeepProgram(t *testing.T) {
	deep := subChain(20)
	prog, err := Compile(deep, fuzzVars, fuzzHoles)
	if err != nil {
		t.Fatal(err)
	}
	vars := []float64{1, 2, 3}
	holesAt := func(l int) []float64 { return []float64{float64(l) * 0.5, -float64(l), 0} }
	holeIvsAt := func(l int) []interval.Interval {
		return []interval.Interval{{Lo: -float64(l), Hi: float64(l)}, {Lo: 0.25, Hi: 0.5}, {}}
	}
	for _, lanes := range fuzzLaneWidths {
		sb := NewScenarioBatch(prog, lanes)
		bb := NewScenarioBoxBatch(prog, lanes)
		for l := 0; l < lanes; l++ {
			sb.SetHoles(l, holesAt(l))
			bb.SetVars(l, vars)
		}
		out := sb.EvalVars(vars, lanes)
		for l := 0; l < lanes; l++ {
			want, err := Eval(deep, Env{Holes: map[string]float64{"a": holesAt(l)[0], "b": holesAt(l)[1]}})
			if err != nil {
				t.Fatal(err)
			}
			if got := out[l]; !eqBits(got, want) {
				t.Errorf("lanes=%d hole lane %d = %v, tree = %v", lanes, l, got, want)
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
// evaluate more lanes than it holds, through either orientation's pass,
// is a programming error, not a silent truncation.
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
	sb := NewScenarioBatch(prog, 4)
	expectPanic("ScenarioBatch.Eval", func() { sb.Eval(make([]float64, len(fuzzHoles)), 5) })
	expectPanic("ScenarioBatch.EvalVars", func() { sb.EvalVars(nil, 5) })
	bb := NewScenarioBoxBatch(prog, 4)
	box := make([]interval.Interval, len(fuzzHoles))
	bb.Eval(box, 4)
	expectPanic("ScenarioBoxBatch.Eval", func() { bb.Eval(box, 5) })
}

// TestBoolDepthDeepCmpChain holds the register plan's bool rows to the
// tree walker on right-nested Or chains of comparisons, where each
// level's comparison is held while the next level evaluates: every
// chain must match through Eval, a scenario batch in either
// orientation, and a box batch.
func TestBoolDepthDeepCmpChain(t *testing.T) {
	for chain := 1; chain <= 10; chain++ {
		var b BoolExpr = Cmp{Op: CmpGT, L: Var{Name: "x"}, R: Hole{Name: "h"}}
		for i := 1; i < chain; i++ {
			b = BoolBin{Op: OpOr, L: Cmp{Op: CmpGT, L: Var{Name: "x"}, R: Const{Value: float64(i)}}, R: b}
		}
		e := If{Cond: b, Then: Const{Value: 1}, Else: Const{Value: 0}}
		prog, err := Compile(e, []string{"x"}, []string{"h"})
		if err != nil {
			t.Fatalf("chain=%d: compile: %v", chain, err)
		}
		for _, x := range []float64{-1, 0.5, float64(chain) + 1} {
			want, err := Eval(e, Env{Vars: map[string]float64{"x": x}, Holes: map[string]float64{"h": 0}})
			if err != nil {
				t.Fatalf("chain=%d: tree eval: %v", chain, err)
			}
			if got := prog.Eval([]float64{x}, []float64{0}); !eqBits(got, want) {
				t.Errorf("chain=%d x=%v: Eval = %v, tree = %v", chain, x, got, want)
			}
			iv := evalBox(prog, []float64{x}, []interval.Interval{{}})
			if !eqBitsInterval(iv, interval.Point(want)) {
				t.Errorf("chain=%d x=%v: box batch = %v, tree = %v", chain, x, iv, want)
			}
			sb := NewScenarioBatch(prog, 2)
			sb.SetVars(0, []float64{x})
			sb.SetVars(1, []float64{x})
			scen := append([]float64(nil), sb.Eval([]float64{0}, 2)...)
			sb.SetHoles(0, []float64{0})
			sb.SetHoles(1, []float64{0})
			for l, got := range append(scen, sb.EvalVars([]float64{x}, 2)...) {
				if !eqBits(got, want) {
					t.Errorf("chain=%d x=%v: scenario batch column %d = %v, tree = %v", chain, x, l, got, want)
				}
			}
		}
	}
}

// TestBatchOutsAliasing documents that a scenario batch's output
// column is live: the next pass overwrites it, so callers must consume
// or copy.
func TestBatchOutsAliasing(t *testing.T) {
	prog, err := Compile(Hole{Name: "a"}, nil, fuzzHoles)
	if err != nil {
		t.Fatal(err)
	}
	sb := NewScenarioBatch(prog, 2)
	sb.SetHoles(0, []float64{1, 0, 0})
	sb.SetHoles(1, []float64{2, 0, 0})
	outs := sb.EvalVars(nil, 2)
	if outs[0] != 1 || outs[1] != 2 {
		t.Fatalf("EvalVars = %v, want [1 2]", outs)
	}
	sb.SetHoles(0, []float64{7, 0, 0})
	sb.EvalVars(nil, 1)
	if outs[0] != 7 {
		t.Errorf("EvalVars' column did not alias the batch: got %v after re-eval, want 7", outs[0])
	}
	if sb.Eval([]float64{9, 0, 0}, 2); outs[1] != 9 {
		t.Errorf("Eval's column did not alias the batch: got %v, want 9", outs[1])
	}
}
