package expr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"compsynth/internal/interval"
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

// cutScan is Unchanged's lane-scan oracle: it recomputes, with hole h
// at v, every comparison that reads h and reports whether each equals
// its kept bool row on the live lanes.
func cutScan(sb *ScenarioBatch, h int, v float64) bool {
	r := sb.rp.holeRow[h]
	for _, s := range sb.rp.steps {
		var cmp func(a, c float64) bool
		switch s.code {
		case tCmpGE:
			cmp = func(a, c float64) bool { return a >= c }
		case tCmpLE:
			cmp = func(a, c float64) bool { return a <= c }
		case tCmpGT:
			cmp = func(a, c float64) bool { return a > c }
		case tCmpLT:
			cmp = func(a, c float64) bool { return a < c }
		case tCmpEQ:
			cmp = func(a, c float64) bool { return a == c }
		default:
			continue
		}
		if s.a != r && s.c != r {
			continue
		}
		a, c, kept := sb.frow(s.a), sb.frow(s.c), sb.brow(s.dst)
		for l := range kept {
			x, y := a[l], c[l]
			if s.a == r {
				x = v
			}
			if s.c == r {
				y = v
			}
			if cmp(x, y) != kept[l] {
				return false
			}
		}
	}
	return true
}

// checkUnchanged asks Unchanged(h, v) before Move(h, v). When it
// answers true, every comparison reading h must hold still at v (the
// lane scan) and Move's column must equal Outs bit for bit. It returns
// Move's column.
func checkUnchanged(t *testing.T, what string, sb *ScenarioBatch, h int, v float64) []float64 {
	t.Helper()
	unchanged := sb.Unchanged(h, v)
	if unchanged && !cutScan(sb, h, v) {
		t.Fatalf("%s: Unchanged(%d, %v) holds, but a comparison reading the hole flips", what, h, v)
	}
	got := sb.Move(h, v)
	if unchanged {
		for l, o := range sb.Outs() {
			if math.Float64bits(got[l]) != math.Float64bits(o) {
				t.Fatalf("%s: Unchanged(%d, %v) holds, but Move's lane %d = %v, Outs %v", what, h, v, l, got[l], o)
			}
		}
	}
	return got
}

// boxSpecials are bounds every box chain mixes into its draws.
var boxSpecials = []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1)}

// chainBoxes returns a box chain over nh holes: first every hole at
// [+0, 1], then for each hole in turn a box that flips only that
// hole's lower bound to −0, then count boxes that each change 1–3
// holes of the one before (fewer when there are fewer holes). next
// returns a random byte and value a bound from the caller's palette; a
// quarter of the changed bounds are boxSpecials instead.
func chainBoxes(next func() byte, value func() float64, nh, count int) [][]interval.Interval {
	box := make([]interval.Interval, nh)
	for h := range box {
		box[h] = interval.Interval{Lo: 0, Hi: 1}
	}
	chain := [][]interval.Interval{append([]interval.Interval(nil), box...)}
	for h := range box {
		box[h].Lo = math.Copysign(0, -1)
		chain = append(chain, append([]interval.Interval(nil), box...))
	}
	bound := func() float64 {
		if b := next(); b%4 == 0 {
			return boxSpecials[int(b/4)%len(boxSpecials)]
		}
		return value()
	}
	perm := make([]int, nh)
	for h := range perm {
		perm[h] = h
	}
	for i := 0; i < count; i++ {
		// The first k of a partial shuffle: k distinct holes.
		k := min(1+int(next())%3, nh)
		for j := 0; j < k; j++ {
			r := j + int(next())%(nh-j)
			perm[j], perm[r] = perm[r], perm[j]
		}
		for _, h := range perm[:k] {
			lo, hi := bound(), bound()
			if hi < lo {
				lo, hi = hi, lo
			}
			box[h] = interval.Interval{Lo: lo, Hi: hi}
		}
		chain = append(chain, append([]interval.Interval(nil), box...))
	}
	return chain
}

// boxChain moves one box batch through boxes in turn and holds every
// kept row after each Eval, and the kept box, bit for bit to a full
// pass at that box on a second batch over the same lanes. It returns
// how many boxes Eval reached by cone moves and how many by a full
// pass.
func boxChain(t *testing.T, what string, prog *Program, lanes int, vars [][]float64, boxes [][]interval.Interval) (cones, fulls int) {
	t.Helper()
	n := len(vars)
	bb, ref := NewScenarioBoxBatch(prog, lanes), NewScenarioBoxBatch(prog, lanes)
	for l, v := range vars {
		bb.SetVars(l, v)
		ref.SetVars(l, v)
	}
	rp := bb.rp
	for i, box := range boxes {
		if bb.coneMoves(box, n) {
			cones++
		} else {
			fulls++
		}
		lo, hi := bb.Eval(box, n)
		ref.full(box, n)
		for r := int32(0); r < int32(rp.nF); r++ {
			glo, ghi := bb.frow(r)
			wlo, whi := ref.frow(r)
			for l := range wlo {
				if !eqBits(glo[l], wlo[l]) || !eqBits(ghi[l], whi[l]) {
					t.Fatalf("%s: box %d %v: float row %d lane %d = [%v, %v], full pass [%v, %v]",
						what, i, box, r, l, glo[l], ghi[l], wlo[l], whi[l])
				}
			}
		}
		for r := int32(0); r < int32(rp.nB); r++ {
			g, w := laneRow(bb.tri, r, lanes, n), laneRow(ref.tri, r, lanes, n)
			for l := range w {
				if g[l] != w[l] {
					t.Fatalf("%s: box %d %v: bool row %d lane %d = %v, full pass %v", what, i, box, r, l, Tri(g[l]), Tri(w[l]))
				}
			}
		}
		wlo, whi := ref.frow(rp.out)
		for l := range wlo {
			if !eqBits(lo[l], wlo[l]) || !eqBits(hi[l], whi[l]) {
				t.Fatalf("%s: box %d: Eval's output lane %d = [%v, %v], full pass [%v, %v]", what, i, l, lo[l], hi[l], wlo[l], whi[l])
			}
		}
		for h := range box {
			if !eqBitsInterval(bb.box[h], box[h]) {
				t.Fatalf("%s: box %d: kept hole %d = %v, want %v", what, i, h, bb.box[h], box[h])
			}
		}
	}
	return cones, fulls
}

// TestScenarioMoveMatchesEval holds every Move, and the kept rows after
// every Commit, bit for bit to the AST interpreter on every lane at the
// moved hole vector, over random base vectors, at least 50 moves each
// with commits interleaved, moves to NaN, ±Inf and −0, and a hole the
// program never reads. Each Move is preceded by Unchanged, held to the
// lane scan and to Outs wherever it answers true. A Move, a Commit or
// an Unchanged after SetVars, SetHoles or EvalVars without a new Eval
// must be refused. Over the same lanes, a box batch moves through a
// box chain (chainBoxes) and holds every row to a full pass at each box
// (boxChain); across the cases both the cone moves and the full pass
// must run.
func TestScenarioMoveMatchesEval(t *testing.T) {
	const lanes, n = 64, 61
	cones, fulls := 0, 0
	cases := moveCases()
	for ci, c := range cases {
		prog := MustCompile(c.e, c.vars, c.holes)
		rng := rand.New(rand.NewSource(int64(10 + ci)))
		sb := NewScenarioBatch(prog, lanes)
		laneVars := make([][]float64, n)
		envs := make([]Env, n)
		vars := make([]float64, len(c.vars))
		for l := 0; l < n; l++ {
			envs[l] = Env{Vars: map[string]float64{}, Holes: map[string]float64{}}
			for i, name := range c.vars {
				vars[i] = c.draw(rng)
				envs[l].Vars[name] = vars[i]
			}
			sb.SetVars(l, vars)
			laneVars[l] = append([]float64(nil), vars...)
		}
		// full is the AST interpreter at holes on every lane.
		want := make([]float64, n)
		full := func(holes []float64) []float64 {
			for l, env := range envs {
				for i, name := range c.holes {
					env.Holes[name] = holes[i]
				}
				v, err := Eval(c.e, env)
				if err != nil {
					t.Fatalf("%s: eval: %v", c.name, err)
				}
				want[l] = v
			}
			return want
		}
		same := func(what string, got, want []float64) {
			t.Helper()
			for l := range want {
				if !eqBits(got[l], want[l]) {
					t.Fatalf("%s: %s lane %d = %v (%#x), tree %v (%#x)",
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
				same("Move", checkUnchanged(t, c.name, sb, h, v), full(moved))
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

		bc, bf := boxChain(t, c.name, prog, lanes, laneVars,
			chainBoxes(func() byte { return byte(rng.Intn(256)) }, func() float64 { return c.draw(rng) }, len(c.holes), 60))
		cones, fulls = cones+bc, fulls+bf

		// After any of these the kept rows are no Eval over the current
		// lanes, so Move, Commit (also of the pending move) and Unchanged
		// must refuse.
		holes := make([]float64, len(c.holes))
		for _, stale := range []struct {
			what string
			do   func()
		}{
			{"SetVars", func() { sb.SetVars(0, vars) }},
			{"SetHoles", func() { sb.SetHoles(0, holes) }},
			{"EvalVars", func() { sb.EvalVars(vars, n) }},
		} {
			for name, fn := range map[string]func(){
				"Move":      func() { sb.Move(0, 1) },
				"Commit":    func() { sb.Commit(0, 1) },
				"Unchanged": func() { sb.Unchanged(0, 1) },
			} {
				sb.Eval(holes, n)
				sb.Move(0, 1)
				stale.do()
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s: %s after %s without Eval was not refused", c.name, name, stale.what)
						}
					}()
					fn()
				}()
			}
		}
	}
	// Every chain's first box is a full pass; later ones must take both
	// paths.
	if cones == 0 || fulls <= len(cases) {
		t.Errorf("box chains reached %d boxes by cone moves and %d by a full pass; both paths must run", cones, fulls)
	}
}

// cutLanes are the lane values of the Unchanged range tests, a NaN
// lane among them.
var cutLanes = []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 1, 2, math.Inf(1), math.NaN()}

// TestScenarioUnchangedRanges holds Unchanged exactly to the lane scan
// for each ordering comparison with the hole on either side, on lanes
// −Inf, −1, −0, +0, 1, 2, +Inf and NaN: with the hole at each lane
// value and between them, at each lane value, one ulp either side of
// it, ±0, ±Inf and NaN. A NaN hole or target never answers true. Then
// a hole compared twice, holes that arithmetic reads or that are
// compared with a row another hole reaches, a Commit of another hole,
// which keeps the cached ranges, and a Commit of the hole itself,
// which rebuilds them.
func TestScenarioUnchangedRanges(t *testing.T) {
	var currents, targets []float64
	for _, a := range cutLanes {
		currents = append(currents, a)
		targets = append(targets, a, math.Nextafter(a, math.Inf(-1)), math.Nextafter(a, math.Inf(1)))
	}
	currents = append(currents, -2, -0.5, 0.5, 1.5, 3)
	targets = append(targets, math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), math.NaN())

	// load puts lane l's values (one per variable) on a fresh batch.
	load := func(prog *Program, cols ...[]float64) *ScenarioBatch {
		sb := NewScenarioBatch(prog, len(cols[0]))
		vars := make([]float64, len(cols))
		for l := range cols[0] {
			for i, col := range cols {
				vars[i] = col[l]
			}
			sb.SetVars(l, vars)
		}
		return sb
	}
	// exact asks Unchanged(h, v) at every target, with the holes at
	// the kept vector, and holds it to the lane scan (cut holes) or to
	// false (holes read otherwise).
	exact := func(what string, sb *ScenarioBatch, h int, cut bool) {
		t.Helper()
		for _, v := range targets {
			want := cut && !math.IsNaN(sb.holes[h]) && !math.IsNaN(v) && cutScan(sb, h, v)
			if got := sb.Unchanged(h, v); got != want {
				t.Fatalf("%s: hole %d at %v: Unchanged(%v) = %v, lane scan %v", what, h, sb.holes[h], v, got, want)
			}
			checkUnchanged(t, what, sb, h, v)
		}
	}

	ops := []struct {
		name string
		cmp  func(l, r Expr) BoolExpr
	}{{">=", GE}, {"<=", LE}, {">", GT}, {"<", LT}}
	for _, op := range ops {
		for _, right := range []bool{true, false} {
			cond := op.cmp(V("x"), H("t"))
			if !right {
				cond = op.cmp(H("t"), V("x"))
			}
			e := Ite(cond, C(1), C(0))
			prog := MustCompile(e, []string{"x"}, []string{"t"})
			if prog.regs().moves[0].cuts == nil {
				t.Fatalf("%s: t is not a cut hole", e)
			}
			sb := load(prog, cutLanes)
			for _, v0 := range append(currents, math.NaN()) {
				sb.Eval([]float64{v0}, len(cutLanes))
				exact(e.String(), sb, 0, true)
			}
		}
	}

	// A hole compared twice moves freely only inside both ranges.
	twice := MustCompile(Ite(And(GE(V("x"), H("t")), LE(V("y"), H("t"))), C(1), C(0)), []string{"x", "y"}, []string{"t"})
	rev := make([]float64, len(cutLanes))
	for l, a := range cutLanes {
		rev[len(rev)-1-l] = a
	}
	sb := load(twice, cutLanes, rev)
	for _, v0 := range currents {
		sb.Eval([]float64{v0}, len(cutLanes))
		exact("x >= ??t && y <= ??t", sb, 0, true)
	}

	// ??t is compared and also read by arithmetic; ??s is read by
	// arithmetic. Neither is a cut hole, and ??c is.
	mixed := MustCompile(Ite(And(GE(V("x"), H("c")), LE(V("y"), H("t"))), Mul(H("s"), V("y")), Add(H("t"), V("y"))), []string{"x", "y"}, []string{"c", "s", "t"})
	// ??t is compared with x * ??s, a row ??s reaches: neither is one.
	reached := MustCompile(Ite(GE(Mul(V("x"), H("s")), H("t")), C(1), C(0)), []string{"x"}, []string{"s", "t"})
	for _, c := range []struct {
		what string
		prog *Program
		cut  []bool
	}{
		{"??t read by arithmetic", mixed, []bool{true, false, false}},
		{"x * ??s >= ??t", reached, []bool{false, false}},
	} {
		for h, want := range c.cut {
			if got := c.prog.regs().moves[h].cuts != nil; got != want {
				t.Fatalf("%s: hole %d is a cut hole: %v, want %v", c.what, h, got, want)
			}
		}
		sb := load(c.prog, cutLanes, rev)
		holes := make([]float64, len(c.cut))
		for _, v0 := range currents {
			for h := range holes {
				holes[h] = v0
			}
			sb.Eval(holes, len(cutLanes))
			for h, cut := range c.cut {
				exact(c.what, sb, h, cut)
			}
		}
	}

	// Commits: of ??s, which leaves ??c's range cached and exact, then
	// of ??c itself, which rebuilds it at the new value.
	sb = load(mixed, cutLanes, rev)
	sb.Eval([]float64{0.5, 1, 1}, len(cutLanes))
	exact("before commits", sb, 0, true)
	for _, v := range currents {
		sb.Commit(1, v)
		if !sb.cutOK[0] {
			t.Fatalf("a Commit of ??s dropped ??c's cached range")
		}
		exact("after a Commit of ??s", sb, 0, true)
		sb.Commit(0, v)
		exact("after a Commit of ??c", sb, 0, true)
	}
}

// TestScenarioConeSizes pins how many of a sketch body's instructions
// a move runs, the moved hole's fill included, and which holes are cut
// holes: the thresholds, never the slopes.
func TestScenarioConeSizes(t *testing.T) {
	for _, c := range []struct {
		name            string
		e               Expr
		vars, holes     []string
		code, min, most int
		cut             []string
	}{
		{"swan", swanBody(), swanVars, swanHoles, 24, 4, 6, []string{"tp_thrsh", "l_thrsh"}},
		{"2-region", twoRegionBody(), twoRegionVars, twoRegionHoles, 41, 4, 7,
			[]string{"l_thrsh_1", "l_thrsh_2", "tp_thrsh_1", "tp_thrsh_2"}},
	} {
		prog := MustCompile(c.e, c.vars, c.holes)
		lo, hi := math.MaxInt, 0
		var cut []string
		for h, m := range prog.regs().moves {
			size := 1 + len(m.steps)
			lo, hi = min(lo, size), max(hi, size)
			if m.cuts != nil {
				cut = append(cut, c.holes[h])
			}
		}
		if n := len(prog.tape.code); n != c.code || lo != c.min || hi != c.most {
			t.Errorf("%s: moves run %d–%d of %d instructions; want %d–%d of %d",
				c.name, lo, hi, n, c.min, c.most, c.code)
		}
		if fmt.Sprint(cut) != fmt.Sprint(c.cut) {
			t.Errorf("%s: cut holes %v; want %v", c.name, cut, c.cut)
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
		laneVars := make([][]float64, n)
		for l := range envs {
			envs[l] = Env{Vars: map[string]float64{}, Holes: map[string]float64{}}
			vars := make([]float64, len(fuzzVars))
			for i, name := range fuzzVars {
				vars[i] = s.pick()
				envs[l].Vars[name] = vars[i]
			}
			sb.SetVars(l, vars)
			laneVars[l] = vars
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
			check("Move", checkUnchanged(t, e.String(), sb, h, v), moved)
			if op&4 != 0 {
				sb.Commit(h, v)
				holes[h] = v
				check("Outs after Commit", sb.Outs(), holes)
			}
		}
		boxChain(t, e.String(), prog, lanes, laneVars, chainBoxes(s.next, s.pick, len(fuzzHoles), 8))
	})
}

// TestLoadersReadOnlyTheirRows pins that every loader reads exactly the
// program's own values. A variable vector longer than NumVars has its
// tail ignored by ScenarioBatch.SetVars and EvalVars,
// ScenarioBoxBatch.SetVars and Program.Eval, where it must not spill
// into the constant and hole rows that follow the variable rows, and a
// shorter one panics. SetHoles reads only the holes the program reads.
func TestLoadersReadOnlyTheirRows(t *testing.T) {
	prog := MustCompile(Add(V("x"), C(1)), []string{"x"}, nil)
	long := []float64{5, 99}
	if got := prog.Eval(long, nil); got != 6 {
		t.Errorf("Program.Eval(x + 1 at %v) = %v, want 6", long, got)
	}
	sb := NewScenarioBatch(prog, 1)
	sb.SetVars(0, long)
	if got := sb.Eval(nil, 1)[0]; got != 6 {
		t.Errorf("ScenarioBatch.SetVars(%v): x + 1 = %v, want 6", long, got)
	}
	bb := NewScenarioBoxBatch(prog, 1)
	bb.SetVars(0, long)
	if lo, hi := bb.Eval(nil, 1); lo[0] != 6 || hi[0] != 6 {
		t.Errorf("ScenarioBoxBatch.SetVars(%v): x + 1 = [%v, %v], want [6, 6]", long, lo[0], hi[0])
	}
	// ??a is never read, so it has no row; the vector's tail is ignored.
	hp := MustCompile(Add(H("b"), V("x")), []string{"x"}, []string{"a", "b"})
	hs := NewScenarioBatch(hp, 1)
	hs.SetHoles(0, []float64{7, 2, 99})
	if got := hs.EvalVars(long, 1)[0]; got != 7 {
		t.Errorf("SetHoles([7 2 99]), EvalVars(%v): ??b + x = %v, want 7", long, got)
	}
	for name, fn := range map[string]func(){
		"Program.Eval":             func() { prog.Eval(nil, nil) },
		"ScenarioBatch.SetVars":    func() { sb.SetVars(0, nil) },
		"ScenarioBatch.EvalVars":   func() { hs.EvalVars(nil, 1) },
		"ScenarioBoxBatch.SetVars": func() { bb.SetVars(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with too few variables did not panic", name)
				}
			}()
			fn()
		}()
	}
}
