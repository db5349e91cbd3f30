package sketch

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
	"compsynth/internal/scenario"
)

func TestSWANSketchShape(t *testing.T) {
	sk := SWAN()
	if sk.Name() != "swan" {
		t.Errorf("Name = %q", sk.Name())
	}
	hs := sk.Holes()
	if len(hs) != 4 {
		t.Fatalf("Holes = %v", hs)
	}
	for i, want := range SWANHoles {
		if hs[i] != want {
			t.Errorf("hole %d = %q, want %q", i, hs[i], want)
		}
	}
	if sk.NumHoles() != 4 {
		t.Errorf("NumHoles = %d", sk.NumHoles())
	}
	if sk.Space().Dim() != 2 {
		t.Errorf("space dim = %d", sk.Space().Dim())
	}
}

// holesFor builds a positional hole vector for the SWAN sketch from the
// named parameters.
func holesFor(sk *Sketch, tp, l, s1, s2 float64) []float64 {
	m := map[string]float64{"tp_thrsh": tp, "l_thrsh": l, "slope1": s1, "slope2": s2}
	out := make([]float64, sk.NumHoles())
	for i, h := range sk.Holes() {
		out[i] = m[h]
	}
	return out
}

func TestSWANTargetMatchesPaperFigure2b(t *testing.T) {
	sk := SWAN()
	target, err := DefaultSWANTarget.Candidate(sk)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tp, lat, want float64
	}{
		{2, 10, 2 - 1*2*10 + 1000},
		{5, 10, 5 - 1*5*10 + 1000},
		{2, 100, 2 - 5*2*100},
		{0.5, 10, 0.5 - 5*0.5*10},
	}
	for _, c := range cases {
		if got := target.Eval(scenario.Scenario{c.tp, c.lat}); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("f(%v,%v) = %v, want %v", c.tp, c.lat, got, c.want)
		}
	}
	// The paper's §4.2 example: the target must prefer (2,100) scores
	// computed by the synthesized function consistently.
	if !target.Prefers(scenario.Scenario{5, 10}, scenario.Scenario{2, 100}) {
		t.Error("target does not prefer satisfying scenario")
	}
}

func TestCandidateValidation(t *testing.T) {
	sk := SWAN()
	if _, err := sk.Candidate([]float64{1, 2}); err == nil {
		t.Error("wrong arity accepted")
	}
	if _, err := sk.Candidate([]float64{-1, 1, 1, 1}); err == nil {
		t.Error("out-of-domain accepted")
	}
	c, err := sk.Candidate(holesFor(sk, 1, 50, 1, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Holes() returns a copy.
	h := c.Holes()
	h[0] = 999
	if c.Holes()[0] == 999 {
		t.Error("Holes exposed internal slice")
	}
}

func TestCandidateConcretizeAndString(t *testing.T) {
	sk := SWAN()
	c := sk.MustCandidate(holesFor(sk, 1, 50, 1, 5))
	closed := c.Concretize()
	if len(expr.Holes(closed)) != 0 {
		t.Error("Concretize left holes")
	}
	v, err := expr.Eval(closed, expr.Env{Vars: map[string]float64{"throughput": 2, "latency": 10}})
	if err != nil {
		t.Fatal(err)
	}
	if v != 982 {
		t.Errorf("concretized eval = %v", v)
	}
	s := c.String()
	if !strings.Contains(s, "swan{") || !strings.Contains(s, "slope2=5") {
		t.Errorf("String = %q", s)
	}
}

func TestAssignment(t *testing.T) {
	sk := SWAN()
	c := sk.MustCandidate(holesFor(sk, 1, 50, 2, 5))
	m := c.Assignment()
	if m["tp_thrsh"] != 1 || m["l_thrsh"] != 50 || m["slope1"] != 2 || m["slope2"] != 5 {
		t.Errorf("Assignment = %v", m)
	}
}

func TestNewValidation(t *testing.T) {
	space := scenario.SWANSpace()
	dom := map[string]interval.Interval{"h": interval.New(0, 1)}
	if _, err := New("", expr.H("h"), space, dom); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := New("s", expr.V("unknown"), space, nil); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := New("s", expr.H("h"), space, nil); err == nil {
		t.Error("missing hole domain accepted")
	}
	if _, err := New("s", expr.H("h"), space, map[string]interval.Interval{"h": interval.Empty()}); err == nil {
		t.Error("empty hole domain accepted")
	}
	if _, err := New("s", expr.H("h"), space, map[string]interval.Interval{"h": interval.New(0, math.Inf(1))}); err == nil {
		t.Error("unbounded hole domain accepted")
	}
	if _, err := New("s", expr.C(1), space, dom); err == nil {
		t.Error("domain for unknown hole accepted")
	}
	if _, err := New("ok", expr.Add(expr.H("h"), expr.V("throughput")), space, dom); err != nil {
		t.Errorf("valid sketch rejected: %v", err)
	}
}

func TestInDomain(t *testing.T) {
	sk := SWAN()
	if !sk.InDomain(holesFor(sk, 5, 100, 3, 3)) {
		t.Error("inside vector rejected")
	}
	if sk.InDomain(holesFor(sk, 11, 100, 3, 3)) {
		t.Error("outside vector accepted")
	}
	if sk.InDomain([]float64{1}) {
		t.Error("short vector accepted")
	}
}

func TestEvalIntervalSoundOnSketch(t *testing.T) {
	sk := SWAN()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		scBox := []interval.Interval{randSub(rng, 0, 10), randSub(rng, 0, 200)}
		hBox := make([]interval.Interval, sk.NumHoles())
		for i, d := range sk.Domains() {
			hBox[i] = randSub(rng, d.Lo, d.Hi)
		}
		iv := evalBox(sk.prog, scBox, hBox)
		for j := 0; j < 10; j++ {
			sc := scenario.Scenario{sample(rng, scBox[0]), sample(rng, scBox[1])}
			hv := make([]float64, len(hBox))
			for i := range hBox {
				hv[i] = sample(rng, hBox[i])
			}
			v := sk.Eval(sc, hv)
			if !iv.Widen(1e-6 + math.Abs(v)*1e-9).Contains(v) {
				t.Fatalf("interval %v misses %v", iv, v)
			}
		}
	}
}

// evalBox evaluates a program's expression over one box (variable and
// hole intervals in the program's orderings) with the AST interval
// interpreter.
func evalBox(prog *expr.Program, vars, holes []interval.Interval) interval.Interval {
	env := expr.IntervalEnv{Vars: map[string]interval.Interval{}, Holes: map[string]interval.Interval{}}
	for i, name := range prog.Vars() {
		env.Vars[name] = vars[i]
	}
	for i, name := range prog.HoleNames() {
		env.Holes[name] = holes[i]
	}
	iv, err := expr.EvalInterval(prog.Expr(), env)
	if err != nil {
		panic(err)
	}
	return iv
}

func randSub(rng *rand.Rand, lo, hi float64) interval.Interval {
	a := lo + rng.Float64()*(hi-lo)
	b := lo + rng.Float64()*(hi-lo)
	if a > b {
		a, b = b, a
	}
	return interval.New(a, b)
}

func sample(rng *rand.Rand, iv interval.Interval) float64 {
	return iv.Lo + rng.Float64()*iv.Width()
}

func TestMultiRegion(t *testing.T) {
	if _, err := MultiRegion(0); err == nil {
		t.Error("MultiRegion(0) accepted")
	}
	sk, err := MultiRegion(2)
	if err != nil {
		t.Fatal(err)
	}
	// 2 regions: 2 thresholds pairs + 3 slopes = 7 holes.
	if sk.NumHoles() != 7 {
		t.Fatalf("MultiRegion(2) holes = %v", sk.Holes())
	}
	// Region 1 (best) gets +2000, region 2 gets +1000, else no bonus.
	m := map[string]float64{
		"tp_thrsh_1": 5, "l_thrsh_1": 20, "slope_1": 0,
		"tp_thrsh_2": 1, "l_thrsh_2": 100, "slope_2": 0,
		"slope_3": 0,
	}
	holes := make([]float64, sk.NumHoles())
	for i, h := range sk.Holes() {
		holes[i] = m[h]
	}
	c := sk.MustCandidate(holes)
	if got := c.Eval(scenario.Scenario{6, 10}); got != 6+2000 {
		t.Errorf("region 1 eval = %v", got)
	}
	if got := c.Eval(scenario.Scenario{2, 50}); got != 2+1000 {
		t.Errorf("region 2 eval = %v", got)
	}
	if got := c.Eval(scenario.Scenario{0.5, 150}); got != 0.5 {
		t.Errorf("else eval = %v", got)
	}
}

func TestMultiRegionOneEqualsSWANShape(t *testing.T) {
	sk, err := MultiRegion(1)
	if err != nil {
		t.Fatal(err)
	}
	if sk.NumHoles() != 4 {
		t.Errorf("MultiRegion(1) holes = %v", sk.Holes())
	}
}

func TestWeightedSum(t *testing.T) {
	space := scenario.MustNewSpace(
		[]string{"bitrate", "rebuffer"},
		[]interval.Interval{interval.New(0, 10), interval.New(0, 5)},
	)
	sk, err := WeightedSum("qoe", space, []float64{1, -1}, interval.New(0, 10))
	if err != nil {
		t.Fatal(err)
	}
	if sk.NumHoles() != 2 {
		t.Fatalf("holes = %v", sk.Holes())
	}
	// Hole order is sorted: w_bitrate, w_rebuffer.
	c := sk.MustCandidate([]float64{2, 3})
	if got := c.Eval(scenario.Scenario{4, 1}); got != 2*4-3*1 {
		t.Errorf("weighted sum = %v", got)
	}
	if _, err := WeightedSum("bad", space, []float64{1}, interval.New(0, 1)); err == nil {
		t.Error("sign arity mismatch accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic")
		}
	}()
	MustNew("", expr.C(1), scenario.SWANSpace(), nil)
}
