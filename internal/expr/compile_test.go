package expr

import (
	"math"
	"math/rand"
	"testing"

	"compsynth/internal/interval"
)

func TestCompileMatchesEval(t *testing.T) {
	body := swanBody()
	prog, err := Compile(body, []string{"throughput", "latency"}, []string{"tp_thrsh", "l_thrsh", "slope1", "slope2"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		tp := rng.Float64() * 10
		lat := rng.Float64() * 200
		th := []float64{rng.Float64() * 10, rng.Float64() * 200, rng.Float64() * 10, rng.Float64() * 10}
		want, err := Eval(body, Env{
			Vars:  map[string]float64{"throughput": tp, "latency": lat},
			Holes: map[string]float64{"tp_thrsh": th[0], "l_thrsh": th[1], "slope1": th[2], "slope2": th[3]},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := prog.Eval([]float64{tp, lat}, th)
		if got != want {
			t.Fatalf("compiled %v != interpreted %v at tp=%v lat=%v th=%v", got, want, tp, lat, th)
		}
	}
}

func TestCompileIntervalMatchesEvalInterval(t *testing.T) {
	body := swanBody()
	prog := MustCompile(body, []string{"throughput", "latency"}, []string{"tp_thrsh", "l_thrsh", "slope1", "slope2"})
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 500; i++ {
		vb := []interval.Interval{
			randIv(rng, 0, 10), randIv(rng, 0, 200),
		}
		hb := []interval.Interval{
			randIv(rng, 0, 10), randIv(rng, 0, 200), randIv(rng, 0, 10), randIv(rng, 0, 10),
		}
		want, err := EvalInterval(body, IntervalEnv{
			Vars:  map[string]interval.Interval{"throughput": vb[0], "latency": vb[1]},
			Holes: map[string]interval.Interval{"tp_thrsh": hb[0], "l_thrsh": hb[1], "slope1": hb[2], "slope2": hb[3]},
		})
		if err != nil {
			t.Fatal(err)
		}
		got := evalBox(prog, vb, hb)
		if got != want {
			t.Fatalf("compiled interval %v != interpreted %v", got, want)
		}
	}
}

func randIv(rng *rand.Rand, lo, hi float64) interval.Interval {
	a := lo + rng.Float64()*(hi-lo)
	b := lo + rng.Float64()*(hi-lo)
	if a > b {
		a, b = b, a
	}
	return interval.New(a, b)
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(V("x"), nil, nil); err == nil {
		t.Error("unbound var compiled")
	}
	if _, err := Compile(H("h"), nil, nil); err == nil {
		t.Error("unbound hole compiled")
	}
	if _, err := Compile(C(1), []string{"x", "x"}, nil); err == nil {
		t.Error("duplicate variable accepted")
	}
	if _, err := Compile(C(1), nil, []string{"h", "h"}); err == nil {
		t.Error("duplicate hole accepted")
	}
	if _, err := Compile(Ite(GE(V("y"), C(0)), C(1), C(2)), []string{"x"}, nil); err == nil {
		t.Error("unbound var inside condition compiled")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustCompile did not panic")
		}
	}()
	MustCompile(V("nope"), nil, nil)
}

func TestProgramAccessors(t *testing.T) {
	prog := MustCompile(Add(V("a"), H("h")), []string{"a", "b"}, []string{"h"})
	if prog.NumVars() != 2 || prog.NumHoles() != 1 {
		t.Errorf("NumVars/NumHoles = %d/%d", prog.NumVars(), prog.NumHoles())
	}
	vs := prog.Vars()
	vs[0] = "mutated"
	if prog.Vars()[0] != "a" {
		t.Error("Vars() exposed internal slice")
	}
	hs := prog.HoleNames()
	hs[0] = "mutated"
	if prog.HoleNames()[0] != "h" {
		t.Error("HoleNames() exposed internal slice")
	}
	if !Equal(prog.Expr(), Add(V("a"), H("h"))) {
		t.Error("Expr() mismatch")
	}
}

func TestCompiledMinMaxDivAbsNeg(t *testing.T) {
	e := MustParse("min(x, 2) + max(y, 3) - abs(-x) / 2")
	prog := MustCompile(e, []string{"x", "y"}, nil)
	got := prog.Eval([]float64{4, 1}, nil)
	want := 2.0 + 3 - 4.0/2
	if got != want {
		t.Errorf("Eval = %v, want %v", got, want)
	}
}

func TestCompiledBoolConnectives(t *testing.T) {
	e := MustParse("if (x > 0 || y > 0) && !(x > 5) then 1 else 0")
	prog := MustCompile(e, []string{"x", "y"}, nil)
	cases := []struct {
		x, y, want float64
	}{
		{1, -1, 1},
		{-1, 1, 1},
		{-1, -1, 0},
		{6, 1, 0},
	}
	for _, c := range cases {
		if got := prog.Eval([]float64{c.x, c.y}, nil); got != c.want {
			t.Errorf("x=%v y=%v: got %v want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestCompiledNaNDivision(t *testing.T) {
	prog := MustCompile(Div(C(1), V("x")), []string{"x"}, nil)
	if v := prog.Eval([]float64{0}, nil); !math.IsInf(v, 1) {
		t.Errorf("1/0 = %v, want +Inf", v)
	}
}

func BenchmarkCompiledEval(b *testing.B) {
	prog := MustCompile(swanBody(), []string{"throughput", "latency"},
		[]string{"tp_thrsh", "l_thrsh", "slope1", "slope2"})
	vars := []float64{5, 60}
	holes := []float64{1, 50, 1, 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = prog.Eval(vars, holes)
	}
}

func BenchmarkInterpretedEval(b *testing.B) {
	body := swanBody()
	e := Env{
		Vars:  map[string]float64{"throughput": 5, "latency": 60},
		Holes: map[string]float64{"tp_thrsh": 1, "l_thrsh": 50, "slope1": 1, "slope2": 5},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(body, e); err != nil {
			b.Fatal(err)
		}
	}
}
