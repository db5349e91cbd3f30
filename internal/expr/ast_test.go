package expr

import (
	"strings"
	"testing"
)

// swanVars and swanHoles are swanBody's variable and hole orderings.
var (
	swanVars  = []string{"throughput", "latency"}
	swanHoles = []string{"tp_thrsh", "l_thrsh", "slope1", "slope2"}
)

// swanBody is the paper's Figure 2a sketch body.
func swanBody() Expr {
	return Ite(
		And(GE(V("throughput"), H("tp_thrsh")), LE(V("latency"), H("l_thrsh"))),
		Add(Sub(V("throughput"), Mul(Mul(H("slope1"), V("throughput")), V("latency"))), C(1000)),
		Sub(V("throughput"), Mul(Mul(H("slope2"), V("throughput")), V("latency"))),
	)
}

func TestHolesAndVars(t *testing.T) {
	e := swanBody()
	wantHoles := []string{"l_thrsh", "slope1", "slope2", "tp_thrsh"}
	gotHoles := Holes(e)
	if len(gotHoles) != len(wantHoles) {
		t.Fatalf("Holes = %v, want %v", gotHoles, wantHoles)
	}
	for i := range wantHoles {
		if gotHoles[i] != wantHoles[i] {
			t.Fatalf("Holes = %v, want %v", gotHoles, wantHoles)
		}
	}
	gotVars := Vars(e)
	if len(gotVars) != 2 || gotVars[0] != "latency" || gotVars[1] != "throughput" {
		t.Fatalf("Vars = %v", gotVars)
	}
}

func TestSubstClosesExpression(t *testing.T) {
	e := swanBody()
	closed := Subst(e, map[string]float64{
		"tp_thrsh": 1, "l_thrsh": 50, "slope1": 1, "slope2": 5,
	})
	if got := Holes(closed); len(got) != 0 {
		t.Fatalf("holes remain after Subst: %v", got)
	}
	v, err := Eval(closed, Env{Vars: map[string]float64{"throughput": 2, "latency": 10}})
	if err != nil {
		t.Fatal(err)
	}
	// Satisfying region: 2 - 1*2*10 + 1000 = 982.
	if v != 982 {
		t.Errorf("Eval = %v, want 982", v)
	}
}

func TestSubstPartial(t *testing.T) {
	e := swanBody()
	part := Subst(e, map[string]float64{"tp_thrsh": 1})
	got := Holes(part)
	if len(got) != 3 {
		t.Fatalf("partial Subst holes = %v", got)
	}
	for _, h := range got {
		if h == "tp_thrsh" {
			t.Fatal("tp_thrsh not substituted")
		}
	}
}

func TestEqualStructural(t *testing.T) {
	a := swanBody()
	b := swanBody()
	if !Equal(a, b) {
		t.Error("identical trees not Equal")
	}
	c := Subst(a, map[string]float64{"slope1": 2})
	if Equal(a, c) {
		t.Error("different trees Equal")
	}
	if Equal(C(1), V("x")) {
		t.Error("Const equal to Var")
	}
	if !EqualBool(GE(V("x"), C(1)), GE(V("x"), C(1))) {
		t.Error("identical comparisons not EqualBool")
	}
	if EqualBool(GE(V("x"), C(1)), LE(V("x"), C(1))) {
		t.Error("different comparisons EqualBool")
	}
}

func TestStringRoundTrip(t *testing.T) {
	exprs := []Expr{
		swanBody(),
		Add(C(1), Mul(V("x"), H("a"))),
		Min(V("x"), Max(V("y"), C(3))),
		Neg{X: Abs{X: V("x")}},
		Ite(Or(GT(V("x"), C(0)), Not{X: LT(V("y"), C(1))}), C(1), C(2)),
		Div(C(1), V("x")),
	}
	for _, e := range exprs {
		s := e.String()
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if !Equal(e, back) {
			t.Errorf("round trip changed %q -> %q", s, back)
		}
	}
}

func TestWalkVisitsAllNodes(t *testing.T) {
	e := swanBody()
	count := 0
	Walk(e, func(Expr) { count++ })
	// if-node + cond side (4 numeric nodes) + then (7 nodes) + else (5 nodes).
	// Count manually: If(1); Cond: throughput, tp_thrsh, latency, l_thrsh (4);
	// Then: Add(Sub(t, Mul(Mul(s1,t),l)), 1000) = Add,Sub,t,Mul,Mul,s1,t,l,1000 = 9;
	// Else: Sub(t, Mul(Mul(s2,t),l)) = Sub,t,Mul,Mul,s2,t,l = 7. Total 21.
	if count != 21 {
		t.Errorf("Walk visited %d nodes, want 21", count)
	}
}

func TestPrettyContainsStructure(t *testing.T) {
	s := Pretty(swanBody())
	for _, frag := range []string{"if ", "then", "else", "??slope1", "??slope2", "1000"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Pretty output missing %q:\n%s", frag, s)
		}
	}
	if !strings.Contains(s, "\n") {
		t.Error("Pretty output not multi-line")
	}
}

func TestOpStrings(t *testing.T) {
	cases := map[string]string{
		OpAdd.String(): "+", OpSub.String(): "-", OpMul.String(): "*",
		OpDiv.String(): "/", OpMin.String(): "min", OpMax.String(): "max",
		CmpGE.String(): ">=", CmpLE.String(): "<=", CmpGT.String(): ">",
		CmpLT.String(): "<", CmpEQ.String(): "==",
		OpAnd.String(): "&&", OpOr.String(): "||",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("op String = %q, want %q", got, want)
		}
	}
	if BinOp(99).String() == "" || CmpOp(99).String() == "" {
		t.Error("unknown op String empty")
	}
}
