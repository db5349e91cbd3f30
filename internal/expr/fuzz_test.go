package expr

import (
	"math"
	"strings"
	"testing"

	"compsynth/internal/interval"
)

// FuzzParse checks that the parser never panics and that everything it
// accepts survives a print/re-parse round trip.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"1 + 2 * x",
		"if throughput >= ??tp && latency <= ??l then 1 else 0",
		"min(x, max(y, 3)) - abs(-z)",
		"((x))",
		"?\x00?",
		"if if",
		"1e309", // overflows to +Inf; ParseFloat accepts it
		"??_",
		"x >= y",
		"!true && false || x > 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		printed := e.String()
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", printed, src, err)
		}
		if !Equal(e, back) {
			t.Fatalf("round trip changed %q -> %q", printed, back.String())
		}
		// Simplification must also be panic-free and re-parseable
		// (modulo constants that print as Inf, which the grammar has no
		// literal for).
		s := Simplify(e)
		if str := s.String(); !strings.Contains(str, "Inf") && !strings.Contains(str, "NaN") {
			if _, err := Parse(str); err != nil {
				t.Fatalf("simplified form %q unparseable: %v", str, err)
			}
		}
	})
}

// Differential fuzzing of the evaluation engines. A fuzz input is
// decoded into a random expression plus environments, and every engine
// must agree with the AST interpreter (eval.go), the one reference:
//
//   - Program.Eval must be bit-identical to Eval;
//   - a box batch's interval evaluation must be bit-identical to
//     EvalInterval;
//   - Partial with all variables substituted must match the original up
//     to the sign of zero (identity folds like x+0 may drop the
//     operation that would normalize -0 to +0), under both point and
//     interval evaluation.
//
// This is the contract that lets the solver evaluate pre-specialized
// programs in its hot path without perturbing synthesis transcripts.

var (
	fuzzVars   = []string{"x", "y", "z"}
	fuzzHoles  = []string{"a", "b", "c"}
	fuzzConsts = []float64{0, 1, -1, 2, 0.5, -3.25, 100, 1e9, -1e-3, math.Inf(1), math.Inf(-1)}
)

// byteSrc doles out fuzz bytes; exhausted inputs read as zero, which
// steers the generator toward leaves so every input terminates.
type byteSrc struct {
	data []byte
	pos  int
}

func (s *byteSrc) next() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *byteSrc) pick() float64 { return fuzzConsts[int(s.next())%len(fuzzConsts)] }

// fuzzDepth caps the nesting genExpr builds. It leaves room for the
// 20-level chains of deepSeeds and their mutations, so the fuzzer
// holds the emitter's stack sizing to programs far deeper than any
// sketch body.
const fuzzDepth = 24

// deepSeeds are fuzz inputs that decode into deep programs, so plain
// `go test` runs the tape's stack sizing against the AST interpreter: a
// 20-deep right-nested Sub chain (21 float stack rows) and a 10-deep
// right-nested Or chain of comparisons between If expressions, under an
// If (10 bool stack rows). A tail of non-zero bytes feeds the
// environments.
func deepSeeds() [][]byte {
	tail := []byte{1, 4, 5, 2, 3, 6, 1, 7, 8, 4, 2, 5, 9, 3, 1, 6}
	var sub []byte
	for i := 0; i < 20; i++ {
		sub = append(sub, 3, byte(OpSub), 0, byte(i)) // Bin Sub, L = Const
	}
	sub = append(sub, 2, 0) // ??a
	ifOr := []byte{7}       // If
	for i := 0; i < 10; i++ {
		if i < 9 {
			ifOr = append(ifOr, 4) // Or, L = the Cmp below, R = next level
		}
		// Cmp GT, L = (if x < c then y else ??b), R = Const.
		ifOr = append(ifOr, 1, byte(CmpGT), 7, 1, byte(CmpLT), 1, 0, 0, byte(i), 1, 1, 2, 1, 0, byte(i+1))
	}
	ifOr = append(ifOr, 2, 0, 2, 1) // then ??a else ??b
	return [][]byte{append(sub, tail...), append(ifOr, tail...)}
}

func genExpr(s *byteSrc, depth int) Expr {
	b := s.next()
	if depth <= 0 {
		b %= 3
	}
	switch b % 8 {
	case 0:
		return Const{Value: s.pick()}
	case 1:
		return Var{Name: fuzzVars[int(s.next())%len(fuzzVars)]}
	case 2:
		return Hole{Name: fuzzHoles[int(s.next())%len(fuzzHoles)]}
	case 3, 4:
		op := BinOp(int(s.next()) % 6)
		return Bin{Op: op, L: genExpr(s, depth-1), R: genExpr(s, depth-1)}
	case 5:
		return Neg{X: genExpr(s, depth-1)}
	case 6:
		return Abs{X: genExpr(s, depth-1)}
	default:
		return If{Cond: genBool(s, depth-1), Then: genExpr(s, depth-1), Else: genExpr(s, depth-1)}
	}
}

func genBool(s *byteSrc, depth int) BoolExpr {
	b := s.next()
	if depth <= 0 {
		return BoolConst{Value: b%2 == 0}
	}
	switch b % 6 {
	case 0:
		return BoolConst{Value: s.next()%2 == 0}
	case 1, 2:
		op := CmpOp(int(s.next()) % 5)
		return Cmp{Op: op, L: genExpr(s, depth-1), R: genExpr(s, depth-1)}
	case 3:
		return BoolBin{Op: OpAnd, L: genBool(s, depth-1), R: genBool(s, depth-1)}
	case 4:
		return BoolBin{Op: OpOr, L: genBool(s, depth-1), R: genBool(s, depth-1)}
	default:
		return Not{X: genBool(s, depth-1)}
	}
}

// eqBits is exact equality: same bits, or both NaN (payloads may differ
// across math.Min and friends).
func eqBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// eqNum is numeric equality: NaN matches NaN and -0 matches +0 (the
// sign of zero is unobservable through comparisons, so identity folds
// are allowed to change it).
func eqNum(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

func eqInterval(a, b interval.Interval) bool {
	if a.IsEmpty() || b.IsEmpty() {
		return a.IsEmpty() && b.IsEmpty()
	}
	return eqNum(a.Lo, b.Lo) && eqNum(a.Hi, b.Hi)
}

// eqBitsInterval is eqBits on both bounds.
func eqBitsInterval(a, b interval.Interval) bool {
	return eqBits(a.Lo, b.Lo) && eqBits(a.Hi, b.Hi)
}

func FuzzDifferentialEval(f *testing.F) {
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

		varVals := map[string]float64{}
		varSlice := make([]float64, len(fuzzVars))
		for i, name := range fuzzVars {
			v := s.pick()
			varVals[name] = v
			varSlice[i] = v
		}
		holeVals := map[string]float64{}
		holeSlice := make([]float64, len(fuzzHoles))
		for i, name := range fuzzHoles {
			v := s.pick()
			holeVals[name] = v
			holeSlice[i] = v
		}

		prog, err := Compile(e, fuzzVars, fuzzHoles)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		want, err := Eval(e, Env{Vars: varVals, Holes: holeVals})
		if err != nil {
			t.Fatalf("eval %s: %v", e, err)
		}

		// Engine agreement on the original expression: the tape must
		// reproduce the tree walker bit for bit.
		if got := prog.Eval(varSlice, holeSlice); !eqBits(got, want) {
			t.Errorf("compiled eval of %s = %v, tree = %v", e, got, want)
		}

		// Partial with every variable bound must leave a hole-only
		// expression that evaluates identically.
		pe := Partial(e, varVals)
		if vs := Vars(pe); len(vs) != 0 {
			t.Fatalf("Partial(%s) kept variables %v", e, vs)
		}
		pv, err := Eval(pe, Env{Holes: holeVals})
		if err != nil {
			t.Fatalf("eval partial %s: %v", pe, err)
		}
		if !eqNum(pv, want) {
			t.Errorf("Partial(%s) evaluates to %v, original %v", e, pv, want)
		}
		pprog, err := Compile(pe, nil, fuzzHoles)
		if err != nil {
			t.Fatalf("compile partial %s: %v", pe, err)
		}
		if got := pprog.Eval(nil, holeSlice); !eqNum(got, want) {
			t.Errorf("compiled Partial(%s) = %v, original %v", e, got, want)
		}

		// Interval agreement: concrete (point) variables, boxed holes —
		// exactly the shape branch-and-prune evaluates. The palette has
		// no NaN, so interval.Point never panics here.
		varIvs := map[string]interval.Interval{}
		for _, name := range fuzzVars {
			varIvs[name] = interval.Point(varVals[name])
		}
		holeIvs := map[string]interval.Interval{}
		holeIvSlice := make([]interval.Interval, len(fuzzHoles))
		for i, name := range fuzzHoles {
			lo, hi := s.pick(), s.pick()
			if hi < lo {
				lo, hi = hi, lo
			}
			iv := interval.New(lo, hi)
			holeIvs[name] = iv
			holeIvSlice[i] = iv
		}
		wantIv, err := EvalInterval(e, IntervalEnv{Vars: varIvs, Holes: holeIvs})
		if err != nil {
			t.Fatalf("interval eval %s: %v", e, err)
		}
		if got := evalBox(prog, varSlice, holeIvSlice); !eqBitsInterval(got, wantIv) {
			t.Errorf("compiled interval eval of %s = %v, tree = %v", e, got, wantIv)
		}
		piv, err := EvalInterval(pe, IntervalEnv{Holes: holeIvs})
		if err != nil {
			t.Fatalf("interval eval partial %s: %v", pe, err)
		}
		if !eqInterval(piv, wantIv) {
			t.Errorf("interval Partial(%s) = %v, original %v", e, piv, wantIv)
		}
		if got := evalBox(pprog, nil, holeIvSlice); !eqInterval(got, wantIv) {
			t.Errorf("compiled interval Partial(%s) = %v, original %v", e, got, wantIv)
		}
	})
}
