// Package expr implements the expression language used to represent
// objective functions and objective-function sketches.
//
// The paper represents an objective function as a program over design
// metrics (throughput, latency, ...). A sketch is the same program with
// named numeric holes (tp_thrsh, slope1, ...) whose values the
// synthesizer must discover. This package provides:
//
//   - a typed AST split into numeric expressions (Expr) and boolean
//     expressions (BoolExpr),
//   - point evaluation over float64 environments and interval
//     evaluation (a sound over-approximation used by the solver), both
//     by walking the AST: the reference semantics,
//   - a compiler (Compile) that lowers a program to one tape of packed
//     postfix instructions, run by two interpreters besides the AST
//     reference: a stack loop over lanes of points (PointBatch;
//     Program.Eval runs a single point as a 1-lane point batch), and a
//     register form over lanes of variables that keeps every
//     instruction's row, so that moving one hole re-runs only the
//     instructions downstream of it, at a hole vector (ScenarioBatch)
//     or, in interval arithmetic, at a hole box (ScenarioBoxBatch),
//   - a parser and printer for a small concrete syntax matching the
//     paper's Figure 2.
package expr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Expr is a numeric expression node.
type Expr interface {
	fmt.Stringer
	isExpr()
}

// BoolExpr is a boolean expression node.
type BoolExpr interface {
	fmt.Stringer
	isBoolExpr()
}

// Const is a numeric literal.
type Const struct{ Value float64 }

// Var references a metric variable (an input of the objective function).
type Var struct{ Name string }

// Hole references an unknown to be synthesized.
type Hole struct{ Name string }

// BinOp identifies a binary numeric operator.
type BinOp int

// Binary numeric operators.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpMin
	OpMax
)

func (op BinOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return fmt.Sprintf("BinOp(%d)", int(op))
}

// Bin is a binary numeric operation.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Neg is numeric negation.
type Neg struct{ X Expr }

// Abs is the absolute value.
type Abs struct{ X Expr }

// If selects between numeric branches on a boolean condition.
type If struct {
	Cond       BoolExpr
	Then, Else Expr
}

// CmpOp identifies a comparison operator.
type CmpOp int

// Comparison operators.
const (
	CmpGE CmpOp = iota
	CmpLE
	CmpGT
	CmpLT
	CmpEQ
)

func (op CmpOp) String() string {
	switch op {
	case CmpGE:
		return ">="
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpLT:
		return "<"
	case CmpEQ:
		return "=="
	}
	return fmt.Sprintf("CmpOp(%d)", int(op))
}

// Cmp compares two numeric expressions.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// BoolOp identifies a boolean connective.
type BoolOp int

// Boolean connectives.
const (
	OpAnd BoolOp = iota
	OpOr
)

func (op BoolOp) String() string {
	if op == OpAnd {
		return "&&"
	}
	return "||"
}

// BoolBin combines two boolean expressions.
type BoolBin struct {
	Op   BoolOp
	L, R BoolExpr
}

// Not negates a boolean expression.
type Not struct{ X BoolExpr }

// BoolConst is a boolean literal.
type BoolConst struct{ Value bool }

func (Const) isExpr() {}
func (Var) isExpr()   {}
func (Hole) isExpr()  {}
func (Bin) isExpr()   {}
func (Neg) isExpr()   {}
func (Abs) isExpr()   {}
func (If) isExpr()    {}

func (Cmp) isBoolExpr()       {}
func (BoolBin) isBoolExpr()   {}
func (Not) isBoolExpr()       {}
func (BoolConst) isBoolExpr() {}

// Convenience constructors. They keep call sites building sketches
// readable: Add(Mul(H("slope1"), V("t")), C(1000)).

// C returns a numeric constant.
func C(v float64) Expr { return Const{Value: v} }

// V returns a variable reference.
func V(name string) Expr { return Var{Name: name} }

// H returns a hole reference.
func H(name string) Expr { return Hole{Name: name} }

// Add returns l + r.
func Add(l, r Expr) Expr { return Bin{Op: OpAdd, L: l, R: r} }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return Bin{Op: OpSub, L: l, R: r} }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return Bin{Op: OpMul, L: l, R: r} }

// Div returns l / r.
func Div(l, r Expr) Expr { return Bin{Op: OpDiv, L: l, R: r} }

// Min returns min(l, r).
func Min(l, r Expr) Expr { return Bin{Op: OpMin, L: l, R: r} }

// Max returns max(l, r).
func Max(l, r Expr) Expr { return Bin{Op: OpMax, L: l, R: r} }

// GE returns l >= r.
func GE(l, r Expr) BoolExpr { return Cmp{Op: CmpGE, L: l, R: r} }

// LE returns l <= r.
func LE(l, r Expr) BoolExpr { return Cmp{Op: CmpLE, L: l, R: r} }

// GT returns l > r.
func GT(l, r Expr) BoolExpr { return Cmp{Op: CmpGT, L: l, R: r} }

// LT returns l < r.
func LT(l, r Expr) BoolExpr { return Cmp{Op: CmpLT, L: l, R: r} }

// And returns l && r.
func And(l, r BoolExpr) BoolExpr { return BoolBin{Op: OpAnd, L: l, R: r} }

// Or returns l || r.
func Or(l, r BoolExpr) BoolExpr { return BoolBin{Op: OpOr, L: l, R: r} }

// Ite returns if cond then a else b.
func Ite(cond BoolExpr, a, b Expr) Expr { return If{Cond: cond, Then: a, Else: b} }

// Walk calls fn for every numeric sub-expression of e in depth-first
// order, descending into boolean conditions as well.
func Walk(e Expr, fn func(Expr)) {
	fn(e)
	switch n := e.(type) {
	case Bin:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case Neg:
		Walk(n.X, fn)
	case Abs:
		Walk(n.X, fn)
	case If:
		WalkBool(n.Cond, fn)
		Walk(n.Then, fn)
		Walk(n.Else, fn)
	}
}

// WalkBool calls fn for every numeric sub-expression reachable from b.
func WalkBool(b BoolExpr, fn func(Expr)) {
	switch n := b.(type) {
	case Cmp:
		Walk(n.L, fn)
		Walk(n.R, fn)
	case BoolBin:
		WalkBool(n.L, fn)
		WalkBool(n.R, fn)
	case Not:
		WalkBool(n.X, fn)
	}
}

// Holes returns the sorted set of hole names appearing in e.
func Holes(e Expr) []string {
	seen := map[string]bool{}
	Walk(e, func(x Expr) {
		if h, ok := x.(Hole); ok {
			seen[h.Name] = true
		}
	})
	return sortedKeys(seen)
}

// Vars returns the sorted set of variable names appearing in e.
func Vars(e Expr) []string {
	seen := map[string]bool{}
	Walk(e, func(x Expr) {
		if v, ok := x.(Var); ok {
			seen[v.Name] = true
		}
	})
	return sortedKeys(seen)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Subst returns e with every hole replaced per assignment. Holes missing
// from the assignment are left in place.
func Subst(e Expr, assignment map[string]float64) Expr {
	switch n := e.(type) {
	case Hole:
		if v, ok := assignment[n.Name]; ok {
			return Const{Value: v}
		}
		return n
	case Bin:
		return Bin{Op: n.Op, L: Subst(n.L, assignment), R: Subst(n.R, assignment)}
	case Neg:
		return Neg{X: Subst(n.X, assignment)}
	case Abs:
		return Abs{X: Subst(n.X, assignment)}
	case If:
		return If{
			Cond: SubstBool(n.Cond, assignment),
			Then: Subst(n.Then, assignment),
			Else: Subst(n.Else, assignment),
		}
	default:
		return e
	}
}

// SubstBool is Subst for boolean expressions.
func SubstBool(b BoolExpr, assignment map[string]float64) BoolExpr {
	switch n := b.(type) {
	case Cmp:
		return Cmp{Op: n.Op, L: Subst(n.L, assignment), R: Subst(n.R, assignment)}
	case BoolBin:
		return BoolBin{Op: n.Op, L: SubstBool(n.L, assignment), R: SubstBool(n.R, assignment)}
	case Not:
		return Not{X: SubstBool(n.X, assignment)}
	default:
		return b
	}
}

// Equal reports structural equality of two numeric expressions.
func Equal(a, b Expr) bool {
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && x.Value == y.Value
	case Var:
		y, ok := b.(Var)
		return ok && x.Name == y.Name
	case Hole:
		y, ok := b.(Hole)
		return ok && x.Name == y.Name
	case Bin:
		y, ok := b.(Bin)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case Neg:
		y, ok := b.(Neg)
		return ok && Equal(x.X, y.X)
	case Abs:
		y, ok := b.(Abs)
		return ok && Equal(x.X, y.X)
	case If:
		y, ok := b.(If)
		return ok && EqualBool(x.Cond, y.Cond) && Equal(x.Then, y.Then) && Equal(x.Else, y.Else)
	}
	return false
}

// EqualBool reports structural equality of two boolean expressions.
func EqualBool(a, b BoolExpr) bool {
	switch x := a.(type) {
	case Cmp:
		y, ok := b.(Cmp)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case BoolBin:
		y, ok := b.(BoolBin)
		return ok && x.Op == y.Op && EqualBool(x.L, y.L) && EqualBool(x.R, y.R)
	case Not:
		y, ok := b.(Not)
		return ok && EqualBool(x.X, y.X)
	case BoolConst:
		y, ok := b.(BoolConst)
		return ok && x.Value == y.Value
	}
	return false
}

// String renders the expression in the concrete syntax accepted by Parse.

func (c Const) String() string {
	return strconv.FormatFloat(c.Value, 'g', -1, 64)
}

func (v Var) String() string { return v.Name }

func (h Hole) String() string { return "??" + h.Name }

func (b Bin) String() string {
	switch b.Op {
	case OpMin, OpMax:
		return fmt.Sprintf("%s(%s, %s)", b.Op, b.L, b.R)
	}
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func (n Neg) String() string { return fmt.Sprintf("(-%s)", n.X) }

func (a Abs) String() string { return fmt.Sprintf("abs(%s)", a.X) }

func (i If) String() string {
	return fmt.Sprintf("if %s then %s else %s", i.Cond, i.Then, i.Else)
}

func (c Cmp) String() string { return fmt.Sprintf("%s %s %s", c.L, c.Op, c.R) }

func (b BoolBin) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

func (n Not) String() string { return fmt.Sprintf("!(%s)", n.X) }

func (b BoolConst) String() string {
	if b.Value {
		return "true"
	}
	return "false"
}

// Pretty renders a multi-line, indented form of the expression — used
// when printing synthesized objective functions for humans.
func Pretty(e Expr) string {
	var sb strings.Builder
	pretty(&sb, e, 0)
	return sb.String()
}

func pretty(sb *strings.Builder, e Expr, depth int) {
	indent := strings.Repeat("  ", depth)
	if n, ok := e.(If); ok {
		fmt.Fprintf(sb, "%sif %s then\n", indent, n.Cond)
		pretty(sb, n.Then, depth+1)
		fmt.Fprintf(sb, "%selse\n", indent)
		pretty(sb, n.Else, depth+1)
		return
	}
	fmt.Fprintf(sb, "%s%s\n", indent, e)
}
