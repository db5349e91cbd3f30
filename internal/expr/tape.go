package expr

import (
	"fmt"
	"math"
)

// Tape compilation: every Program is lowered by one emitter into one
// postfix instruction stream over value stacks, which the stack
// interpreter (batch.go) runs over lanes of points; a single point
// (Program.Eval) is a 1-lane batch. The scenario batches run the same
// stream in register form, over points (scenario.go) and over a box
// (scenario_box.go).
//
// If lowers to straight-line code: condition, then-branch, else-branch,
// tSelect. Both branches always execute and the select keeps the taken
// value per lane (or the branch hull when the condition is TriUnknown
// over a box), because different lanes may take different branches and
// a box's condition may be undecided. This is semantically identical
// to branch-only evaluation because expression evaluation is pure and
// total: no operation traps or panics, division yields IEEE/relational-
// interval results, so computing and discarding the untaken branch is
// unobservable. Operands are evaluated left-to-right and both sides of
// boolean connectives are evaluated (no short-circuit, matching Eval).
// The differential fuzz tests hold the tape to the AST interpreter in
// eval.go.
//
// The select holds the then-value and the condition live across the
// else-branch; the emitter records the exact stack high-water marks and
// batches size their stack rows from them. There is no depth cap.
//
// Instructions are packed into 4 bytes (8-bit opcode, 24-bit operand;
// float immediates live in a per-tape constant pool) so that even a
// solver system holding dozens of specialized constraint tapes keeps a
// small instruction footprint.

// tapeCode enumerates tape instructions.
type tapeCode uint32

const (
	tConst     tapeCode = iota // push consts[arg] onto the float stack
	tVar                       // push vars[arg]
	tHole                      // push holes[arg]
	tAdd                       // pop b, a; push a+b
	tSub                       // pop b, a; push a-b
	tMul                       // pop b, a; push a*b
	tDiv                       // pop b, a; push a/b
	tMin                       // pop b, a; push min(a, b)
	tMax                       // pop b, a; push max(a, b)
	tNeg                       // negate top of float stack
	tAbs                       // absolute value of top of float stack
	tCmpGE                     // pop b, a; push a>=b onto the bool stack
	tCmpLE                     // pop b, a; push a<=b
	tCmpGT                     // pop b, a; push a>b
	tCmpLT                     // pop b, a; push a<b
	tCmpEQ                     // pop b, a; push a==b
	tAnd                       // pop q, p; push p&&q
	tOr                        // pop q, p; push p||q
	tNot                       // invert top of bool stack
	tBoolConst                 // push arg != 0 onto the bool stack
	tSelect                    // pop else, then, cond; push taken value
)

// tapeMaxArg is the largest operand the packed encoding holds.
const tapeMaxArg = 1<<24 - 1

// tape is a compiled instruction stream. Each instruction packs the
// opcode into the top 8 bits and the operand (constant-pool index,
// variable/hole slot, or tBoolConst value) into the low 24. maxF and
// maxB are the float and bool stack depths the tape needs.
type tape struct {
	code       []uint32
	consts     []float64
	maxF, maxB int
}

// emitter lowers one expression into one tape. Names resolve against
// the variable and hole slot maps (an unknown one is ErrUnbound), and
// the float and bool stack depths are tracked instruction by
// instruction, so maxF and maxB are exactly the stacks the tape needs.
type emitter struct {
	varIdx, holeIdx map[string]int
	code            []uint32
	consts          []float64
	f, b            int // stack depths after the last instruction
	maxF, maxB      int // their high-water marks
}

// op appends one instruction that moves the stacks by df floats and db
// bools.
func (em *emitter) op(code tapeCode, arg, df, db int) {
	em.code = append(em.code, uint32(code)<<24|uint32(arg))
	em.f += df
	em.b += db
	em.maxF = max(em.maxF, em.f)
	em.maxB = max(em.maxB, em.b)
}

// constIndex returns the pool slot for v, reusing an existing slot with
// the same bits (NaN never reaches the pool: Partial and the parser
// only produce non-NaN constants, and folding guards against it).
func (em *emitter) constIndex(v float64) int {
	bits := math.Float64bits(v)
	for i, c := range em.consts {
		if math.Float64bits(c) == bits {
			return i
		}
	}
	em.consts = append(em.consts, v)
	return len(em.consts) - 1
}

func (em *emitter) num(e Expr) error {
	switch n := e.(type) {
	case Const:
		em.op(tConst, em.constIndex(n.Value), 1, 0)
	case Var:
		i, ok := em.varIdx[n.Name]
		if !ok {
			return ErrUnbound{Kind: "var", Name: n.Name}
		}
		em.op(tVar, i, 1, 0)
	case Hole:
		i, ok := em.holeIdx[n.Name]
		if !ok {
			return ErrUnbound{Kind: "hole", Name: n.Name}
		}
		em.op(tHole, i, 1, 0)
	case Bin:
		code, ok := binOpCode(n.Op)
		if !ok {
			return fmt.Errorf("expr: unknown binop %v", n.Op)
		}
		if err := em.num(n.L); err != nil {
			return err
		}
		if err := em.num(n.R); err != nil {
			return err
		}
		em.op(code, 0, -1, 0)
	case Neg:
		if err := em.num(n.X); err != nil {
			return err
		}
		em.op(tNeg, 0, 0, 0)
	case Abs:
		if err := em.num(n.X); err != nil {
			return err
		}
		em.op(tAbs, 0, 0, 0)
	case If:
		if err := em.boolean(n.Cond); err != nil {
			return err
		}
		if err := em.num(n.Then); err != nil {
			return err
		}
		if err := em.num(n.Else); err != nil {
			return err
		}
		em.op(tSelect, 0, -1, -1)
	default:
		return fmt.Errorf("expr: unknown node %T", e)
	}
	return nil
}

func (em *emitter) boolean(b BoolExpr) error {
	switch n := b.(type) {
	case BoolConst:
		arg := 0
		if n.Value {
			arg = 1
		}
		em.op(tBoolConst, arg, 0, 1)
	case Cmp:
		if err := em.num(n.L); err != nil {
			return err
		}
		if err := em.num(n.R); err != nil {
			return err
		}
		em.op(cmpOpCode(n.Op), 0, -2, 1)
	case BoolBin:
		if err := em.boolean(n.L); err != nil {
			return err
		}
		if err := em.boolean(n.R); err != nil {
			return err
		}
		if n.Op == OpAnd {
			em.op(tAnd, 0, 0, -1)
		} else {
			em.op(tOr, 0, 0, -1)
		}
	case Not:
		if err := em.boolean(n.X); err != nil {
			return err
		}
		em.op(tNot, 0, 0, 0)
	default:
		return fmt.Errorf("expr: unknown bool node %T", b)
	}
	return nil
}

// binOpCode maps a numeric binary operator to its tape opcode.
func binOpCode(op BinOp) (tapeCode, bool) {
	switch op {
	case OpAdd:
		return tAdd, true
	case OpSub:
		return tSub, true
	case OpMul:
		return tMul, true
	case OpDiv:
		return tDiv, true
	case OpMin:
		return tMin, true
	case OpMax:
		return tMax, true
	}
	return 0, false
}

// cmpOpCode maps a comparison operator to its tape opcode.
func cmpOpCode(op CmpOp) tapeCode {
	switch op {
	case CmpGE:
		return tCmpGE
	case CmpLE:
		return tCmpLE
	case CmpGT:
		return tCmpGT
	case CmpLT:
		return tCmpLT
	}
	return tCmpEQ
}

// tapeCmpOp inverts cmpOpCode for the box batch, which reuses
// cmpInterval keyed by CmpOp.
func tapeCmpOp(code tapeCode) CmpOp {
	switch code {
	case tCmpGE:
		return CmpGE
	case tCmpLE:
		return CmpLE
	case tCmpGT:
		return CmpGT
	case tCmpLT:
		return CmpLT
	}
	return CmpEQ
}
