package expr

import (
	"fmt"
	"math"
)

// Tape compilation: every Program is lowered by one emitter into two
// postfix instruction streams over value stacks.
//
//   - The jump tape (this file) evaluates single points. If lowers to
//     conditional jumps, so only the taken branch runs, and the stacks
//     are fixed-size arrays in eval's frame: zero heap traffic per
//     Eval, and a contiguous instruction slice instead of a tree walk.
//   - The flat tape (flat.go) evaluates lanes of points or boxes
//     (batch.go). If lowers to straight-line code ending in tSelect,
//     because lanes may take different branches and a box's condition
//     may be undecided. Its stacks are sized from the emitter's
//     high-water marks, with no cap.
//
// Instructions are packed into 4 bytes (8-bit opcode, 24-bit operand;
// float immediates live in a per-tape constant pool) so that even a
// solver system holding dozens of specialized constraint tapes keeps a
// small instruction footprint.
//
// Both tapes preserve evaluation semantics exactly: operands are
// evaluated left-to-right, both sides of boolean connectives are
// evaluated (no short-circuit, matching Eval), and a select discards a
// branch value whose computation is unobservable (evaluation is pure
// and total). The differential fuzz tests hold both tapes to the AST
// interpreter in eval.go.

// tapeCode enumerates tape instructions.
type tapeCode uint32

const (
	tConst      tapeCode = iota // push consts[arg] onto the float stack
	tVar                        // push vars[arg]
	tHole                       // push holes[arg]
	tAdd                        // pop b, a; push a+b
	tSub                        // pop b, a; push a-b
	tMul                        // pop b, a; push a*b
	tDiv                        // pop b, a; push a/b
	tMin                        // pop b, a; push min(a, b)
	tMax                        // pop b, a; push max(a, b)
	tNeg                        // negate top of float stack
	tAbs                        // absolute value of top of float stack
	tCmpGE                      // pop b, a; push a>=b onto the bool stack
	tCmpLE                      // pop b, a; push a<=b
	tCmpGT                      // pop b, a; push a>b
	tCmpLT                      // pop b, a; push a<b
	tCmpEQ                      // pop b, a; push a==b
	tAnd                        // pop q, p; push p&&q
	tOr                         // pop q, p; push p||q
	tNot                        // invert top of bool stack
	tBoolConst                  // push arg != 0 onto the bool stack
	tJmp                        // jump tape only: jump to arg
	tJmpIfFalse                 // jump tape only: pop bool; jump to arg when false
	tSelect                     // flat tape only: pop else, then, cond; push taken value
)

// Stack sizes of the jump tape's fixed arrays, and the operand width of
// the packed encoding. Objective sketches are shallow (the SWAN family
// needs < 8 float slots), and the arrays are deliberately small: eval
// zero-initializes both on every call, so their combined size is
// per-evaluation overhead. Programs deeper than the arrays get no jump
// tape; Program.Eval runs them as a 1-lane flat batch instead.
const (
	tapeMaxFloat = 16
	tapeMaxBool  = 8
	tapeMaxArg   = 1<<24 - 1
)

// tape is the jump tape. Each instruction packs the opcode into the top
// 8 bits and the operand (constant-pool index, variable/hole slot, jump
// target, or tBoolConst value) into the low 24.
type tape struct {
	code   []uint32
	consts []float64
}

func packInstr(code tapeCode, arg int) uint32 {
	return uint32(code)<<24 | uint32(arg)
}

// emitter lowers one expression into one tape. jumps selects the jump
// tape's lowering of If over the flat tape's select. Names resolve
// against the variable and hole slot maps (an unknown one is
// ErrUnbound), and
// the float and bool stack depths are tracked instruction by
// instruction, so maxF and maxB are exactly the stacks the tape needs.
type emitter struct {
	jumps           bool
	varIdx, holeIdx map[string]int
	code            []uint32
	consts          []float64
	f, b            int // stack depths after the last instruction
	maxF, maxB      int // their high-water marks
}

// op appends one instruction that moves the stacks by df floats and db
// bools, and returns its index.
func (em *emitter) op(code tapeCode, arg, df, db int) int {
	em.code = append(em.code, packInstr(code, arg))
	em.f += df
	em.b += db
	em.maxF = max(em.maxF, em.f)
	em.maxB = max(em.maxB, em.b)
	return len(em.code) - 1
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
		if !em.jumps {
			if err := em.num(n.Then); err != nil {
				return err
			}
			if err := em.num(n.Else); err != nil {
				return err
			}
			em.op(tSelect, 0, -1, -1)
			return nil
		}
		toElse := em.op(tJmpIfFalse, 0, 0, -1)
		f, b := em.f, em.b
		if err := em.num(n.Then); err != nil {
			return err
		}
		toEnd := em.op(tJmp, 0, 0, 0)
		// The else label: reached by the jump, where the then-value was
		// never pushed.
		em.code[toElse] = packInstr(tJmpIfFalse, len(em.code))
		em.f, em.b = f, b
		if err := em.num(n.Else); err != nil {
			return err
		}
		em.code[toEnd] = packInstr(tJmp, len(em.code))
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

// tapeCmpOp inverts cmpOpCode for the interval interpreter, which
// reuses cmpInterval keyed by CmpOp.
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

// eval runs the tape. The stacks live in the goroutine's stack frame,
// so concurrent evaluation of a shared tape is safe and allocation-free.
//
// The top float value is cached in a register (top) rather than the
// spill array: pushes spill the previous top, binary ops combine the
// spilled second operand into the register, and only multi-value pops
// (comparisons) reload. The invariant is that logical stack item i
// (0-based, depth fsp) lives in fs[i+1] for i < fsp-1 and in top for
// i = fsp-1; fs[0] and the slot under a freshly-computed top are dead.
// This halves the memory traffic of the interpreter loop.
func (t *tape) eval(vars, holes []float64) float64 {
	var fs [tapeMaxFloat]float64
	var bs [tapeMaxBool]bool
	var top float64
	fsp, bsp := 0, 0
	code := t.code
	consts := t.consts
	for pc := 0; pc < len(code); pc++ {
		in := code[pc]
		arg := in & 0xffffff
		switch tapeCode(in >> 24) {
		case tConst:
			fs[fsp] = top
			fsp++
			top = consts[arg]
		case tVar:
			fs[fsp] = top
			fsp++
			top = vars[arg]
		case tHole:
			fs[fsp] = top
			fsp++
			top = holes[arg]
		case tAdd:
			fsp--
			top = fs[fsp] + top
		case tSub:
			fsp--
			top = fs[fsp] - top
		case tMul:
			fsp--
			top = fs[fsp] * top
		case tDiv:
			fsp--
			top = fs[fsp] / top
		case tMin:
			// Builtin min/max match math.Min/math.Max exactly for float64
			// (NaN in → NaN out, -0 sorts below +0, Go spec §builtins), so
			// every engine — tree walker and both tapes — uses them; the
			// differential fuzz test pins the engines to each other.
			fsp--
			top = min(fs[fsp], top)
		case tMax:
			fsp--
			top = max(fs[fsp], top)
		case tNeg:
			top = -top
		case tAbs:
			top = math.Abs(top)
		case tCmpGE:
			bs[bsp] = fs[fsp-1] >= top
			bsp++
			fsp -= 2
			top = fs[fsp]
		case tCmpLE:
			bs[bsp] = fs[fsp-1] <= top
			bsp++
			fsp -= 2
			top = fs[fsp]
		case tCmpGT:
			bs[bsp] = fs[fsp-1] > top
			bsp++
			fsp -= 2
			top = fs[fsp]
		case tCmpLT:
			bs[bsp] = fs[fsp-1] < top
			bsp++
			fsp -= 2
			top = fs[fsp]
		case tCmpEQ:
			bs[bsp] = fs[fsp-1] == top
			bsp++
			fsp -= 2
			top = fs[fsp]
		case tAnd:
			bsp--
			bs[bsp-1] = bs[bsp-1] && bs[bsp]
		case tOr:
			bsp--
			bs[bsp-1] = bs[bsp-1] || bs[bsp]
		case tNot:
			bs[bsp-1] = !bs[bsp-1]
		case tBoolConst:
			bs[bsp] = arg != 0
			bsp++
		case tJmp:
			pc = int(arg) - 1
		case tJmpIfFalse:
			bsp--
			if !bs[bsp] {
				pc = int(arg) - 1
			}
		}
	}
	return top
}
