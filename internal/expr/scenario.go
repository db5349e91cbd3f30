package expr

import "math"

// Scenario lanes that keep their rows: the register form of the tape.
//
// The stack loop (evalBatch) reuses a few stack rows, so every pass
// starts from nothing. A ScenarioBatch instead gives each instruction
// its own lane row and keeps every row after a pass: variable leaves
// read the variable rows in place, and each hole and constant is one
// row of a scalar fill. Moving one hole then needs only that hole's
// dependency cone — its fill and the instructions downstream of it —
// re-run into trial rows, with every other operand read from the kept
// rows. The tape is select-lowered, so both branches of every If always
// run: a row outside the cone is exactly what a full pass at the moved
// vector computes, and a move's output is bit-identical to that pass.
// On the SWAN body a move runs 4–6 of the 24 instructions, on the
// 2-region body 4–7 of 41 (the moved hole's fill included).
//
// Some moves change nothing at all. A cut hole is one that only
// ordering comparisons (>=, <=, >, <) read, each against a row no hole
// reaches: a variable, a constant, or arithmetic over those. Its value
// matters only through which side of each lane it sits on, so moving it
// anywhere between the nearest lane values flips no bit and changes no
// row but its own fill. For each cut hole the batch caches that range,
// intersected over the hole's comparisons, and Unchanged proves a move
// a no-op with two compares instead of a cone run. The SWAN body's two
// thresholds are cut holes, and so are the 2-region body's four.
//
// The register form, its cones and its cuts are derived once per
// Program, on the first NewScenarioBatch, so programs that never move
// pay nothing for them.

// regStep is one instruction of the register form: dst = code(a, c),
// with cond the condition row of a select. Which row space (float or
// bool) each operand indexes follows from the opcode.
type regStep struct {
	code            tapeCode
	dst, a, c, cond int32
}

// regMove is one hole's dependency cone.
type regMove struct {
	fill  int32     // the hole's trial row; -1 when the program never reads the hole
	steps []regStep // the cone's instructions in tape order, written to trial rows
	out   int32     // the row holding the result during a move
	// keepF and keepB pair each trial row the cone writes with the kept
	// row it replaces on Commit.
	keepF, keepB [][2]int32
	// cuts lists a cut hole's comparisons; nil when the hole is not one.
	cuts []regCut
}

// regCut is one comparison of a cut hole with a row no hole reaches.
// With the hole at v0 and the row's lane values a, the comparison's
// bits hold still for every hole value in one of two ranges:
//
//	(max{a < v0}, min{a >= v0}]  when closedHi (a >= ?? and a < ??,
//	                             ?? > a and ?? <= a), else
//	[max{a <= v0}, min{a > v0})  (a > ?? and a <= ??, ?? >= a and ?? < a),
//
// each bound dropped when its set is empty.
type regCut struct {
	row      int32 // the float row compared with the hole
	closedHi bool
}

// regPlan is a program's register form. Float rows are the variable
// rows, then one kept row per hole, constant and float instruction,
// then trialF trial rows; bool rows are one kept row per bool constant
// and instruction, then trialB trial rows. Trial rows are shared by
// every hole's cone, since only one move is pending at a time. Each
// hole's move carries its cone and, for a cut hole, its cuts.
type regPlan struct {
	nF, nB         int // kept float and bool rows
	trialF, trialB int // trial rows: the largest cone's float and bool rows
	consts         []float64
	constRow       []int32   // float constant rows, parallel to consts
	bconstRow      [2]int32  // the false and true constant rows; -1 when unused
	holeRow        []int32   // each hole's kept row; -1 when never read
	steps          []regStep // the full pass in tape order
	out            int32     // the row holding the result
	moves          []regMove // one per hole
}

// regs returns the program's register form, deriving it on first use.
func (p *Program) regs() *regPlan {
	p.regOnce.Do(func() { p.reg = buildRegPlan(p.tape, len(p.vars), len(p.holes)) })
	return p.reg
}

// floatResult reports whether an instruction writes a float row.
func floatResult(code tapeCode) bool {
	switch code {
	case tCmpGE, tCmpLE, tCmpGT, tCmpLT, tCmpEQ, tAnd, tOr, tNot, tBoolConst:
		return false
	}
	return true
}

// buildRegPlan replays the tape's stack discipline over row numbers
// instead of values, giving each instruction the row its result lives
// in and each operand the row its producer wrote, then derives every
// hole's cone and, from the rows the cones reach, its cuts.
func buildRegPlan(t *tape, nVars, nHoles int) *regPlan {
	rp := &regPlan{nF: nVars, bconstRow: [2]int32{-1, -1}, holeRow: make([]int32, nHoles)}
	for i := range rp.holeRow {
		rp.holeRow[i] = -1
	}
	constRow := make(map[int]int32)
	var fst, bst []int32 // the stacks, holding rows
	pop := func(st *[]int32) int32 {
		r := (*st)[len(*st)-1]
		*st = (*st)[:len(*st)-1]
		return r
	}
	for _, in := range t.code {
		arg := int(in & 0xffffff)
		code := tapeCode(in >> 24)
		switch code {
		case tVar:
			fst = append(fst, int32(arg))
			continue
		case tHole:
			if rp.holeRow[arg] < 0 {
				rp.holeRow[arg] = int32(rp.nF)
				rp.nF++
			}
			fst = append(fst, rp.holeRow[arg])
			continue
		case tConst:
			r, ok := constRow[arg]
			if !ok {
				r = int32(rp.nF)
				rp.nF++
				constRow[arg] = r
				rp.consts = append(rp.consts, t.consts[arg])
				rp.constRow = append(rp.constRow, r)
			}
			fst = append(fst, r)
			continue
		case tBoolConst:
			if rp.bconstRow[arg] < 0 {
				rp.bconstRow[arg] = int32(rp.nB)
				rp.nB++
			}
			bst = append(bst, rp.bconstRow[arg])
			continue
		}
		s := regStep{code: code}
		switch code {
		case tNeg, tAbs:
			s.a = pop(&fst)
		case tNot:
			s.a = pop(&bst)
		case tAnd, tOr:
			s.c, s.a = pop(&bst), pop(&bst)
		case tSelect:
			s.c, s.a, s.cond = pop(&fst), pop(&fst), pop(&bst)
		default: // arithmetic and comparisons
			s.c, s.a = pop(&fst), pop(&fst)
		}
		if floatResult(code) {
			s.dst = int32(rp.nF)
			rp.nF++
			fst = append(fst, s.dst)
		} else {
			s.dst = int32(rp.nB)
			rp.nB++
			bst = append(bst, s.dst)
		}
		rp.steps = append(rp.steps, s)
	}
	rp.out = fst[0]
	rp.moves = make([]regMove, nHoles)
	reached := make([]bool, rp.nF)
	for h := range rp.moves {
		rp.moves[h] = rp.cone(h, reached)
	}
	for h := range rp.moves {
		rp.moves[h].cuts = rp.cuts(h, reached)
	}
	return rp
}

// cone derives hole h's move: every instruction that reads the hole,
// directly or through another such instruction, renumbered onto trial
// rows, with operands outside the cone left on their kept rows. It
// marks the cone's kept float rows in reached.
func (rp *regPlan) cone(h int, reached []bool) regMove {
	m := regMove{fill: -1, out: rp.out}
	if rp.holeRow[h] < 0 {
		return m
	}
	// trial maps a kept row to its trial row, or 0 outside the cone
	// (trial rows always follow the kept rows, so 0 is never one).
	trialF := make([]int32, rp.nF)
	trialB := make([]int32, rp.nB)
	nF, nB := int32(rp.nF), int32(rp.nB)
	m.fill = nF
	trialF[rp.holeRow[h]] = nF
	m.keepF = append(m.keepF, [2]int32{nF, rp.holeRow[h]})
	nF++
	// operand resolves a float (or bool) operand row for the cone,
	// reporting whether it is one of the cone's trial rows.
	operand := func(trial []int32, r int32) (int32, bool) {
		if t := trial[r]; t != 0 {
			return t, true
		}
		return r, false
	}
	for _, s := range rp.steps {
		ts := s
		var inA, inC, inCond bool
		switch s.code {
		case tNeg, tAbs:
			ts.a, inA = operand(trialF, s.a)
		case tNot:
			ts.a, inA = operand(trialB, s.a)
		case tAnd, tOr:
			ts.a, inA = operand(trialB, s.a)
			ts.c, inC = operand(trialB, s.c)
		case tSelect:
			ts.a, inA = operand(trialF, s.a)
			ts.c, inC = operand(trialF, s.c)
			ts.cond, inCond = operand(trialB, s.cond)
		default:
			ts.a, inA = operand(trialF, s.a)
			ts.c, inC = operand(trialF, s.c)
		}
		if !inA && !inC && !inCond {
			continue
		}
		if floatResult(s.code) {
			ts.dst, trialF[s.dst] = nF, nF
			m.keepF = append(m.keepF, [2]int32{nF, s.dst})
			nF++
		} else {
			ts.dst, trialB[s.dst] = nB, nB
			m.keepB = append(m.keepB, [2]int32{nB, s.dst})
			nB++
		}
		m.steps = append(m.steps, ts)
	}
	if t := trialF[rp.out]; t != 0 {
		m.out = t
	}
	for r, t := range trialF {
		if t != 0 {
			reached[r] = true
		}
	}
	rp.trialF = max(rp.trialF, int(nF)-rp.nF)
	rp.trialB = max(rp.trialB, int(nB)-rp.nB)
	return m
}

// cuts returns hole h's comparisons when it is a cut hole: every
// instruction that reads it is an ordering comparison against a float
// row no hole reaches. It returns nil for any other reader (arithmetic,
// a select operand, a comparison with a reached row or with ==), for a
// hole that is itself the result, and for one the program never reads.
func (rp *regPlan) cuts(h int, reached []bool) []regCut {
	r := rp.holeRow[h]
	if r < 0 || r == rp.out {
		return nil
	}
	var cuts []regCut
	for _, s := range rp.steps {
		a, c := s.a, s.c
		switch s.code {
		case tNot, tAnd, tOr:
			continue // bool operands only
		case tNeg, tAbs:
			c = -1
		}
		if a != r && c != r {
			continue
		}
		switch s.code {
		case tCmpGE, tCmpLE, tCmpGT, tCmpLT:
		default:
			return nil
		}
		// right: the hole is the comparison's right operand.
		right, other := a != r, c
		if right {
			other = a
		}
		if reached[other] {
			return nil
		}
		cuts = append(cuts, regCut{row: other, closedHi: (s.code == tCmpGE || s.code == tCmpLT) == right})
	}
	return cuts
}

// ScenarioBatch evaluates one Program at one hole vector over up to
// Lanes variable lanes, keeping every instruction's lane row so that a
// single hole can move without a full pass. Load lanes with SetVars,
// run a full pass with Eval, then try hole values with Move and adopt
// one with Commit; Unchanged tells, without running anything, when a
// move would change no row. Every column it returns aliases the batch.
// A batch is bound to the Program it was made for and is not safe for
// concurrent use.
type ScenarioBatch struct {
	rp    *regPlan
	lanes int
	n     int       // lanes of the last Eval
	f     []float64 // float rows, lanes values each
	bl    []bool    // bool rows, lanes values each
	// fresh reports that the kept rows hold a pass over the current
	// variable lanes; moved and movedBits name the pending trial (moved
	// is -1 when there is none).
	fresh     bool
	moved     int
	movedBits uint64
	// holes is the hole vector of the kept rows. For a cut hole h,
	// [cutLo[h], cutHi[h]] is the range Unchanged accepts, valid while
	// cutOK[h]; Eval clears every cutOK and a Commit of h clears its own.
	holes        []float64
	cutLo, cutHi []float64
	cutOK        []bool
}

// NewScenarioBatch allocates a scenario batch of the given lane width
// for p.
func NewScenarioBatch(p *Program, lanes int) *ScenarioBatch {
	rp := p.regs()
	nh := len(rp.holeRow)
	b := &ScenarioBatch{
		rp:    rp,
		lanes: lanes,
		f:     make([]float64, (rp.nF+rp.trialF)*lanes),
		bl:    make([]bool, (rp.nB+rp.trialB)*lanes),
		moved: -1,
		holes: make([]float64, nh),
		cutLo: make([]float64, nh),
		cutHi: make([]float64, nh),
		cutOK: make([]bool, nh),
	}
	// Constant rows never change, so they are filled once, at full
	// width.
	for i, r := range rp.constRow {
		fillLanes(laneRow(b.f, r, lanes, lanes), rp.consts[i])
	}
	for v, r := range rp.bconstRow {
		if r >= 0 {
			fillBoolLanes(laneRow(b.bl, r, lanes, lanes), v != 0)
		}
	}
	return b
}

// Lanes returns the batch's lane capacity.
func (b *ScenarioBatch) Lanes() int { return b.lanes }

// SetVars loads lane l's variable values. The kept rows no longer
// match the lanes, so the next Move must follow a new Eval.
func (b *ScenarioBatch) SetVars(l int, vars []float64) {
	for i, v := range vars {
		b.f[i*b.lanes+l] = v
	}
	b.fresh = false
}

// Eval runs the whole program at the hole vector over the first n
// lanes and keeps every row. It returns the output column.
func (b *ScenarioBatch) Eval(holes []float64, n int) []float64 {
	if n > b.lanes {
		panic("expr: ScenarioBatch.Eval lane count exceeds batch capacity")
	}
	b.n = n
	for h, r := range b.rp.holeRow {
		if r >= 0 {
			fillLanes(b.frow(r), holes[h])
		}
	}
	b.run(b.rp.steps)
	b.fresh, b.moved = true, -1
	copy(b.holes, holes)
	clear(b.cutOK)
	return b.Outs()
}

// Move returns the output column the program would give if hole h
// alone changed to v, re-running only h's cone into trial rows. The
// kept rows are untouched until Commit. Move panics when the variable
// lanes changed since the last Eval, whose rows it would build on.
func (b *ScenarioBatch) Move(h int, v float64) []float64 {
	if !b.fresh {
		panic("expr: ScenarioBatch.Move needs an Eval of the current variable lanes")
	}
	m := &b.rp.moves[h]
	if m.fill >= 0 {
		fillLanes(b.frow(m.fill), v)
		b.run(m.steps)
	}
	b.moved, b.movedBits = h, math.Float64bits(v)
	return b.frow(m.out)
}

// Commit adopts hole h = v into the kept rows, so later moves and Outs
// build on it. It re-runs the move unless it is the pending one.
func (b *ScenarioBatch) Commit(h int, v float64) {
	if b.moved != h || b.movedBits != math.Float64bits(v) {
		b.Move(h, v)
	}
	m := &b.rp.moves[h]
	for _, p := range m.keepF {
		copy(b.frow(p[1]), b.frow(p[0]))
	}
	for _, p := range m.keepB {
		copy(b.brow(p[1]), b.brow(p[0]))
	}
	b.moved = -1
	b.holes[h], b.cutOK[h] = v, false
}

// Unchanged reports whether Move(h, v) is proven to change no row but
// h's own fill, so that its output column equals Outs bit for bit: h
// is never read, or h is a cut hole and v lies inside every one of its
// cuts' ranges (regCut) on the live lanes. The range is derived from
// the kept rows on the first call after an Eval or a Commit of h; each
// later call costs two compares. A false answer proves nothing, and a
// NaN v or a NaN current value of h never answers true for a hole the
// program reads. Unchanged leaves a pending move alone and, like Move,
// panics when the variable lanes changed since the last Eval.
func (b *ScenarioBatch) Unchanged(h int, v float64) bool {
	if !b.fresh {
		panic("expr: ScenarioBatch.Unchanged needs an Eval of the current variable lanes")
	}
	m := &b.rp.moves[h]
	if m.cuts == nil {
		return m.fill < 0
	}
	if !b.cutOK[h] {
		b.cutLo[h], b.cutHi[h] = b.cutRange(m.cuts, b.holes[h])
		b.cutOK[h] = true
	}
	return b.cutLo[h] <= v && v <= b.cutHi[h]
}

// cutRange returns the closed range [lo, hi] of hole values at which
// none of cuts flips a live lane's bit, the hole standing at v0. An
// open end is stepped one ulp inward, which is exact on floats, and a
// NaN v0 gives an empty range. A NaN lane compares false at every hole
// value, so it bounds nothing; -0 and +0 compare equal, as in the
// kernels.
func (b *ScenarioBatch) cutRange(cuts []regCut, v0 float64) (lo, hi float64) {
	if v0 != v0 {
		return math.Inf(1), math.Inf(-1)
	}
	lo, hi = math.Inf(-1), math.Inf(1)
	for _, c := range cuts {
		// below and above are the nearest lane values on either side of
		// v0; a lane equal to v0 sits above when closedHi.
		below, above := math.Inf(-1), math.Inf(1)
		anyBelow, anyAbove := false, false
		for _, a := range b.frow(c.row) {
			if a < v0 || a == v0 && !c.closedHi {
				below, anyBelow = max(below, a), true
			} else if a == a {
				above, anyAbove = min(above, a), true
			}
		}
		if c.closedHi && anyBelow {
			below = nextUp(below)
		}
		if !c.closedHi && anyAbove {
			above = -nextUp(-above)
		}
		lo, hi = max(lo, below), min(hi, above)
	}
	return lo, hi
}

// nextUp returns the least float above x, which is neither NaN nor
// +Inf; both zeros step to the least subnormal.
func nextUp(x float64) float64 {
	switch {
	case x == 0:
		return math.SmallestNonzeroFloat64
	case x > 0:
		return math.Float64frombits(math.Float64bits(x) + 1)
	}
	return math.Float64frombits(math.Float64bits(x) - 1)
}

// Outs returns the output column of the kept rows: the last Eval with
// every commit since applied.
func (b *ScenarioBatch) Outs() []float64 { return b.frow(b.rp.out) }

// laneRow returns row r of column-major rows of k lanes, sliced to its
// first n lanes.
func laneRow[T float64 | bool | int8](rows []T, r int32, k, n int) []T {
	o := int(r) * k
	return rows[o : o+n]
}

func (b *ScenarioBatch) frow(r int32) []float64 { return laneRow(b.f, r, b.lanes, b.n) }

func (b *ScenarioBatch) brow(r int32) []bool { return laneRow(b.bl, r, b.lanes, b.n) }

// run executes register-form steps over the first n lanes, each with
// its lane kernel (lanes.go).
func (b *ScenarioBatch) run(steps []regStep) {
	f, bl, k, n := b.f, b.bl, b.lanes, b.n
	for _, s := range steps {
		switch s.code {
		case tAdd:
			addLanes(laneRow(f, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tSub:
			subLanes(laneRow(f, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tMul:
			mulLanes(laneRow(f, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tDiv:
			divLanes(laneRow(f, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tMin:
			minLanes(laneRow(f, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tMax:
			maxLanes(laneRow(f, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tNeg:
			negLanes(laneRow(f, s.dst, k, n), laneRow(f, s.a, k, n))
		case tAbs:
			absLanes(laneRow(f, s.dst, k, n), laneRow(f, s.a, k, n))
		case tCmpGE:
			geLanes(laneRow(bl, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tCmpLE:
			leLanes(laneRow(bl, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tCmpGT:
			gtLanes(laneRow(bl, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tCmpLT:
			ltLanes(laneRow(bl, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tCmpEQ:
			eqLanes(laneRow(bl, s.dst, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		case tAnd:
			andLanes(laneRow(bl, s.dst, k, n), laneRow(bl, s.a, k, n), laneRow(bl, s.c, k, n))
		case tOr:
			orLanes(laneRow(bl, s.dst, k, n), laneRow(bl, s.a, k, n), laneRow(bl, s.c, k, n))
		case tNot:
			notLanes(laneRow(bl, s.dst, k, n), laneRow(bl, s.a, k, n))
		case tSelect:
			selectLanes(laneRow(f, s.dst, k, n), laneRow(bl, s.cond, k, n), laneRow(f, s.a, k, n), laneRow(f, s.c, k, n))
		}
	}
}
