package expr

import (
	"math"

	"compsynth/internal/interval"
)

// Box lanes that keep their rows: the interval twin of ScenarioBatch.
//
// Branch-and-prune decides a box by bounding every constraint over it.
// A ScenarioBoxBatch does that the way repair evaluates a hole vector:
// one pass of the body over scenario lanes, each lane's variables held
// as degenerate intervals, with the box's hole intervals broadcast. It
// runs ScenarioBatch's register form (the same steps, cones, kept and
// trial rows) with interval kernels: a float row is a pair of Lo and Hi
// rows, and a bool row holds Tri values. Each kernel applies the scalar
// interval operation lane by lane (internal/interval's *Lanes helpers,
// cmpInterval, triAnd, triOr, and a select that takes the hull on
// TriUnknown), so lane l is bit for bit what EvalInterval computes at
// lane l's variables and the box.
//
// Neighbouring frontier boxes differ in few holes: a split's children
// differ only in the split hole. Eval therefore keeps every row and,
// when the cones of the holes whose bounds changed together run fewer
// steps than a full pass, reaches the new box one cone move at a time:
// the hole's fill, its cone into the trial rows, and the copies over
// the kept rows. The tape is select-lowered, so every row outside the
// moved cones is what a full pass at the new box computes, and the
// rows after the moves are bit for bit that pass.

// ScenarioBoxBatch evaluates one Program at one hole box over up to
// Lanes variable lanes in interval arithmetic, keeping every
// instruction's lane rows so that the next box re-runs only the cones
// of the holes that changed. Load lanes with SetVars, then call Eval
// with each box in turn. The columns it returns alias the batch. A
// batch is bound to the Program it was made for and is not safe for
// concurrent use.
type ScenarioBoxBatch struct {
	rp     *regPlan
	lanes  int
	n      int       // lanes of the kept rows
	lo, hi []float64 // float rows: each lane's bounds
	tri    []int8    // bool rows: each lane's Tri
	// fresh reports that the kept rows hold a pass at box over the
	// current variable lanes.
	fresh   bool
	box     []interval.Interval
	changed []int // the holes the pending cone moves change
}

// NewScenarioBoxBatch allocates a box batch of the given lane width for
// p.
func NewScenarioBoxBatch(p *Program, lanes int) *ScenarioBoxBatch {
	rp := p.regs()
	nh := len(rp.holeRow)
	b := &ScenarioBoxBatch{
		rp:      rp,
		lanes:   lanes,
		lo:      make([]float64, (rp.nF+rp.trialF)*lanes),
		hi:      make([]float64, (rp.nF+rp.trialF)*lanes),
		tri:     make([]int8, (rp.nB+rp.trialB)*lanes),
		box:     make([]interval.Interval, nh),
		changed: make([]int, 0, nh),
	}
	// Constant rows never change, so they are filled once, at full
	// width.
	for i, r := range rp.constRow {
		fillLanes(laneRow(b.lo, r, lanes, lanes), rp.consts[i])
		fillLanes(laneRow(b.hi, r, lanes, lanes), rp.consts[i])
	}
	for v, r := range rp.bconstRow {
		if r >= 0 {
			t := int8(TriFalse)
			if v != 0 {
				t = int8(TriTrue)
			}
			row := laneRow(b.tri, r, lanes, lanes)
			for l := range row {
				row[l] = t
			}
		}
	}
	return b
}

// Lanes returns the batch's lane capacity.
func (b *ScenarioBoxBatch) Lanes() int { return b.lanes }

// SetVars loads lane l's variable values. The kept rows no longer
// match the lanes, so the next Eval runs a full pass.
func (b *ScenarioBoxBatch) SetVars(l int, vars []float64) {
	for i, v := range vars {
		b.lo[i*b.lanes+l], b.hi[i*b.lanes+l] = v, v
	}
	b.fresh = false
}

// Eval brings the kept rows to the hole box over the first n lanes and
// returns the output columns. It moves the holes whose bounds differ
// from the last Eval's bit for bit, one cone at a time, when their cones
// together run fewer steps than a full pass over the same lanes, and
// runs the full pass otherwise. Either way every row ends bit for bit
// what a full pass at box computes.
func (b *ScenarioBoxBatch) Eval(box []interval.Interval, n int) (lo, hi []float64) {
	if b.coneMoves(box, n) {
		for _, h := range b.changed {
			b.move(h, box[h])
		}
	} else {
		b.full(box, n)
	}
	return b.frow(b.rp.out)
}

// coneMoves lists in changed the holes whose bounds differ from the
// kept box bit for bit, and reports whether Eval reaches box by moving
// them: the kept rows are a pass over the same n lanes, and the moved
// cones run fewer steps than a full pass.
func (b *ScenarioBoxBatch) coneMoves(box []interval.Interval, n int) bool {
	if !b.fresh || n != b.n {
		return false
	}
	b.changed = b.changed[:0]
	steps := 0
	for h, iv := range box {
		k := b.box[h]
		if math.Float64bits(iv.Lo) != math.Float64bits(k.Lo) || math.Float64bits(iv.Hi) != math.Float64bits(k.Hi) {
			b.changed = append(b.changed, h)
			steps += len(b.rp.moves[h].steps)
		}
	}
	return steps < len(b.rp.steps)
}

// full runs the whole program at box over the first n lanes.
func (b *ScenarioBoxBatch) full(box []interval.Interval, n int) {
	if n > b.lanes {
		panic("expr: ScenarioBoxBatch.Eval lane count exceeds batch capacity")
	}
	b.n = n
	for h, r := range b.rp.holeRow {
		if r >= 0 {
			b.fill(r, box[h])
		}
	}
	b.run(b.rp.steps)
	copy(b.box, box)
	b.fresh = true
}

// move brings the kept rows to hole h = iv: the hole's fill and cone
// into the trial rows, then the copies over the kept rows they replace.
func (b *ScenarioBoxBatch) move(h int, iv interval.Interval) {
	m := &b.rp.moves[h]
	if m.fill >= 0 {
		b.fill(m.fill, iv)
		b.run(m.steps)
		for _, p := range m.keepF {
			lo, hi := b.frow(p[0])
			klo, khi := b.frow(p[1])
			copy(klo, lo)
			copy(khi, hi)
		}
		for _, p := range m.keepB {
			copy(laneRow(b.tri, p[1], b.lanes, b.n), laneRow(b.tri, p[0], b.lanes, b.n))
		}
	}
	b.box[h] = iv
}

// fill broadcasts iv over float row r.
func (b *ScenarioBoxBatch) fill(r int32, iv interval.Interval) {
	lo, hi := b.frow(r)
	fillLanes(lo, iv.Lo)
	fillLanes(hi, iv.Hi)
}

// frow returns float row r's bounds over the first n lanes.
func (b *ScenarioBoxBatch) frow(r int32) (lo, hi []float64) {
	return laneRow(b.lo, r, b.lanes, b.n), laneRow(b.hi, r, b.lanes, b.n)
}

// run executes register-form steps over the first n lanes, each with
// its interval kernel.
func (b *ScenarioBoxBatch) run(steps []regStep) {
	lo, hi, tr, k, n := b.lo, b.hi, b.tri, b.lanes, b.n
	for _, s := range steps {
		d, a, c := int(s.dst)*k, int(s.a)*k, int(s.c)*k
		switch s.code {
		case tAdd:
			interval.AddLanes(n, lo[d:], hi[d:], lo[a:], hi[a:], lo[c:], hi[c:])
		case tSub:
			interval.SubLanes(n, lo[d:], hi[d:], lo[a:], hi[a:], lo[c:], hi[c:])
		case tMul:
			interval.MulLanes(n, lo[d:], hi[d:], lo[a:], hi[a:], lo[c:], hi[c:])
		case tDiv:
			interval.DivLanes(n, lo[d:], hi[d:], lo[a:], hi[a:], lo[c:], hi[c:])
		case tMin:
			interval.MinLanes(n, lo[d:], hi[d:], lo[a:], hi[a:], lo[c:], hi[c:])
		case tMax:
			interval.MaxLanes(n, lo[d:], hi[d:], lo[a:], hi[a:], lo[c:], hi[c:])
		case tNeg:
			interval.NegLanes(n, lo[d:], hi[d:], lo[a:], hi[a:])
		case tAbs:
			interval.AbsLanes(n, lo[d:], hi[d:], lo[a:], hi[a:])
		case tCmpGE, tCmpLE, tCmpGT, tCmpLT, tCmpEQ:
			cmpTriLanes(tapeCmpOp(s.code), tr[d:d+n], lo[a:], hi[a:], lo[c:], hi[c:])
		case tAnd:
			andTriLanes(tr[d:d+n], tr[a:], tr[c:])
		case tOr:
			orTriLanes(tr[d:d+n], tr[a:], tr[c:])
		case tNot:
			notTriLanes(tr[d:d+n], tr[a:])
		case tSelect:
			cond := int(s.cond) * k
			selectTriLanes(lo[d:d+n], hi[d:d+n], tr[cond:], lo[a:], hi[a:], lo[c:], hi[c:])
		}
	}
}

// The three-valued kernels. Like the point kernels (lanes.go), each
// writes lane l of dst from lane l of its operands, which are at least
// as long as dst.

func cmpTriLanes(op CmpOp, dst []int8, aLo, aHi, cLo, cHi []float64) {
	aLo, aHi, cLo, cHi = aLo[:len(dst)], aHi[:len(dst)], cLo[:len(dst)], cHi[:len(dst)]
	for l := range dst {
		dst[l] = int8(cmpInterval(op, interval.Interval{Lo: aLo[l], Hi: aHi[l]}, interval.Interval{Lo: cLo[l], Hi: cHi[l]}))
	}
}

func andTriLanes(dst, p, q []int8) {
	p, q = p[:len(dst)], q[:len(dst)]
	for l := range dst {
		dst[l] = int8(triAnd(Tri(p[l]), Tri(q[l])))
	}
}

func orTriLanes(dst, p, q []int8) {
	p, q = p[:len(dst)], q[:len(dst)]
	for l := range dst {
		dst[l] = int8(triOr(Tri(p[l]), Tri(q[l])))
	}
}

func notTriLanes(dst, p []int8) {
	p = p[:len(dst)]
	for l := range dst {
		switch Tri(p[l]) {
		case TriTrue:
			dst[l] = int8(TriFalse)
		case TriFalse:
			dst[l] = int8(TriTrue)
		default:
			dst[l] = int8(TriUnknown)
		}
	}
}

// selectTriLanes keeps a where cond is TriTrue, c where it is
// TriFalse, and their hull where it is TriUnknown.
func selectTriLanes(dLo, dHi []float64, cond []int8, aLo, aHi, cLo, cHi []float64) {
	n := len(dLo)
	dHi, cond = dHi[:n], cond[:n]
	aLo, aHi, cLo, cHi = aLo[:n], aHi[:n], cLo[:n], cHi[:n]
	for l := range dLo {
		switch Tri(cond[l]) {
		case TriTrue:
			dLo[l], dHi[l] = aLo[l], aHi[l]
		case TriFalse:
			dLo[l], dHi[l] = cLo[l], cHi[l]
		default:
			u := interval.Interval{Lo: aLo[l], Hi: aHi[l]}.Union(interval.Interval{Lo: cLo[l], Hi: cHi[l]})
			dLo[l], dHi[l] = u.Lo, u.Hi
		}
	}
}
