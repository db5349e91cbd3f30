package expr

import (
	"compsynth/internal/interval"
)

// Batched evaluation: structure-of-arrays lanes over the tape.
//
// A batch holds K independent inputs (boxes or points) in column-major
// lane storage — component row r of an input occupies indices
// [r*lanes, r*lanes+n) — and the interpreter's stacks are lane rows of
// the same shape, so one pass over the instruction stream evaluates the
// program for all K lanes: dispatch cost is amortized 1/K and the lane
// loops over contiguous float64 slices are what the hot path spends its
// time in. Lane l's result is exactly what evaluating lane l's input on
// its own produces (the lane ops are the scalar ops applied
// elementwise; see internal/interval lanes.go), which is what lets the
// solver batch its sweeps without perturbing any transcript. A batch's
// stack rows grow to the deepest program it has evaluated.

// IntervalBatch is reusable scratch for evaluating programs over up to
// Lanes boxes per pass. Construct once (NewIntervalBatch), load lanes
// with SetVars/SetHoles, evaluate with Program.EvalIntervalBatch, read
// results with Out. A batch is not safe for concurrent use; give each
// worker its own.
type IntervalBatch struct {
	lanes int

	varsLo, varsHi   []float64
	holesLo, holesHi []float64
	outLo, outHi     []float64

	fsLo, fsHi []float64 // float stack rows of lanes values
	ts         []int8    // Tri stack rows
}

// NewIntervalBatch allocates a batch of the given lane width for
// programs with the given variable and hole counts.
func NewIntervalBatch(nVars, nHoles, lanes int) *IntervalBatch {
	return &IntervalBatch{
		lanes:   lanes,
		varsLo:  make([]float64, nVars*lanes),
		varsHi:  make([]float64, nVars*lanes),
		holesLo: make([]float64, nHoles*lanes),
		holesHi: make([]float64, nHoles*lanes),
		outLo:   make([]float64, lanes),
		outHi:   make([]float64, lanes),
	}
}

// Lanes returns the batch's lane capacity.
func (b *IntervalBatch) Lanes() int { return b.lanes }

// SetVars loads lane l's variable box (positional per the program's
// variable ordering).
func (b *IntervalBatch) SetVars(l int, vars []interval.Interval) {
	for i, iv := range vars {
		b.varsLo[i*b.lanes+l] = iv.Lo
		b.varsHi[i*b.lanes+l] = iv.Hi
	}
}

// SetHoles loads lane l's hole box.
func (b *IntervalBatch) SetHoles(l int, holes []interval.Interval) {
	for i, iv := range holes {
		b.holesLo[i*b.lanes+l] = iv.Lo
		b.holesHi[i*b.lanes+l] = iv.Hi
	}
}

// Out returns lane l's result from the last evaluation.
func (b *IntervalBatch) Out(l int) interval.Interval {
	return interval.Interval{Lo: b.outLo[l], Hi: b.outHi[l]}
}

// Outs returns the result columns for the first n lanes. The slices
// alias the batch and are overwritten by the next evaluation.
func (b *IntervalBatch) Outs(n int) (lo, hi []float64) {
	return b.outLo[:n], b.outHi[:n]
}

// EvalIntervalBatch evaluates the program over the first n lanes of b.
func (p *Program) EvalIntervalBatch(b *IntervalBatch, n int) {
	if n > b.lanes {
		panic("expr: EvalIntervalBatch lane count exceeds batch capacity")
	}
	t := p.tape
	if len(b.fsLo) < t.maxF*b.lanes {
		b.fsLo = make([]float64, t.maxF*b.lanes)
		b.fsHi = make([]float64, t.maxF*b.lanes)
	}
	if len(b.ts) < t.maxB*b.lanes {
		b.ts = make([]int8, t.maxB*b.lanes)
	}
	t.evalIvBatch(b, n)
}

// evalIvBatch runs the interval interpreter over n lanes in one pass.
func (t *tape) evalIvBatch(b *IntervalBatch, n int) {
	k := b.lanes
	fsp, bsp := 0, 0
	for _, in := range t.code {
		arg := int(in & 0xffffff)
		code := tapeCode(in >> 24)
		switch code {
		case tConst:
			iv := t.constsIv[arg]
			lo := b.fsLo[fsp*k : fsp*k+n]
			hi := b.fsHi[fsp*k : fsp*k+n]
			for l := range lo {
				lo[l] = iv.Lo
				hi[l] = iv.Hi
			}
			fsp++
		case tVar:
			copy(b.fsLo[fsp*k:fsp*k+n], b.varsLo[arg*k:arg*k+n])
			copy(b.fsHi[fsp*k:fsp*k+n], b.varsHi[arg*k:arg*k+n])
			fsp++
		case tHole:
			copy(b.fsLo[fsp*k:fsp*k+n], b.holesLo[arg*k:arg*k+n])
			copy(b.fsHi[fsp*k:fsp*k+n], b.holesHi[arg*k:arg*k+n])
			fsp++
		case tAdd, tSub, tMul, tDiv, tMin, tMax:
			a, c := (fsp-2)*k, (fsp-1)*k
			dstLo, dstHi := b.fsLo[a:], b.fsHi[a:]
			opLo, opHi := b.fsLo[c:], b.fsHi[c:]
			switch code {
			case tAdd:
				interval.AddLanes(n, dstLo, dstHi, dstLo, dstHi, opLo, opHi)
			case tSub:
				interval.SubLanes(n, dstLo, dstHi, dstLo, dstHi, opLo, opHi)
			case tMul:
				interval.MulLanes(n, dstLo, dstHi, dstLo, dstHi, opLo, opHi)
			case tDiv:
				interval.DivLanes(n, dstLo, dstHi, dstLo, dstHi, opLo, opHi)
			case tMin:
				interval.MinLanes(n, dstLo, dstHi, dstLo, dstHi, opLo, opHi)
			case tMax:
				interval.MaxLanes(n, dstLo, dstHi, dstLo, dstHi, opLo, opHi)
			}
			fsp--
		case tNeg:
			a := (fsp - 1) * k
			interval.NegLanes(n, b.fsLo[a:], b.fsHi[a:], b.fsLo[a:], b.fsHi[a:])
		case tAbs:
			a := (fsp - 1) * k
			interval.AbsLanes(n, b.fsLo[a:], b.fsHi[a:], b.fsLo[a:], b.fsHi[a:])
		case tCmpGE, tCmpLE, tCmpGT, tCmpLT, tCmpEQ:
			op := tapeCmpOp(code)
			a, c := (fsp-2)*k, (fsp-1)*k
			ts := b.ts[bsp*k:]
			for l := 0; l < n; l++ {
				ts[l] = int8(cmpInterval(op,
					interval.Interval{Lo: b.fsLo[a+l], Hi: b.fsHi[a+l]},
					interval.Interval{Lo: b.fsLo[c+l], Hi: b.fsHi[c+l]}))
			}
			bsp++
			fsp -= 2
		case tAnd:
			pq := b.ts[(bsp-2)*k:]
			q := b.ts[(bsp-1)*k:]
			for l := 0; l < n; l++ {
				pq[l] = int8(triAnd(Tri(pq[l]), Tri(q[l])))
			}
			bsp--
		case tOr:
			pq := b.ts[(bsp-2)*k:]
			q := b.ts[(bsp-1)*k:]
			for l := 0; l < n; l++ {
				pq[l] = int8(triOr(Tri(pq[l]), Tri(q[l])))
			}
			bsp--
		case tNot:
			ts := b.ts[(bsp-1)*k:]
			for l := 0; l < n; l++ {
				switch Tri(ts[l]) {
				case TriTrue:
					ts[l] = int8(TriFalse)
				case TriFalse:
					ts[l] = int8(TriTrue)
				}
			}
		case tBoolConst:
			v := int8(TriFalse)
			if arg != 0 {
				v = int8(TriTrue)
			}
			ts := b.ts[bsp*k : bsp*k+n]
			for l := range ts {
				ts[l] = v
			}
			bsp++
		case tSelect:
			bsp--
			cond := b.ts[bsp*k:]
			a, c := (fsp-2)*k, (fsp-1)*k
			for l := 0; l < n; l++ {
				switch Tri(cond[l]) {
				case TriFalse:
					b.fsLo[a+l], b.fsHi[a+l] = b.fsLo[c+l], b.fsHi[c+l]
				case TriUnknown:
					u := interval.Interval{Lo: b.fsLo[a+l], Hi: b.fsHi[a+l]}.
						Union(interval.Interval{Lo: b.fsLo[c+l], Hi: b.fsHi[c+l]})
					b.fsLo[a+l], b.fsHi[a+l] = u.Lo, u.Hi
				}
			}
			fsp--
		}
	}
	copy(b.outLo[:n], b.fsLo[:n])
	copy(b.outHi[:n], b.fsHi[:n])
}

// PointBatch is IntervalBatch's point-evaluation sibling: up to Lanes
// points per pass.
type PointBatch struct {
	lanes int

	vars  []float64
	holes []float64
	out   []float64

	fs []float64 // float stack rows of lanes values
	bl []bool    // bool stack rows
}

// NewPointBatch allocates a point batch of the given lane width.
func NewPointBatch(nVars, nHoles, lanes int) *PointBatch {
	return &PointBatch{
		lanes: lanes,
		vars:  make([]float64, nVars*lanes),
		holes: make([]float64, nHoles*lanes),
		out:   make([]float64, lanes),
	}
}

// Lanes returns the batch's lane capacity.
func (b *PointBatch) Lanes() int { return b.lanes }

// SetVars loads lane l's variable values.
func (b *PointBatch) SetVars(l int, vars []float64) {
	for i, v := range vars {
		b.vars[i*b.lanes+l] = v
	}
}

// SetHoles loads lane l's hole values.
func (b *PointBatch) SetHoles(l int, holes []float64) {
	for i, v := range holes {
		b.holes[i*b.lanes+l] = v
	}
}

// BroadcastHoles loads the same hole values into the first n lanes,
// one row fill per hole: one hole vector evaluated against n variable
// lanes (scenarios) in a single pass.
func (b *PointBatch) BroadcastHoles(holes []float64, n int) {
	for i, v := range holes {
		row := b.holes[i*b.lanes : i*b.lanes+n]
		for l := range row {
			row[l] = v
		}
	}
}

// Out returns lane l's result from the last evaluation.
func (b *PointBatch) Out(l int) float64 { return b.out[l] }

// Outs returns the result column for the first n lanes; the slice
// aliases the batch and is overwritten by the next evaluation.
func (b *PointBatch) Outs(n int) []float64 { return b.out[:n] }

// EvalBatch evaluates the program over the first n lanes of b.
func (p *Program) EvalBatch(b *PointBatch, n int) {
	if n > b.lanes {
		panic("expr: EvalBatch lane count exceeds batch capacity")
	}
	t := p.tape
	if len(b.fs) < t.maxF*b.lanes {
		b.fs = make([]float64, t.maxF*b.lanes)
	}
	if len(b.bl) < t.maxB*b.lanes {
		b.bl = make([]bool, t.maxB*b.lanes)
	}
	t.evalBatch(b, n)
}

// fsRows returns the top two stack rows sliced to exactly the n lanes
// a kernel runs over.
func fsRows(fs []float64, fsp, k, n int) (a, c []float64) {
	return fs[(fsp-2)*k : (fsp-2)*k+n], fs[(fsp-1)*k : (fsp-1)*k+n]
}

// evalBatch runs the point interpreter over n lanes in one pass. Each
// opcode applies its lane kernel (lanes.go) to the top stack rows,
// writing the result over the lower operand's row.
func (t *tape) evalBatch(b *PointBatch, n int) {
	k := b.lanes
	fsp, bsp := 0, 0
	for _, in := range t.code {
		arg := int(in & 0xffffff)
		code := tapeCode(in >> 24)
		switch code {
		case tConst:
			fillLanes(b.fs[fsp*k:fsp*k+n], t.consts[arg])
			fsp++
		case tVar:
			copy(b.fs[fsp*k:fsp*k+n], b.vars[arg*k:arg*k+n])
			fsp++
		case tHole:
			copy(b.fs[fsp*k:fsp*k+n], b.holes[arg*k:arg*k+n])
			fsp++
		case tAdd:
			a, c := fsRows(b.fs, fsp, k, n)
			addLanes(a, a, c)
			fsp--
		case tSub:
			a, c := fsRows(b.fs, fsp, k, n)
			subLanes(a, a, c)
			fsp--
		case tMul:
			a, c := fsRows(b.fs, fsp, k, n)
			mulLanes(a, a, c)
			fsp--
		case tDiv:
			a, c := fsRows(b.fs, fsp, k, n)
			divLanes(a, a, c)
			fsp--
		case tMin:
			a, c := fsRows(b.fs, fsp, k, n)
			minLanes(a, a, c)
			fsp--
		case tMax:
			a, c := fsRows(b.fs, fsp, k, n)
			maxLanes(a, a, c)
			fsp--
		case tNeg:
			a := b.fs[(fsp-1)*k : (fsp-1)*k+n]
			negLanes(a, a)
		case tAbs:
			a := b.fs[(fsp-1)*k : (fsp-1)*k+n]
			absLanes(a, a)
		case tCmpGE:
			a, c := fsRows(b.fs, fsp, k, n)
			geLanes(b.bl[bsp*k:bsp*k+n], a, c)
			bsp++
			fsp -= 2
		case tCmpLE:
			a, c := fsRows(b.fs, fsp, k, n)
			leLanes(b.bl[bsp*k:bsp*k+n], a, c)
			bsp++
			fsp -= 2
		case tCmpGT:
			a, c := fsRows(b.fs, fsp, k, n)
			gtLanes(b.bl[bsp*k:bsp*k+n], a, c)
			bsp++
			fsp -= 2
		case tCmpLT:
			a, c := fsRows(b.fs, fsp, k, n)
			ltLanes(b.bl[bsp*k:bsp*k+n], a, c)
			bsp++
			fsp -= 2
		case tCmpEQ:
			a, c := fsRows(b.fs, fsp, k, n)
			eqLanes(b.bl[bsp*k:bsp*k+n], a, c)
			bsp++
			fsp -= 2
		case tAnd:
			pq := b.bl[(bsp-2)*k : (bsp-2)*k+n]
			andLanes(pq, pq, b.bl[(bsp-1)*k:(bsp-1)*k+n])
			bsp--
		case tOr:
			pq := b.bl[(bsp-2)*k : (bsp-2)*k+n]
			orLanes(pq, pq, b.bl[(bsp-1)*k:(bsp-1)*k+n])
			bsp--
		case tNot:
			p := b.bl[(bsp-1)*k : (bsp-1)*k+n]
			notLanes(p, p)
		case tBoolConst:
			fillBoolLanes(b.bl[bsp*k:bsp*k+n], arg != 0)
			bsp++
		case tSelect:
			bsp--
			a, c := fsRows(b.fs, fsp, k, n)
			selectLanes(a, b.bl[bsp*k:bsp*k+n], a, c)
			fsp--
		}
	}
	copy(b.out[:n], b.fs[:n])
}
