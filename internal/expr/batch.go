package expr

// Batched evaluation: structure-of-arrays lanes over the tape.
//
// A point batch holds K independent points in column-major lane
// storage — component row r of a point occupies indices
// [r*lanes, r*lanes+n) — and the interpreter's stacks are lane rows of
// the same shape, so one pass over the instruction stream evaluates the
// program for all K lanes: dispatch cost is amortized 1/K and the lane
// loops over contiguous float64 slices are what the hot path spends its
// time in. Lane l's result is exactly what evaluating lane l's input on
// its own produces (the lane ops are the scalar ops applied
// elementwise; see lanes.go), which is what lets the solver batch its
// sweeps without perturbing any transcript. A batch's stack rows grow
// to the deepest program it has evaluated. Boxes are evaluated in
// register form instead (ScenarioBoxBatch, scenario_box.go).

// PointBatch is reusable scratch for evaluating programs over up to
// Lanes points per pass. Construct once (NewPointBatch), load lanes
// with SetVars/SetHoles or BroadcastHoles, evaluate with
// Program.EvalBatch, read results with Out or Outs. A batch is not safe
// for concurrent use; give each worker its own.
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
