package interval

// Structure-of-arrays lane helpers for batched interval evaluation.
//
// The box batch in internal/expr (ScenarioBoxBatch) keeps one row per
// instruction as parallel Lo/Hi float64 slices, one value per lane, so
// that a single instruction dispatch applies one interval operation
// across every scenario lane of a box. Each helper here applies the
// corresponding scalar Interval method elementwise over k lanes — by
// construction the lane semantics (empty propagation, the four-corner
// Mul rule, relational Div, NaN behavior) are exactly the scalar
// semantics, which is what keeps batched evaluation bit-identical to
// one-lane-at-a-time evaluation.
//
// All helpers permit the destination to alias the first operand: lane
// l is read in full before lane l is written. Every helper reslices its
// operands to exactly k lanes up front so the compiler can prove the
// paired index loops in bounds and drop the per-lane checks.

// AddLanes stores a+b into dst for each of the first k lanes.
func AddLanes(k int, dstLo, dstHi, aLo, aHi, bLo, bHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	bLo, bHi = bLo[:k], bHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Add(Interval{Lo: bLo[l], Hi: bHi[l]})
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}

// SubLanes stores a-b into dst for each of the first k lanes.
func SubLanes(k int, dstLo, dstHi, aLo, aHi, bLo, bHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	bLo, bHi = bLo[:k], bHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Sub(Interval{Lo: bLo[l], Hi: bHi[l]})
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}

// MulLanes stores a*b (four-corner rule) into dst for each of the
// first k lanes.
func MulLanes(k int, dstLo, dstHi, aLo, aHi, bLo, bHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	bLo, bHi = bLo[:k], bHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Mul(Interval{Lo: bLo[l], Hi: bHi[l]})
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}

// DivLanes stores a/b (relational semantics) into dst for each of the
// first k lanes.
func DivLanes(k int, dstLo, dstHi, aLo, aHi, bLo, bHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	bLo, bHi = bLo[:k], bHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Div(Interval{Lo: bLo[l], Hi: bHi[l]})
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}

// MinLanes stores the pointwise minimum into dst for each of the first
// k lanes.
func MinLanes(k int, dstLo, dstHi, aLo, aHi, bLo, bHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	bLo, bHi = bLo[:k], bHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Min(Interval{Lo: bLo[l], Hi: bHi[l]})
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}

// MaxLanes stores the pointwise maximum into dst for each of the first
// k lanes.
func MaxLanes(k int, dstLo, dstHi, aLo, aHi, bLo, bHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	bLo, bHi = bLo[:k], bHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Max(Interval{Lo: bLo[l], Hi: bHi[l]})
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}

// NegLanes stores -a into dst for each of the first k lanes.
func NegLanes(k int, dstLo, dstHi, aLo, aHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Neg()
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}

// AbsLanes stores |a| into dst for each of the first k lanes.
func AbsLanes(k int, dstLo, dstHi, aLo, aHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Abs()
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}

// UnionLanes stores the interval hull of a and b into dst for each of
// the first k lanes.
func UnionLanes(k int, dstLo, dstHi, aLo, aHi, bLo, bHi []float64) {
	dstLo, dstHi = dstLo[:k], dstHi[:k]
	aLo, aHi = aLo[:k], aHi[:k]
	bLo, bHi = bLo[:k], bHi[:k]
	for l := range aLo {
		r := Interval{Lo: aLo[l], Hi: aHi[l]}.Union(Interval{Lo: bLo[l], Hi: bHi[l]})
		dstLo[l], dstHi[l] = r.Lo, r.Hi
	}
}
