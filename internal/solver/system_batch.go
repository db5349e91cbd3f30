package solver

// Batched structure-of-arrays evaluation: the solver side of the
// expr batch interpreters (internal/expr/batch.go).
//
// The hot loops of every search stage — the uniform-sampling sweep, the
// prune wave, and the learned-cache delta-check — share one shape: many
// independent inputs (points or boxes) evaluated against the same
// ordered constraint programs. Batching turns each of those loops
// inside out: instead of walking constraints per input, it walks inputs
// per constraint, K lanes per instruction-dispatch pass, with an active
// lane set that shrinks as constraints decide lanes (keeping the
// early-exit economics of checking one input at a time, in
// constraint-major form). Every box the prune engine decides goes
// through here; a single box is a 1-lane pass. The point checks turn
// the other way (scenarioOuts): one hole vector, the constraints'
// sides as scenario lanes of the sketch body.
//
// Determinism contract, mirrored from prune.go: the lane width NEVER
// affects results. Every lane op is the scalar op applied elementwise
// (see internal/interval lanes.go and the expr fuzz tests), decisions
// are applied in lane order (= frontier/draw order), side effects
// (learned-cache stores, Viable probes, witness copies) fire per lane
// in lane order exactly as they would one input at a time, and the
// sampling stages draw randomness in fixed-size blocks so RNG
// consumption is lane-width-invariant (see sampleSatisfying). The only
// observable differences are the BatchedEvals counter and wall-clock
// time. The solver runs at one width, batchLanes; the tests vary it
// through NewBatch.

import (
	"context"
	"math/rand"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
)

// batchLanes is the solver's lane width. It keeps a batch's stack rows
// inside L1 while amortizing dispatch well past the knee; 64-lane
// batches pay cache misses for little extra amortization.
const batchLanes = 16

// sampleBlock is the draw granularity of the batched sampling stages:
// RNG rows are drawn this many at a time, independent of the lane
// width, so the random stream consumed by a search is identical for
// every width. See sampleSatisfying.
const sampleBlock = 64

// Batch is reusable lane scratch for a System's batched entry points.
// Construct one per goroutine with NewBatch (a Batch is not safe for
// concurrent use) and reuse it across calls; all slices are sized to
// the lane width and the sketch's hole count at construction.
type Batch struct {
	lanes int
	dim   int

	iv *expr.IntervalBatch // interval lanes (constraint diffs are hole-only)
	pt *expr.PointBatch    // point lanes

	// scn holds the constraints' sides as variable lanes of the sketch
	// body for the point checks (see scenarioOuts); scnVer is the
	// constraint version they were loaded from. Nil until the first
	// point check.
	scn    *expr.PointBatch
	scnVer uint64

	mids    []float64 // lanes midpoint rows, row-major
	corners []float64 // lanes corner rows for the floor check, row-major
	block   []float64 // sampleBlock sample rows, row-major

	// Index-list and flag scratch. Each list has a single owner per
	// call path so lists never alias each other: act is owned by
	// sweepSurvivors (its return value), seq by sequential-lane callers,
	// coldL/cachedL by evalPruneSpan's classification, midL by the
	// midpoint sweep, subL by the delta-check subsets, survL by
	// pruneColdLanes' retained copy of the midpoint-sweep survivors
	// (act itself is clobbered by any re-entrant sweepSurvivors call —
	// see pruneColdLanes).
	act, seq, coldL, cachedL, midL, subL, survL []int
	feas, decided                               []bool
	facts                                       []boxFact
	hashes                                      []uint64
}

// NewBatch returns lane scratch of the given width (at least 1) for
// batched evaluation against this system's sketch.
func (s *System) NewBatch(lanes int) *Batch {
	dim := len(s.sk.Domains())
	return &Batch{
		lanes:   lanes,
		dim:     dim,
		iv:      expr.NewIntervalBatch(0, dim, lanes),
		pt:      expr.NewPointBatch(0, dim, lanes),
		mids:    make([]float64, lanes*dim),
		corners: make([]float64, lanes*dim),
		block:   make([]float64, sampleBlock*dim),
		act:     make([]int, 0, lanes),
		seq:     make([]int, 0, lanes),
		coldL:   make([]int, 0, lanes),
		cachedL: make([]int, 0, lanes),
		midL:    make([]int, 0, lanes),
		subL:    make([]int, 0, lanes),
		survL:   make([]int, 0, lanes),
		feas:    make([]bool, lanes),
		decided: make([]bool, lanes),
		facts:   make([]boxFact, lanes),
		hashes:  make([]uint64, lanes),
	}
}

// Lanes returns the batch's lane width.
func (b *Batch) Lanes() int { return b.lanes }

// getBatch returns pooled lane scratch of the requested width,
// allocating when the pool is empty or holds a different width. Pair
// with putBatch; the pool only ever amortizes allocation, it never
// changes results (the only state a Batch carries across calls is its
// scenario lanes, stamped with the constraint version they were
// loaded from and reloaded when the constraints change).
func (s *System) getBatch(lanes int) *Batch {
	if b, ok := s.batchPool.Get().(*Batch); ok && b.lanes == lanes && b.dim == s.sk.NumHoles() {
		return b
	}
	return s.NewBatch(lanes)
}

// putBatch returns scratch to the pool.
func (s *System) putBatch(b *Batch) {
	if b != nil {
		s.batchPool.Put(b)
	}
}

// scenarioOuts evaluates the sketch body at one hole vector over
// every constraint side in a single batched pass — the sides'
// scenarios are the lanes, the holes are broadcast — and returns the
// output column split in two: prefs holds preference i's better side
// at 2i and its worse side at 2i+1, ties tie j's A and B sides at 2j
// and 2j+1. Each constraint is the difference of its pair, the value
// its fused difference program computes (specialization is bit-exact).
// b's scenario lanes are reloaded only when the constraints have
// changed since they were loaded. The columns alias b and are
// overwritten by the next call. Point checks are not counted in
// Stats.BatchedEvals, which counts constraint-program lanes.
func (s *System) scenarioOuts(b *Batch, holes []float64) (prefs, ties []float64) {
	np, n := 2*len(s.prefs), 2*(len(s.prefs)+len(s.ties))
	if b.scn == nil || b.scnVer != s.scenVer {
		if b.scn == nil || b.scn.Lanes() < n {
			lanes := batchLanes
			for lanes < n {
				lanes *= 2
			}
			b.scn = expr.NewPointBatch(s.sk.Space().Dim(), b.dim, lanes)
		}
		for i, c := range s.prefs {
			b.scn.SetVars(2*i, c.Better)
			b.scn.SetVars(2*i+1, c.Worse)
		}
		for i, t := range s.ties {
			b.scn.SetVars(np+2*i, t.A)
			b.scn.SetVars(np+2*i+1, t.B)
		}
		b.scnVer = s.scenVer
	}
	b.scn.BroadcastHoles(holes, n)
	s.sk.Program().EvalBatch(b.scn, n)
	out := b.scn.Outs(n)
	return out[:np], out[np:]
}

// pointLanes evaluates prog over the listed rows of the row-major point
// storage (stride dim) in one batch pass, returning the output column
// parallel to lanes. The column aliases b.pt and is overwritten by the
// next pass.
func (s *System) pointLanes(b *Batch, prog *expr.Program, rows []float64, dim int, lanes []int, stats *Stats) []float64 {
	for x, r := range lanes {
		b.pt.SetHoles(x, rows[r*dim:(r+1)*dim])
	}
	prog.EvalBatch(b.pt, len(lanes))
	if stats != nil {
		stats.BatchedEvals.Add(int64(len(lanes)))
	}
	return b.pt.Outs(len(lanes))
}

// ivLanes is pointLanes over boxes: one interval-batch pass of prog for
// the listed boxes. The returned columns alias b.iv.
func (s *System) ivLanes(b *Batch, prog *expr.Program, boxes [][]interval.Interval, lanes []int, stats *Stats) (outLo, outHi []float64) {
	for x, j := range lanes {
		b.iv.SetHoles(x, boxes[j])
	}
	prog.EvalIntervalBatch(b.iv, len(lanes))
	if stats != nil {
		stats.BatchedEvals.Add(int64(len(lanes)))
	}
	return b.iv.Outs(len(lanes))
}

// sweepSurvivors returns, in ascending order, the subset of the listed
// rows whose points pass every preference and tie constraint (Viable is
// the caller's business). Constraint-major: each constraint evaluates
// only the still-active rows in one batch pass, so a constraint that
// kills most lanes early saves the later constraints' work — the
// batched analog of Satisfies' early return. The returned slice aliases
// b.act; lanesIn must not (callers pass b.seq or b.midL). Any later
// sweepSurvivors call on the same batch rewrites b.act's backing array,
// so a caller that can re-enter the batch pipeline before it is done
// with the result (splitOrFloor reaches back in via cornerWitnessBatch)
// must copy it first — see pruneColdLanes.
func (s *System) sweepSurvivors(b *Batch, rows []float64, dim int, lanesIn []int, stats *Stats) []int {
	active := append(b.act[:0], lanesIn...)
	for i := 0; i < len(s.cps) && len(active) > 0; i++ {
		outs := s.pointLanes(b, s.cps[i].diff, rows, dim, active, stats)
		keep := active[:0]
		for x, r := range active {
			if outs[x] > s.margin {
				keep = append(keep, r)
			}
		}
		active = keep
	}
	for i := 0; i < len(s.cts) && len(active) > 0; i++ {
		outs := s.pointLanes(b, s.cts[i].diff, rows, dim, active, stats)
		band := s.cts[i].band
		keep := active[:0]
		for x, r := range active {
			d := outs[x]
			if d < 0 {
				d = -d
			}
			if d <= band {
				keep = append(keep, r)
			}
		}
		active = keep
	}
	return active
}

// sampleSatisfying draws up to `samples` uniform points from the box
// and yields the satisfying ones in draw order; yield returning false
// stops the walk (yield's argument aliases internal scratch — copy to
// retain). Reports whether a yield stopped it.
//
// Randomness is consumed in fixed blocks of sampleBlock rows — the
// whole block is drawn before any of it is evaluated — so the RNG
// stream position depends only on which block the walk stopped in,
// never on the lane width: every width draws identically and leaves
// rng in the same state. Stats.Samples counts exactly the rows walked
// up to and including the stopping row, which is likewise
// lane-width-invariant.
func (s *System) sampleSatisfying(ctx context.Context, samples, lanes int, domains []interval.Interval, rng *rand.Rand, stats *Stats, yield func(pt []float64) bool) (stopped bool, err error) {
	if samples <= 0 {
		return false, nil
	}
	dim := len(domains)
	b := s.getBatch(lanes)
	defer s.putBatch(b)
	block := b.block
	for done := 0; done < samples; {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		n := min(sampleBlock, samples-done)
		for r := 0; r < n; r++ {
			fillRandomVector(block[r*dim:(r+1)*dim], domains, rng)
		}
		walked, stop := 0, false
		for c := 0; c < n && !stop; c += lanes {
			k := min(lanes, n-c)
			seq := b.seq[:0]
			for l := 0; l < k; l++ {
				seq = append(seq, c+l)
			}
			surv := s.sweepSurvivors(b, block, dim, seq, stats)
			si := 0
			for l := 0; l < k && !stop; l++ {
				walked++
				row := c + l
				if si < len(surv) && surv[si] == row {
					si++
					pt := block[row*dim : (row+1)*dim]
					if (s.viable == nil || s.viable(pt)) && !yield(pt) {
						stop = true
					}
				}
			}
		}
		if stats != nil && walked > 0 {
			stats.Samples.Add(int64(walked))
		}
		if stop {
			return true, nil
		}
		done += n
	}
	return false, nil
}

// cornerWitnessBatch point-checks the corners of a floor-level box (up
// to 2^8 of them, in mask order; dims beyond the enumeration cap stay
// at the midpoint) and returns a copy of the first corner that
// satisfies every constraint and Viable, or nil. Corners are swept
// constraint-major in lane-width chunks, with Viable probed in corner
// order only for constraint-passing corners; chunks past the accepted
// corner are never evaluated.
func (s *System) cornerWitnessBatch(b *Batch, box []interval.Interval, stats *Stats) []float64 {
	d := len(box)
	if d > 8 {
		d = 8 // cap the enumeration; remaining dims stay at midpoint
	}
	dim := b.dim
	total := 1 << d
	for base := 0; base < total; base += b.lanes {
		k := min(b.lanes, total-base)
		seq := b.seq[:0]
		for l := 0; l < k; l++ {
			row := b.corners[l*dim : (l+1)*dim]
			fillMidpoint(row, box)
			mask := base + l
			for i := 0; i < d; i++ {
				if mask&(1<<i) != 0 {
					row[i] = box[i].Hi
				} else {
					row[i] = box[i].Lo
				}
			}
			seq = append(seq, l)
		}
		for _, l := range s.sweepSurvivors(b, b.corners, dim, seq, stats) {
			row := b.corners[l*dim : (l+1)*dim]
			if s.viable == nil || s.viable(row) {
				return append([]float64(nil), row...)
			}
		}
	}
	return nil
}

// evalPruneSpan decides frontier boxes wave[lo:hi] (at most b's lane
// width) into the matching results slots: each box is refuted,
// witnessed, split, or dropped at the resolution floor. Outcomes,
// learned-cache stores (keys, corner flags, first-refuter identity),
// and Viable/corner probes do not depend on the span's width or on
// which boxes share it; see the file comment for the determinism
// argument.
//
// Each box is a pure function of the System and its constraint set
// (compiled programs are read-only; Viable carries the same
// thread-safety contract the sampling stage already imposes; the
// learned cache only memoizes deterministic facts), so spans are safe
// and result-identical under any evaluation order. With a learned
// cache attached, boxes with a valid cached fact take pruneCachedLanes,
// which reproduces the cold decision while skipping the probes the
// fact already settles; the rest are decided cold and their facts
// recorded.
func (s *System) evalPruneSpan(wave [][]interval.Interval, lo, hi int, results []pruneResult, minWidths []float64, b *Batch, stats *Stats) {
	k := hi - lo
	boxes := wave[lo:hi]
	l := s.learned
	cold := b.coldL[:0]
	cached := b.cachedL[:0]
	if l == nil {
		for j := 0; j < k; j++ {
			cold = append(cold, j)
		}
	} else {
		for j := 0; j < k; j++ {
			h := hashBox(boxes[j])
			b.hashes[j] = h
			if fact, ok := l.lookupBox(h, boxes[j]); ok {
				if fact.refuted {
					results[lo+j] = pruneResult{kind: prunePruned}
				} else {
					b.facts[j] = fact
					cached = append(cached, j)
				}
			} else {
				cold = append(cold, j)
			}
		}
	}
	if len(cold) > 0 {
		s.pruneColdLanes(boxes, lo, cold, results, minWidths, b, stats)
	}
	if len(cached) > 0 {
		s.pruneCachedLanes(boxes, lo, cached, results, minWidths, b, stats)
	}
}

// pruneColdLanes decides a lane set directly: interval refutation
// constraint-major with active-lane compaction, then the fully-feasible
// fast path (midpoint accepted on interval evidence alone — Viable is
// deliberately not consulted, matching the documented Problem.Viable
// semantics), then the batched midpoint probe, then split-or-floor.
// With a learned cache attached it records each lane's fact: the first
// refuting constraint, or an undecided entry for a split (splitOrFloor
// records floor drops). Witnesses are never cached: a witness ends the search
// immediately, and "this point satisfies" is not monotone under
// constraint additions.
func (s *System) pruneColdLanes(boxes [][]interval.Interval, lo int, lanes []int, results []pruneResult, minWidths []float64, b *Batch, stats *Stats) {
	l := s.learned
	for _, j := range lanes {
		b.feas[j] = true
	}
	active := lanes // filtered in place (aliases b.coldL, which this path owns)
	for ci := 0; ci < len(s.cps) && len(active) > 0; ci++ {
		cp := &s.cps[ci]
		outLo, outHi := s.ivLanes(b, cp.diff, boxes, active, stats)
		keep := active[:0]
		for x, j := range active {
			if outHi[x] <= s.margin {
				results[lo+j] = pruneResult{kind: prunePruned}
				if l != nil {
					l.storeBox(b.hashes[j], boxes[j], cp.key, false)
				}
				continue
			}
			if !(outLo[x] > s.margin) {
				b.feas[j] = false
			}
			keep = append(keep, j)
		}
		active = keep
	}
	for ci := 0; ci < len(s.cts) && len(active) > 0; ci++ {
		ct := &s.cts[ci]
		outLo, outHi := s.ivLanes(b, ct.diff, boxes, active, stats)
		keep := active[:0]
		for x, j := range active {
			if outLo[x] > ct.band || outHi[x] < -ct.band {
				results[lo+j] = pruneResult{kind: prunePruned}
				if l != nil {
					l.storeBox(b.hashes[j], boxes[j], ct.key, false)
				}
				continue
			}
			if !(outLo[x] >= -ct.band && outHi[x] <= ct.band) {
				b.feas[j] = false
			}
			keep = append(keep, j)
		}
		active = keep
	}
	// Survivors: midpoint probe. Fully-feasible lanes witness their
	// midpoint on interval evidence alone; the rest go through the
	// batched Satisfies sweep with Viable probed only for
	// constraint-passing midpoints, in lane order.
	dim := b.dim
	midL := b.midL[:0]
	for _, j := range active {
		row := b.mids[j*dim : (j+1)*dim]
		fillMidpoint(row, boxes[j])
		if b.feas[j] {
			results[lo+j] = pruneResult{kind: pruneWitness, witness: append([]float64(nil), row...)}
		} else {
			midL = append(midL, j)
		}
	}
	if len(midL) == 0 {
		return
	}
	// Copy the survivor list out of b.act: splitOrFloor below re-enters
	// the batch pipeline on floor-level boxes (cornerWitnessBatch →
	// sweepSurvivors), which rewrites b.act's backing array mid-loop —
	// consuming the alias would match lanes against corner-sweep
	// indices, yielding false witnesses or missed ones.
	surv := append(b.survL[:0], s.sweepSurvivors(b, b.mids, dim, midL, stats)...)
	si := 0
	for _, j := range midL {
		row := b.mids[j*dim : (j+1)*dim]
		if si < len(surv) && surv[si] == j {
			si++
			if s.viable == nil || s.viable(row) {
				results[lo+j] = pruneResult{kind: pruneWitness, witness: append([]float64(nil), row...)}
				continue
			}
		}
		res := s.splitOrFloor(boxes[j], minWidths, false, b, stats)
		results[lo+j] = res
		if l != nil && res.kind == pruneSplit {
			// Undecided: no present constraint refutes the box and its
			// midpoint fails Satisfies — facts that stay true as
			// constraints are added (see learned.go). A floor drop adds
			// "every corner fails Satisfies"; splitOrFloor records that
			// fact itself.
			l.storeBox(b.hashes[j], boxes[j], "", false)
		}
	}
}

// pruneCachedLanes reproduces the cold decision for lanes the cache
// already has a valid undecided fact for. Soundness (why each skipped
// probe would have produced the same answer) is argued entry shape by
// entry shape in learned.go and DESIGN.md §11; in brief: an undecided
// entry's negative facts (no refutation at version ≤ v, midpoint and
// corners unsat) are monotone under the only mutation the entry's
// guards admit — constraint addition — so only constraints stamped
// after the entry's version need fresh interval checks. For each such
// constraint the still-undecided lanes are delta-checked in one batch
// pass (prefs then ties, index order, so the first refuter is the one
// the cold path would find among the new constraints); the rest skip
// the fully-feasible and midpoint probes, which the entry proves
// blocked, and go straight to split-or-floor with their cached corner
// facts.
func (s *System) pruneCachedLanes(boxes [][]interval.Interval, lo int, lanes []int, results []pruneResult, minWidths []float64, b *Batch, stats *Stats) {
	l := s.learned
	for _, j := range lanes {
		b.decided[j] = false
	}
	active := lanes // filtered in place (aliases b.cachedL, which this path owns)
	for ci := 0; ci < len(s.cps) && len(active) > 0; ci++ {
		cp := &s.cps[ci]
		sub := b.subL[:0]
		for _, j := range active {
			if cp.addVersion > b.facts[j].version {
				sub = append(sub, j)
			}
		}
		if len(sub) == 0 {
			continue
		}
		_, outHi := s.ivLanes(b, cp.diff, boxes, sub, stats)
		removed := false
		for x, j := range sub {
			if outHi[x] <= s.margin {
				l.deltaRefutes.Add(1)
				l.storeBox(b.hashes[j], boxes[j], cp.key, false)
				results[lo+j] = pruneResult{kind: prunePruned}
				b.decided[j] = true
				removed = true
			}
		}
		if removed {
			keep := active[:0]
			for _, j := range active {
				if !b.decided[j] {
					keep = append(keep, j)
				}
			}
			active = keep
		}
	}
	for ci := 0; ci < len(s.cts) && len(active) > 0; ci++ {
		ct := &s.cts[ci]
		sub := b.subL[:0]
		for _, j := range active {
			if ct.addVersion > b.facts[j].version {
				sub = append(sub, j)
			}
		}
		if len(sub) == 0 {
			continue
		}
		outLo, outHi := s.ivLanes(b, ct.diff, boxes, sub, stats)
		removed := false
		for x, j := range sub {
			if outLo[x] > ct.band || outHi[x] < -ct.band {
				l.deltaRefutes.Add(1)
				l.storeBox(b.hashes[j], boxes[j], ct.key, false)
				results[lo+j] = pruneResult{kind: prunePruned}
				b.decided[j] = true
				removed = true
			}
		}
		if removed {
			keep := active[:0]
			for _, j := range active {
				if !b.decided[j] {
					keep = append(keep, j)
				}
			}
			active = keep
		}
	}
	for _, j := range active {
		results[lo+j] = s.splitOrFloor(boxes[j], minWidths, b.facts[j].cornerUnsat, b, stats)
	}
}
