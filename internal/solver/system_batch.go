package solver

// Batched structure-of-arrays evaluation: the solver side of the
// expr lane interpreters.
//
// The point sweeps — uniform sampling, the prune waves' midpoint probe
// and the floor corners — share one shape: many independent hole
// vectors evaluated against the same ordered constraint programs.
// Batching turns each of those loops inside out: instead of walking
// constraints per input, it walks inputs per constraint, K lanes per
// instruction-dispatch pass of the stack loop (internal/expr/batch.go),
// with an active lane set that shrinks as constraints decide lanes
// (keeping the early-exit economics of checking one input at a time, in
// constraint-major form). Everything else turns the other way: one
// hole vector or box, with the constraints' sides as scenario lanes of
// the sketch body. The point checks and repair (scenarioOuts) run a
// scenario batch, which keeps its rows so repair's trials re-run only
// the moved hole's cone, and the prune waves decide each box in its
// interval twin (boxLanes), which keeps its rows so a box re-runs only
// the cones of the holes that differ from the worker's previous box.
//
// Determinism contract, mirrored from prune.go: the lane width NEVER
// affects results. Every lane op is the scalar op applied elementwise
// (see internal/interval lanes.go and the expr fuzz tests), decisions
// are applied in lane order (= frontier/draw order), witness copies are
// taken per lane in lane order exactly as they would be one input at a
// time, and the sampling stages draw randomness in fixed-size blocks so
// RNG consumption is lane-width-invariant (see sampleSatisfying). A box
// is decided the same whatever box its worker's batch held before,
// since a cone move is bit-identical to a full pass. The only
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
// concurrent use) and reuse it across calls; the point scratch is sized
// to the lane width and the sketch's hole count at construction.
type Batch struct {
	lanes int
	dim   int

	pt *expr.PointBatch // point lanes
	// box is the box batch of the prune waves: the sketch body over the
	// constraint sides, loaded from constraint version boxVer. It is
	// built on the first span a Batch decides (see boxLanes).
	box    *expr.ScenarioBoxBatch
	boxVer uint64

	mids    []float64 // lanes midpoint rows, row-major
	corners []float64 // lanes corner rows for the floor check, row-major
	block   []float64 // sampleBlock sample rows, row-major

	// Index-list scratch. Each list has a single owner per call path so
	// lists never alias each other: act is owned by sweepSurvivors (its
	// return value), seq by sequential-lane callers, midL by the
	// midpoint sweep, survL by evalPruneSpan's retained copy of the
	// midpoint-sweep survivors (act itself is clobbered by any
	// re-entrant sweepSurvivors call — see evalPruneSpan).
	act, seq, midL, survL []int
}

// NewBatch returns lane scratch of the given width (at least 1) for
// batched evaluation against this system's sketch.
func (s *System) NewBatch(lanes int) *Batch {
	dim := len(s.sk.Domains())
	return &Batch{
		lanes:   lanes,
		dim:     dim,
		pt:      expr.NewPointBatch(0, dim, lanes),
		mids:    make([]float64, lanes*dim),
		corners: make([]float64, lanes*dim),
		block:   make([]float64, sampleBlock*dim),
		act:     make([]int, 0, lanes),
		seq:     make([]int, 0, lanes),
		midL:    make([]int, 0, lanes),
		survL:   make([]int, 0, lanes),
	}
}

// Lanes returns the batch's lane width.
func (b *Batch) Lanes() int { return b.lanes }

// getBatch returns pooled lane scratch of the requested width,
// allocating when the pool is empty or holds a different width. Pair
// with putBatch; the pool only ever amortizes allocation, it never
// changes results (the only state a Batch carries across calls is its
// box batch's kept rows, which no result depends on).
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

// scenarioLanes is a pooled scenario batch of the sketch body whose
// variable lanes hold the constraints' sides: preference i's better
// side at lane 2i and its worse side at 2i+1. ver is the constraint
// version they were loaded from.
type scenarioLanes struct {
	sb  *expr.ScenarioBatch
	ver uint64
}

// sides returns the number of scenario lanes: two per constraint.
func (s *System) sides() int { return 2 * len(s.prefs) }

// getScenarios returns a pooled scenario batch loaded with the current
// constraints, reloading its lanes only when the constraints changed
// since they were loaded. Every call draws its own batch, so concurrent
// point checks and repairs never share one. Pair with putScenarios.
func (s *System) getScenarios() *scenarioLanes {
	n := s.sides()
	sl, _ := s.scnPool.Get().(*scenarioLanes)
	if sl == nil || sl.sb.Lanes() < n {
		lanes := batchLanes
		for lanes < n {
			lanes *= 2
		}
		sl = &scenarioLanes{sb: expr.NewScenarioBatch(s.sk.Program(), lanes)}
	} else if sl.ver == s.scenVer {
		return sl
	}
	for i, c := range s.prefs {
		sl.sb.SetVars(2*i, c.Better)
		sl.sb.SetVars(2*i+1, c.Worse)
	}
	sl.ver = s.scenVer
	return sl
}

// putScenarios returns a scenario batch to the pool.
func (s *System) putScenarios(sl *scenarioLanes) { s.scnPool.Put(sl) }

// scenarioOuts evaluates the sketch body at one hole vector over every
// constraint side in one full pass of sl's batch. Each constraint is
// the difference of its pair of outputs, the value its fused difference
// program computes (specialization is bit-exact). The column aliases
// the batch. Point checks are not counted in Stats.BatchedEvals, which
// counts constraint-program lanes.
func (s *System) scenarioOuts(sl *scenarioLanes, holes []float64) []float64 {
	return sl.sb.Eval(holes, s.sides())
}

// hinge returns the hinge loss of a scenario output column: each
// preference's shortfall below the margin, summed in constraint order.
func (s *System) hinge(out []float64) float64 {
	n := s.sides()
	var loss float64
	for i := 0; i < n; i += 2 {
		if slack := s.margin - (out[i] - out[i+1]); slack > 0 {
			loss += slack
		}
	}
	return loss
}

// satisfied reports whether a scenario output column meets every
// constraint with the margin.
func (s *System) satisfied(out []float64) bool {
	n := s.sides()
	for i := 0; i < n; i += 2 {
		if out[i]-out[i+1] <= s.margin {
			return false
		}
	}
	return true
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

// boxLanes returns b's box batch loaded with the current constraint
// sides, preference i's better side at lane 2i and its worse side at
// 2i+1 as getScenarios loads them. It builds the batch on first use and
// reloads the lanes only when the constraints changed since they were
// loaded; the kept rows then go stale and the next box is a full pass.
func (s *System) boxLanes(b *Batch) *expr.ScenarioBoxBatch {
	n := s.sides()
	if b.box == nil || b.box.Lanes() < n {
		b.box = expr.NewScenarioBoxBatch(s.sk.Program(), n)
	} else if b.boxVer == s.scenVer {
		return b.box
	}
	for i, c := range s.prefs {
		b.box.SetVars(2*i, c.Better)
		b.box.SetVars(2*i+1, c.Worse)
	}
	b.boxVer = s.scenVer
	return b.box
}

// sweepSurvivors returns, in ascending order, the subset of the listed
// rows whose points pass every constraint. Constraint-major: each
// constraint evaluates only the still-active rows in one batch pass, so
// a constraint that kills most lanes early saves the later constraints'
// work — the batched analog of Satisfies' early return. The returned slice aliases
// b.act; lanesIn must not (callers pass b.seq or b.midL). Any later
// sweepSurvivors call on the same batch rewrites b.act's backing array,
// so a caller that can re-enter the batch pipeline before it is done
// with the result (splitOrFloor reaches back in via cornerWitnessBatch)
// must copy it first — see evalPruneSpan.
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
					if !yield(pt) {
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
// satisfies every constraint, or nil. Corners are swept constraint-major
// in lane-width chunks; chunks past the accepted corner are never
// evaluated.
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
		if surv := s.sweepSurvivors(b, b.corners, dim, seq, stats); len(surv) > 0 {
			l := surv[0]
			return append([]float64(nil), b.corners[l*dim:(l+1)*dim]...)
		}
	}
	return nil
}

// evalPruneSpan decides frontier boxes wave[lo:hi] into the matching
// results slots: each box is refuted, witnessed, split, or dropped at
// the resolution floor. Outcomes and corner probes do not depend on
// the span's width, on which boxes share it, or on which box b's box
// batch held before; see the file comment for the determinism argument.
//
// Each box is a pure function of the System and its constraint set
// (compiled programs are read-only), so spans are safe and
// result-identical under any evaluation order.
//
// The decision runs in three steps. First each box, in span order, is
// bounded over every constraint at once: b's box batch moves to the box
// (re-running only the cones of the holes that differ from the previous
// box) and each constraint's interval is the Sub of its pair of output
// lanes, the interval its fused difference program computes. A box is
// refuted when some constraint's upper bound is at most the margin, and
// fully feasible, its midpoint accepted on interval evidence alone,
// when every lower bound exceeds it. Then the rest take the batched
// midpoint probe, and then split-or-floor.
func (s *System) evalPruneSpan(wave [][]interval.Interval, lo, hi int, results []pruneResult, minWidths []float64, b *Batch, stats *Stats) {
	boxes := wave[lo:hi]
	n := s.sides()
	var bx *expr.ScenarioBoxBatch
	if n > 0 {
		bx = s.boxLanes(b)
	}
	dim := b.dim
	midL := b.midL[:0]
	for j, box := range boxes {
		pruned, feasible := false, true
		if bx != nil {
			outLo, outHi := bx.Eval(box, n)
			for i := 0; i < n && !pruned; i += 2 {
				d := interval.Interval{Lo: outLo[i], Hi: outHi[i]}.Sub(interval.Interval{Lo: outLo[i+1], Hi: outHi[i+1]})
				pruned = d.Hi <= s.margin
				feasible = feasible && d.Lo > s.margin
			}
		}
		if pruned {
			results[lo+j] = pruneResult{kind: prunePruned}
			continue
		}
		row := b.mids[j*dim : (j+1)*dim]
		fillMidpoint(row, box)
		if feasible {
			results[lo+j] = pruneResult{kind: pruneWitness, witness: append([]float64(nil), row...)}
		} else {
			midL = append(midL, j)
		}
	}
	if stats != nil && n > 0 {
		stats.BatchedEvals.Add(int64(len(boxes) * len(s.cps)))
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
			results[lo+j] = pruneResult{kind: pruneWitness, witness: append([]float64(nil), row...)}
			continue
		}
		results[lo+j] = s.splitOrFloor(boxes[j], minWidths, b, stats)
	}
}
