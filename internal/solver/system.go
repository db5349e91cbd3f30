package solver

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"compsynth/internal/interval"
	"compsynth/internal/obs"
	"compsynth/internal/sketch"
)

// System is a compiled conjunction of preference constraints: the
// Problem representation lowered for the solver's hot paths, bit-exact
// with the Problem-based reference path (violation/Satisfies in
// solver.go), which is what keeps synthesis transcripts identical for
// fixed seeds. Every evaluation runs the sketch body's register form
// (expr.ScenarioBatch and its interval twin), turned one of two ways:
//
//   - the point checks (Violation, Satisfies, SatisfiedMask) run the
//     body once for a hole vector, with the constraints' sides as
//     scenario lanes, and read each f(better) − f(worse) off the output
//     column; repair keeps those lanes' rows across its descent and
//     re-runs only the moved hole's cone per trial, and the prune waves
//     bound every constraint over a box the same way, in interval
//     arithmetic, re-running only the cones of the holes that differ
//     from the previous box;
//   - the sampling sweeps, the prune waves' midpoint probe and the
//     floor corners run each constraint over lanes of hole vectors: one
//     pass of the body at the better side, one at the worse side, and
//     one lane subtraction.
//
// A System is built once and mutated incrementally as preference edges
// are recorded (AddPref/InsertPref/RemovePref). A mutation compiles
// nothing: the pooled scenario lanes reload the constraint sides on
// their next use. Mutation is not goroutine-safe; the point checks and
// the search methods only read and may be called concurrently (and
// with PruneWorkers > 1).
type System struct {
	sk     *sketch.Sketch
	margin float64
	stats  *Stats
	// metrics, when non-nil, times and counts the public searches
	// (see SetMetrics). Nil means zero instrumentation cost: the
	// wrappers skip even the clock reads.
	metrics *Metrics
	// progress, when non-nil, receives per-wave live-introspection
	// stores (see SetProgress and progress.go); log, when non-nil,
	// receives wave-level debug events. Both are updated once per wave,
	// never per box.
	progress *Progress
	log      *obs.Logger

	prefs []Pref

	// scenVer changes with every constraint mutation, so a pooled
	// scenario batch knows when its loaded lanes are stale (see
	// getScenarios).
	scenVer uint64

	// batchPool recycles Batch scratch across searches (see getBatch).
	// Pooled batches may have any lane width, so getBatch re-checks the
	// width on the way out.
	batchPool sync.Pool
	// scnPool recycles the scenario batches of the point checks and
	// repair (see getScenarios).
	scnPool sync.Pool
}

// NewSystem returns an empty compiled system over the sketch's hole
// box. margin has Problem.Margin semantics. stats, when non-nil, is the
// default Stats sink for searches run through the system.
func NewSystem(sk *sketch.Sketch, margin float64, stats *Stats) *System {
	return &System{sk: sk, margin: margin, stats: stats}
}

// compileSystem returns a System holding a Problem's constraints.
func compileSystem(p Problem, stats *Stats) *System {
	s := NewSystem(p.Sketch, p.Margin, stats)
	s.prefs = append(make([]Pref, 0, len(p.Prefs)), p.Prefs...)
	return s
}

// SetMetrics attaches registry-backed instruments (obtained from
// NewMetrics) to the system's searches. A nil argument detaches them.
// Like constraint mutation, SetMetrics is not goroutine-safe with
// concurrent searches.
func (s *System) SetMetrics(m *Metrics) { s.metrics = m }

// Sketch returns the sketch the system is compiled against.
func (s *System) Sketch() *sketch.Sketch { return s.sk }

// Margin returns the strictness slack (Problem.Margin).
func (s *System) Margin() float64 { return s.margin }

// NumPrefs returns the number of preference constraints.
func (s *System) NumPrefs() int { return len(s.prefs) }

// Prefs returns the preference constraints in constraint order (copy).
func (s *System) Prefs() []Pref { return append([]Pref(nil), s.prefs...) }

// AddPref appends a preference constraint.
func (s *System) AddPref(c Pref) {
	s.prefs = append(s.prefs, c)
	s.scenVer++
}

// InsertPref inserts a preference constraint at index i. Constraint
// order is observable — the violation sum and the satisfaction mask
// follow it — so callers maintaining a canonical order (the synthesizer
// mirrors prefgraph.Edges) insert rather than append.
func (s *System) InsertPref(i int, c Pref) {
	s.prefs = append(s.prefs, Pref{})
	copy(s.prefs[i+1:], s.prefs[i:])
	s.prefs[i] = c
	s.scenVer++
}

// RemovePref removes the preference constraint at index i.
func (s *System) RemovePref(i int) {
	s.prefs = append(s.prefs[:i], s.prefs[i+1:]...)
	s.scenVer++
}

// Reset drops all constraints, keeping the sketch.
func (s *System) Reset() {
	s.prefs = s.prefs[:0]
	s.scenVer++
}

// Violation returns the hinge loss of θ against the constraints: 0 iff
// every constraint holds with the margin. Bit-identical to the
// Problem-based violation reference.
func (s *System) Violation(holes []float64) float64 {
	sl := s.getScenarios()
	defer s.putScenarios(sl)
	return s.hinge(s.scenarioOuts(sl, holes))
}

// Satisfies reports whether the hole vector satisfies every constraint
// with the margin.
func (s *System) Satisfies(holes []float64) bool {
	sl := s.getScenarios()
	defer s.putScenarios(sl)
	return s.satisfied(s.scenarioOuts(sl, holes))
}

// SatisfiedMask writes the per-preference satisfaction of θ into mask
// (parallel to the constraint order). mask is grown as needed and
// returned.
func (s *System) SatisfiedMask(holes []float64, mask []bool) []bool {
	if cap(mask) < len(s.prefs) {
		mask = make([]bool, len(s.prefs))
	}
	mask = mask[:len(s.prefs)]
	sl := s.getScenarios()
	defer s.putScenarios(sl)
	out := s.scenarioOuts(sl, holes)
	for i := range mask {
		mask[i] = out[2*i]-out[2*i+1] > s.margin
	}
	return mask
}

// statsOf resolves the Stats sink for a search: the per-call Options
// override wins, else the system's own.
func (s *System) statsOf(opts Options) *Stats {
	if opts.Stats != nil {
		return opts.Stats
	}
	return s.stats
}

func (s *System) findCandidate(ctx context.Context, opts Options, rng *rand.Rand) ([]float64, Status, error) {
	domains := s.sk.Domains()
	stats := s.statsOf(opts)

	// Stage 0: warm-start hints (prior feasible witnesses carried
	// between iterations; they double as repair starts when the newest
	// constraint broke them).
	for _, hint := range opts.Hints {
		if err := ctx.Err(); err != nil {
			return nil, StatusUnknown, err
		}
		h := clampToBox(hint, domains)
		if s.Satisfies(h) {
			if stats != nil {
				stats.HintHits.Add(1)
			}
			return h, StatusSat, nil
		}
		if stats != nil {
			stats.Repairs.Add(1)
		}
		if repaired, ok := s.repair(h, domains, opts.RepairSteps, rng); ok {
			return repaired, StatusSat, nil
		}
	}

	// Stages 1–2: uniform sampling (batched; see sampleSatisfying), then
	// hinge-loss repair.
	var witness []float64
	found, err := s.sampleSatisfying(ctx, opts.Samples, batchLanes, domains, rng, stats, func(pt []float64) bool {
		witness = append([]float64(nil), pt...)
		return false
	})
	if err != nil {
		return nil, StatusUnknown, err
	}
	if found {
		return witness, StatusSat, nil
	}
	scratch := make([]float64, len(domains))
	for r := 0; r < opts.RepairRestarts; r++ {
		if err := ctx.Err(); err != nil {
			return nil, StatusUnknown, err
		}
		if stats != nil {
			stats.Repairs.Add(1)
		}
		fillRandomVector(scratch, domains, rng)
		if repaired, ok := s.repair(scratch, domains, opts.RepairSteps, rng); ok {
			return repaired, StatusSat, nil
		}
	}

	// Stage 3: branch-and-prune (the parallel wave engine; prune.go).
	return s.branchAndPrune(ctx, domains, opts)
}

// repair runs coordinate descent on the hinge loss; see the package
// documentation of the algorithm in solver.go. start is not retained.
//
// The descent holds one scenario batch throughout: one full pass at
// the start, then each trial moves one hole and re-runs only that
// hole's cone of the sketch body (expr.ScenarioBatch.Move), and an
// accepted trial is committed into the kept rows. A move is
// bit-identical to a full pass at the moved vector and the loss comes
// from the same hinge sum as Violation, so every accept/reject
// decision, the RNG draws and the result are exactly those of a full
// Violation per trial. A trial that expr.ScenarioBatch.Unchanged
// proves a no-op, a threshold moved past no constraint side's value,
// is skipped without a move: its output column, and so its loss, would
// equal the current one bit for bit, and the trial would be rejected.
// The final Satisfies is read off the committed outputs.
func (s *System) repair(start []float64, domains []interval.Interval, steps int, rng *rand.Rand) ([]float64, bool) {
	sl := s.getScenarios()
	defer s.putScenarios(sl)
	sb := sl.sb
	h := append([]float64(nil), start...)
	loss := s.hinge(s.scenarioOuts(sl, h))
	if loss == 0 {
		return h, s.satisfied(sb.Outs())
	}
	step := make([]float64, len(domains))
	for i, d := range domains {
		step[i] = d.Width() / 4
	}
	perm := make([]int, len(h))
	for it := 0; it < steps && loss > 0; it++ {
		improved := false
		// Random dimension order de-correlates descent paths between
		// restarts. This is rand.Perm's loop refilling one slice, so
		// the draws are Perm's.
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		for _, i := range perm {
			for _, dir := range []float64{+1, -1} {
				cand := h[i] + dir*step[i]
				if cand < domains[i].Lo || cand > domains[i].Hi || sb.Unchanged(i, cand) {
					continue
				}
				if l := s.hinge(sb.Move(i, cand)); l < loss {
					sb.Commit(i, cand)
					h[i] = cand
					loss = l
					improved = true
					break
				}
			}
		}
		if loss == 0 {
			return h, s.satisfied(sb.Outs())
		}
		if !improved {
			for i := range step {
				step[i] /= 2
			}
			allTiny := true
			for i, st := range step {
				if st > domains[i].Width()*1e-12 {
					allTiny = false
					break
				}
			}
			if allTiny {
				break
			}
		}
	}
	return h, loss == 0 && s.satisfied(sb.Outs())
}

func (s *System) bestEffort(ctx context.Context, opts Options, rng *rand.Rand) (holes []float64, loss float64, satisfied []bool, err error) {
	domains := s.sk.Domains()
	best := randomVector(domains, rng)
	bestLoss := s.Violation(best)
	consider := func(h []float64) {
		if l := s.Violation(h); l < bestLoss {
			best, bestLoss = append([]float64(nil), h...), l
		}
	}
	for _, hint := range opts.Hints {
		consider(clampToBox(hint, domains))
	}
	scratch := make([]float64, len(domains))
	for i := 0; i < opts.Samples && bestLoss > 0; i++ {
		if err := ctx.Err(); err != nil {
			return best, bestLoss, s.SatisfiedMask(best, nil), err
		}
		fillRandomVector(scratch, domains, rng)
		consider(scratch)
	}
	for r := 0; r < opts.RepairRestarts && bestLoss > 0; r++ {
		if err := ctx.Err(); err != nil {
			return best, bestLoss, s.SatisfiedMask(best, nil), err
		}
		fillRandomVector(scratch, domains, rng)
		start := scratch
		if r == 0 && len(opts.Hints) > 0 {
			start = clampToBox(opts.Hints[0], domains)
		}
		repaired, _ := s.repair(start, domains, opts.RepairSteps, rng)
		consider(repaired)
	}
	return best, bestLoss, s.SatisfiedMask(best, nil), nil
}

func (s *System) findDiverse(ctx context.Context, k int, opts Options, rng *rand.Rand) ([][]float64, error) {
	// Single-candidate fast path: diversity is meaningless for k ≤ 1,
	// so skip the pool build. FindCandidate's staging covers hints,
	// sampling, repair, and the exhaustive fallback.
	if k <= 1 {
		h, st, err := s.findCandidate(ctx, opts, rng)
		if err != nil || st != StatusSat {
			return nil, err
		}
		return [][]float64{h}, nil
	}

	domains := s.sk.Domains()
	stats := s.statsOf(opts)
	var pool [][]float64

	// Warm-start hints first: they anchor the pool in the known-feasible
	// region and their repairs land on version-space boundaries.
	for _, hint := range opts.Hints {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h := clampToBox(hint, domains)
		if s.Satisfies(h) {
			if stats != nil {
				stats.HintHits.Add(1)
			}
			pool = append(pool, h)
			continue
		}
		if stats != nil {
			stats.Repairs.Add(1)
		}
		if repaired, ok := s.repair(h, domains, opts.RepairSteps, rng); ok {
			pool = append(pool, repaired)
		}
	}

	// Pool from sampling, topped up with repaired points (they land on
	// feasibility boundaries, which is where behavioral differences
	// concentrate).
	if len(pool) < 8*k {
		if _, err := s.sampleSatisfying(ctx, opts.Samples, batchLanes, domains, rng, stats, func(pt []float64) bool {
			pool = append(pool, append([]float64(nil), pt...))
			return len(pool) < 8*k
		}); err != nil {
			return nil, err
		}
	}
	scratch := make([]float64, len(domains))
	for r := 0; r < opts.RepairRestarts && len(pool) < 8*k; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if stats != nil {
			stats.Repairs.Add(1)
		}
		fillRandomVector(scratch, domains, rng)
		if repaired, ok := s.repair(scratch, domains, opts.RepairSteps, rng); ok {
			pool = append(pool, repaired)
		}
	}
	if len(pool) == 0 {
		h, st, err := s.findCandidate(ctx, opts, rng)
		if err != nil {
			return nil, err
		}
		if st == StatusSat {
			pool = append(pool, h)
		}
	}
	if len(pool) == 0 {
		return nil, nil
	}
	if len(pool) <= k {
		return pool, nil
	}
	return diverseSubset(pool, k, domains), nil
}

// diverseSubset is the greedy max-min selection over a witness pool,
// seeded with the pool point farthest from the box center (normalized
// coordinates).
func diverseSubset(pool [][]float64, k int, domains []interval.Interval) [][]float64 {
	norm := func(h []float64) []float64 {
		out := make([]float64, len(h))
		for i, d := range domains {
			w := d.Width()
			if w == 0 {
				continue
			}
			out[i] = (h[i] - d.Lo) / w
		}
		return out
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	normed := make([][]float64, len(pool))
	for i, h := range pool {
		normed[i] = norm(h)
	}
	center := make([]float64, len(domains))
	for i := range center {
		center[i] = 0.5
	}
	first, best := 0, -1.0
	for i := range pool {
		if d := dist(normed[i], center); d > best {
			first, best = i, d
		}
	}
	chosen := []int{first}
	for len(chosen) < k {
		next, bestMin := -1, -1.0
		for i := range pool {
			minD := math.Inf(1)
			for _, c := range chosen {
				if i == c {
					minD = 0
					break
				}
				if d := dist(normed[i], normed[c]); d < minD {
					minD = d
				}
			}
			if minD > bestMin {
				next, bestMin = i, minD
			}
		}
		if next < 0 || bestMin == 0 {
			break
		}
		chosen = append(chosen, next)
	}
	out := make([][]float64, len(chosen))
	for i, c := range chosen {
		out[i] = pool[c]
	}
	return out
}

// fillRandomVector draws a uniform point from the box into h, consuming
// the RNG exactly like randomVector.
func fillRandomVector(h []float64, domains []interval.Interval, rng *rand.Rand) {
	for i, d := range domains {
		h[i] = d.Lo + rng.Float64()*d.Width()
	}
}

// fillMidpoint writes the box midpoint into out.
func fillMidpoint(out []float64, box []interval.Interval) {
	for i, iv := range box {
		out[i] = iv.Mid()
	}
}
