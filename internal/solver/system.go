package solver

import (
	"context"
	"math"
	"math/rand"
	"sync"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
	"compsynth/internal/obs"
	"compsynth/internal/sketch"
)

// System is a compiled conjunction of preference constraints: the
// Problem representation lowered for the solver's hot paths, bit-exact
// with the Problem-based reference path (violation/Satisfies in
// solver.go), which is what keeps synthesis transcripts identical for
// fixed seeds. It evaluates the constraints two ways:
//
//   - the point checks (Violation, Satisfies, SatisfiedMask) run the
//     sketch body once for a hole vector, with the constraints' sides
//     as scenario lanes, and read each f(better) − f(worse) off the
//     output column; repair keeps those lanes' rows across its descent
//     and re-runs only the moved hole's cone per trial;
//   - one fused hole-only difference program per constraint
//     (sketch.SpecializeDiff), so the sampling sweeps, prune waves,
//     floor corners, and learned-cache checks run each constraint over
//     lanes of hole vectors or boxes.
//
// A System is built once and mutated incrementally as preference edges
// are recorded (AddPref/InsertPref/RemovePref/AddTie), so the per-
// iteration cost of the synthesis loop is one specialization pair per
// new edge instead of a full problem rebuild. Mutation is not
// goroutine-safe; the point checks and the search methods only read and
// may be called concurrently (and with Workers > 1).
type System struct {
	sk     *sketch.Sketch
	margin float64
	viable func(holes []float64) bool
	stats  *Stats
	// metrics, when non-nil, times and counts the public searches
	// (see SetMetrics). Nil means zero instrumentation cost: the
	// wrappers skip even the clock reads.
	metrics *Metrics
	// learned, when non-nil, is the cross-search learned-prune cache
	// (see SetLearned and learned.go). Every constraint mutation is
	// reported to it so cached facts are invalidated exactly when the
	// constraints supporting them go away.
	learned *Learned
	// progress, when non-nil, receives per-wave live-introspection
	// stores (see SetProgress and progress.go); log, when non-nil,
	// receives wave-level debug events. Both are updated once per wave,
	// never per box.
	progress *Progress
	log      *obs.Logger

	prefs []Pref
	cps   []compiledPref
	ties  []Tie
	cts   []compiledTie

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

// compiledPref is a preference edge lowered to one hole-only program
// computing f(better) - f(worse). Fusing the pair into a single
// difference program halves evaluator dispatch per constraint and keeps
// each constraint's instructions contiguous; the result is bit-exact
// with evaluating the sides separately and subtracting (same float ops
// in the same order, and interval Sub is exactly the Bin/OpSub
// semantics).
type compiledPref struct {
	diff *expr.Program
	// key and addVersion identify the constraint to the learned-prune
	// cache: key is the content identity (exact scenario float bits),
	// addVersion the cache's monotone addition counter. Both are zero
	// when no cache is attached.
	key        string
	addVersion uint64
}

// compiledTie is an indifference constraint lowered the same way:
// one program computing f(A) - f(B), checked against ±band.
type compiledTie struct {
	diff *expr.Program
	band float64
	// key and addVersion: see compiledPref.
	key        string
	addVersion uint64
}

// NewSystem returns an empty compiled system over the sketch's hole
// box. margin and viable have Problem.Margin/Problem.Viable semantics.
// stats, when non-nil, accumulates specialization counters (and is also
// the default Stats sink for searches run through the system).
func NewSystem(sk *sketch.Sketch, margin float64, viable func(holes []float64) bool, stats *Stats) *System {
	return &System{sk: sk, margin: margin, viable: viable, stats: stats}
}

// compileSystem lowers a Problem. Specializations hit the sketch's
// cache after the first compile of each distinct scenario, so repeated
// solver calls over a growing problem stay cheap.
func compileSystem(p Problem, stats *Stats) *System {
	s := NewSystem(p.Sketch, p.Margin, p.Viable, stats)
	s.prefs = make([]Pref, 0, len(p.Prefs))
	s.cps = make([]compiledPref, 0, len(p.Prefs))
	s.ties = make([]Tie, 0, len(p.Ties))
	s.cts = make([]compiledTie, 0, len(p.Ties))
	for _, c := range p.Prefs {
		s.AddPref(c)
	}
	for _, t := range p.Ties {
		s.AddTie(t)
	}
	return s
}

// compileDiff obtains the fused difference program f(a) - f(b) for a
// constraint, served from the sketch's pair cache (which in turn builds
// on the per-scenario specialization cache), with counter accounting.
func (s *System) compileDiff(a, b []float64) *expr.Program {
	prog, hit := s.sk.SpecializeDiff(a, b)
	if s.stats != nil {
		if hit {
			s.stats.SpecCacheHits.Add(1)
		} else {
			s.stats.SpecCompiles.Add(1)
		}
	}
	return prog
}

// SetMetrics attaches registry-backed instruments (obtained from
// NewMetrics) to the system's searches. A nil argument detaches them.
// Like constraint mutation, SetMetrics is not goroutine-safe with
// concurrent searches.
func (s *System) SetMetrics(m *Metrics) { s.metrics = m }

// SetLearned attaches a learned-prune cache. Constraints already in the
// system are registered with it, so attaching to a non-empty system is
// safe; detaching (nil) leaves the cache's bookkeeping consistent for a
// later re-attach. Like constraint mutation, SetLearned is not
// goroutine-safe with concurrent searches.
//
// One cache must serve one constraint stream: attach a Learned to a
// single System for its lifetime (the synthesizer holds exactly one of
// each per session).
func (s *System) SetLearned(l *Learned) {
	if s.learned == l {
		return
	}
	if s.learned != nil {
		// Retire this system's constraints from the old cache so its
		// presence counts do not leak.
		for i := range s.cps {
			s.learned.constraintRemoved(s.cps[i].key)
		}
		for i := range s.cts {
			s.learned.constraintRemoved(s.cts[i].key)
		}
	}
	s.learned = l
	if l == nil {
		for i := range s.cps {
			s.cps[i].key, s.cps[i].addVersion = "", 0
		}
		for i := range s.cts {
			s.cts[i].key, s.cts[i].addVersion = "", 0
		}
		return
	}
	for i := range s.cps {
		s.cps[i].key = prefKey(s.prefs[i])
		s.cps[i].addVersion = l.constraintAdded(s.cps[i].key)
	}
	for i := range s.cts {
		s.cts[i].key = tieKey(s.ties[i])
		s.cts[i].addVersion = l.constraintAdded(s.cts[i].key)
	}
}

// Learned returns the attached learned-prune cache (nil if none).
func (s *System) Learned() *Learned { return s.learned }

// Sketch returns the sketch the system is compiled against.
func (s *System) Sketch() *sketch.Sketch { return s.sk }

// Margin returns the strictness slack (Problem.Margin).
func (s *System) Margin() float64 { return s.margin }

// NumPrefs returns the number of preference constraints.
func (s *System) NumPrefs() int { return len(s.prefs) }

// NumTies returns the number of indifference constraints.
func (s *System) NumTies() int { return len(s.ties) }

// Prefs returns the preference constraints in constraint order (copy).
func (s *System) Prefs() []Pref { return append([]Pref(nil), s.prefs...) }

// Ties returns the indifference constraints in constraint order (copy).
func (s *System) Ties() []Tie { return append([]Tie(nil), s.ties...) }

// AddPref appends a preference constraint.
func (s *System) AddPref(c Pref) {
	s.prefs = append(s.prefs, c)
	s.cps = append(s.cps, s.compilePref(c))
	s.scenVer++
}

// compilePref lowers one preference constraint, registering it with the
// learned cache when one is attached.
func (s *System) compilePref(c Pref) compiledPref {
	cp := compiledPref{diff: s.compileDiff(c.Better, c.Worse)}
	if s.learned != nil {
		cp.key = prefKey(c)
		cp.addVersion = s.learned.constraintAdded(cp.key)
	}
	return cp
}

// InsertPref inserts a preference constraint at index i. Constraint
// order is observable — the violation sum and the satisfaction mask
// follow it — so callers maintaining a canonical order (the synthesizer
// mirrors prefgraph.Edges) insert rather than append.
func (s *System) InsertPref(i int, c Pref) {
	s.prefs = append(s.prefs, Pref{})
	copy(s.prefs[i+1:], s.prefs[i:])
	s.prefs[i] = c
	s.cps = append(s.cps, compiledPref{})
	copy(s.cps[i+1:], s.cps[i:])
	s.cps[i] = s.compilePref(c)
	s.scenVer++
}

// RemovePref removes the preference constraint at index i. With a
// learned cache attached this bumps the cache's removal epoch: cached
// point-level facts are no longer monotone once the constraint set can
// shrink, and refutations proved by this constraint die with its last
// instance.
func (s *System) RemovePref(i int) {
	if s.learned != nil {
		s.learned.constraintRemoved(s.cps[i].key)
	}
	s.prefs = append(s.prefs[:i], s.prefs[i+1:]...)
	s.cps = append(s.cps[:i], s.cps[i+1:]...)
	s.scenVer++
}

// AddTie appends an indifference constraint.
func (s *System) AddTie(t Tie) {
	ct := compiledTie{diff: s.compileDiff(t.A, t.B), band: t.Band}
	if s.learned != nil {
		ct.key = tieKey(t)
		ct.addVersion = s.learned.constraintAdded(ct.key)
	}
	s.ties = append(s.ties, t)
	s.cts = append(s.cts, ct)
	s.scenVer++
}

// Reset drops all constraints, keeping the sketch and its
// specialization cache. A rebuild (Reset + re-adding the same
// constraints) keeps the learned cache's refutations alive: each re-add
// restores its key's presence count, so refuted boxes stay valid, while
// point-level facts lapse with the epoch bump — exactly the
// conservative direction.
func (s *System) Reset() {
	if s.learned != nil {
		for i := range s.cps {
			s.learned.constraintRemoved(s.cps[i].key)
		}
		for i := range s.cts {
			s.learned.constraintRemoved(s.cts[i].key)
		}
	}
	s.prefs, s.cps = s.prefs[:0], s.cps[:0]
	s.ties, s.cts = s.ties[:0], s.cts[:0]
	s.scenVer++
}

// ExportLearned serializes the attached learned cache's refuted boxes,
// naming each refuting constraint by its current index in this system's
// constraint order. Returns nil when no cache is attached or nothing is
// cached. Call only while the constraint set is quiescent (same rule as
// mutation).
func (s *System) ExportLearned() *LearnedSummary {
	if s.learned == nil {
		return nil
	}
	prefIdx := make(map[string]int, len(s.cps))
	for i := len(s.cps) - 1; i >= 0; i-- {
		prefIdx[s.cps[i].key] = i // first instance wins
	}
	tieIdx := make(map[string]int, len(s.cts))
	for i := len(s.cts) - 1; i >= 0; i-- {
		tieIdx[s.cts[i].key] = i
	}
	var sum LearnedSummary
	s.learned.forEachRefuted(func(box []interval.Interval, refuter string) {
		r := RefutedRegion{Box: make([][2]float64, len(box))}
		for i, iv := range box {
			r.Box[i] = [2]float64{iv.Lo, iv.Hi}
		}
		if i, ok := prefIdx[refuter]; ok {
			r.Index = i
		} else if i, ok := tieIdx[refuter]; ok {
			r.Tie, r.Index = true, i
		} else {
			return // constraint no longer in this system; drop the entry
		}
		sum.Refuted = append(sum.Refuted, r)
	})
	if len(sum.Refuted) == 0 {
		return nil
	}
	return &sum
}

// WarmLearned installs a summary exported by another session (the
// fleet's shared learned tier) into the attached cache. It re-proves
// each region independently and installs only the ones that check out,
// skipping the rest. A region first tries the constraint index the
// exporter named (cheap, and exact for same-history summaries); when
// that fails — cross-session summaries index a different constraint
// order — every constraint is scanned for one that refutes the box.
// Every installed fact is therefore proven against *this* system, so
// warming can never change results, only skip work the prune engine
// would have redone. The proofs run through the system's pooled batch
// scratch, as the prune engine's do. Returns how many regions were
// installed and how many were skipped.
func (s *System) WarmLearned(sum *LearnedSummary) (installed, skipped int) {
	if sum == nil || s.learned == nil {
		return 0, 0
	}
	dim := len(s.sk.Domains())
	b := s.getBatch(batchLanes)
	defer s.putBatch(b)
	box := [][]interval.Interval{make([]interval.Interval, dim)}
	for _, r := range sum.Refuted {
		if len(r.Box) != dim || !finiteRegion(r) {
			skipped++
			continue
		}
		for j, iv := range r.Box {
			box[0][j] = interval.New(iv[0], iv[1])
		}
		key, ok := s.refuterFor(b, box, r)
		if !ok {
			skipped++
			continue
		}
		s.learned.storeBox(hashBox(box[0]), append([]interval.Interval(nil), box[0]...), key, false)
		installed++
	}
	return installed, skipped
}

// refuterFor finds a constraint of this system that provably refutes
// box[0], preferring the index the exporting system recorded. Each
// check is one 1-lane interval pass through b.
func (s *System) refuterFor(b *Batch, box [][]interval.Interval, r RefutedRegion) (key string, ok bool) {
	lane := []int{0}
	refutesPref := func(i int) bool {
		_, hi := s.ivLanes(b, s.cps[i].diff, box, lane, nil)
		return hi[0] <= s.margin
	}
	refutesTie := func(i int) bool {
		ct := s.cts[i]
		lo, hi := s.ivLanes(b, ct.diff, box, lane, nil)
		return lo[0] > ct.band || hi[0] < -ct.band
	}
	if r.Tie && r.Index >= 0 && r.Index < len(s.cts) && refutesTie(r.Index) {
		return s.cts[r.Index].key, true
	}
	if !r.Tie && r.Index >= 0 && r.Index < len(s.cps) && refutesPref(r.Index) {
		return s.cps[r.Index].key, true
	}
	for i := range s.cps {
		if refutesPref(i) {
			return s.cps[i].key, true
		}
	}
	for i := range s.cts {
		if refutesTie(i) {
			return s.cts[i].key, true
		}
	}
	return "", false
}

// finiteRegion reports whether a region's bounds are finite, ordered
// intervals; WarmLearned skips any region that is not.
func finiteRegion(r RefutedRegion) bool {
	for _, b := range r.Box {
		if math.IsNaN(b[0]) || math.IsInf(b[0], 0) || math.IsNaN(b[1]) || math.IsInf(b[1], 0) || b[0] > b[1] {
			return false
		}
	}
	return true
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
// with the margin, and the viability check if set.
func (s *System) Satisfies(holes []float64) bool {
	sl := s.getScenarios()
	defer s.putScenarios(sl)
	return s.satisfied(s.scenarioOuts(sl, holes), holes)
}

// SatisfiedMask writes the per-preference satisfaction of θ into mask
// (parallel to the constraint order; ties are not included). mask is
// grown as needed and returned.
func (s *System) SatisfiedMask(holes []float64, mask []bool) []bool {
	if cap(mask) < len(s.cps) {
		mask = make([]bool, len(s.cps))
	}
	mask = mask[:len(s.cps)]
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
		if s.hintSatisfies(h) {
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
	if opts.Workers > 1 {
		ws, err := s.parallelWitnesses(ctx, opts, rng, 1)
		if err != nil {
			return nil, StatusUnknown, err
		}
		if len(ws) > 0 {
			return ws[0], StatusSat, nil
		}
	} else {
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
	}

	// Stage 3: branch-and-prune (the parallel wave engine; prune.go).
	return s.branchAndPrune(ctx, domains, opts)
}

// hintSatisfies is Satisfies with the learned point cache in front: a
// hint that failed once stays failing while the constraint set only
// grows (epoch-guarded against removals), so the full evaluation is
// skipped; fresh failures are recorded. The boolean is identical to
// Satisfies(h) — the cache only skips re-deriving it — which keeps the
// hint stage's control flow, counters, and RNG consumption bit-exact
// with the uncached path.
func (s *System) hintSatisfies(h []float64) bool {
	if s.learned == nil {
		return s.Satisfies(h)
	}
	if s.learned.pointKnownUnsat(h) {
		return false
	}
	if s.Satisfies(h) {
		return true
	}
	s.learned.notePointUnsat(h)
	return false
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
// Violation per trial. The final Satisfies is read off the committed
// outputs.
func (s *System) repair(start []float64, domains []interval.Interval, steps int, rng *rand.Rand) ([]float64, bool) {
	sl := s.getScenarios()
	defer s.putScenarios(sl)
	sb := sl.sb
	h := append([]float64(nil), start...)
	loss := s.hinge(s.scenarioOuts(sl, h))
	if loss == 0 {
		return h, s.satisfied(sb.Outs(), h)
	}
	step := make([]float64, len(domains))
	for i, d := range domains {
		step[i] = d.Width() / 4
	}
	for it := 0; it < steps && loss > 0; it++ {
		improved := false
		// Random dimension order de-correlates descent paths between
		// restarts.
		for _, i := range rng.Perm(len(h)) {
			for _, dir := range []float64{+1, -1} {
				cand := h[i] + dir*step[i]
				if cand < domains[i].Lo || cand > domains[i].Hi {
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
			return h, s.satisfied(sb.Outs(), h)
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
	return h, loss == 0 && s.satisfied(sb.Outs(), h)
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
	// so skip the pool build — and with it the per-worker budget
	// partition (seed derivation + job allocation) that parallelWitnesses
	// would otherwise redo on every call. FindCandidate's staging covers
	// hints, sampling, repair, and the exhaustive fallback.
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
		if s.hintSatisfies(h) {
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
	// concentrate). With Workers > 1 the search fans out.
	if opts.Workers > 1 {
		per := (8*k + opts.Workers - 1) / opts.Workers
		ws, err := s.parallelWitnesses(ctx, opts, rng, per)
		if err != nil {
			return nil, err
		}
		pool = append(pool, ws...)
	} else {
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
