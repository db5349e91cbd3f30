// Package solver is the constraint-solving backend of the comparative
// synthesizer — the project's substitute for the Z3 SMT solver used in
// the paper (Go has no solid Z3 bindings, and the repository is
// self-contained by design; see DESIGN.md §3).
//
// The queries the synthesizer needs are existential formulas over a
// bounded box:
//
//   - consistency: find a hole vector θ with f_θ(u) > f_θ(v) for every
//     preference edge u→v,
//   - distinguishing: find two consistent hole vectors θa, θb and two
//     scenarios x1, x2 such that f_θa(x1) > f_θa(x2) while
//     f_θb(x2) > f_θb(x1).
//
// Both are decided δ-style: strict inequalities carry a margin, and
// exhaustive interval branch-and-prune at a resolution floor provides
// the UNSAT direction, while randomized sampling with hinge-loss repair
// provides fast SAT witnesses. This mirrors dReal's δ-decisions, which
// are exactly what the paper's convergence check ("the SMT solver may
// return unsatisfiable") requires over a bounded metric box.
//
// Repair is coordinate descent on the hinge loss: each trial moves one
// hole by its step and is kept when the loss falls. It runs on a
// scenario batch of the sketch body that keeps its rows
// (expr.ScenarioBatch), so a trial re-evaluates only the instructions
// downstream of the moved hole, bit-identical to a full evaluation at
// the moved vector.
package solver

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"compsynth/internal/interval"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// Pref is one preference constraint: the objective must score Better
// strictly above Worse.
type Pref struct {
	Better, Worse scenario.Scenario
}

// Problem is a conjunction of preference constraints over a sketch's
// hole box.
type Problem struct {
	Sketch *sketch.Sketch
	Prefs  []Pref
	// Margin is the strictness slack: a constraint is satisfied when
	// f(better) - f(worse) > Margin. Zero means plain strict inequality;
	// a small positive margin keeps witnesses numerically robust.
	Margin float64
}

// Status is a solver verdict.
type Status int

// Solver verdicts.
const (
	// StatusSat means a witness was found.
	StatusSat Status = iota
	// StatusUnsat means branch-and-prune exhausted the box at the
	// configured resolution without finding a witness: no solution
	// exists (up to the δ margin).
	StatusUnsat
	// StatusUnknown means the sampling/refinement budget ran out before
	// either a witness or an exhaustive refutation was established.
	StatusUnknown
)

func (s Status) String() string {
	switch s {
	case StatusSat:
		return "sat"
	case StatusUnsat:
		return "unsat"
	case StatusUnknown:
		return "unknown"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Budget groups the search-budget knobs of Options: how much sampling,
// repair, and pruning effort a query may spend, and how many goroutines
// branch-and-prune spreads over. It is embedded in Options, so existing
// field accesses (opts.Samples, opts.MaxBoxes, ...) keep compiling;
// composite literals should name the Budget explicitly.
type Budget struct {
	// Samples is the number of uniform random hole vectors tried before
	// and between repair attempts.
	Samples int
	// RepairRestarts is the number of hinge-loss coordinate-descent
	// repairs started from random points.
	RepairRestarts int
	// RepairSteps bounds the descent iterations per restart.
	RepairSteps int
	// MinBoxWidth is the branch-and-prune resolution floor, as a
	// fraction of each hole domain's width.
	MinBoxWidth float64
	// MaxBoxes bounds the number of boxes branch-and-prune may process.
	MaxBoxes int
	// PruneWorkers parallelizes the branch-and-prune stage across the
	// work-stealing wave engine (see prune.go). The prune verdict,
	// witness, and box counts are bit-identical for any PruneWorkers
	// value: per-box outcomes are pure and the merge runs in frontier
	// order. ≤ 0 selects runtime.GOMAXPROCS(0), which is safe
	// precisely because of that invariance. Sampling and repair always
	// run sequentially on the caller's RNG.
	PruneWorkers int
}

// Options tune the search. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Budget holds the effort knobs; its fields are promoted, so
	// opts.Samples etc. read as before.
	Budget
	// Hints are warm-start hole vectors (e.g. witnesses from earlier
	// iterations). They are checked first and used as repair starting
	// points; vectors outside the domain box are clamped.
	Hints [][]float64
	// Stats, when non-nil, accumulates search-effort counters across
	// calls (atomically; safe with PruneWorkers > 1). Observability
	// hook for tuning budgets.
	Stats *Stats
}

// Stats counts solver effort. All counters are cumulative and safe for
// concurrent use.
//
// Stats is the storage layer of the solver's observability: the atomics
// here are bumped on hot paths, and an attached obs.Registry (see
// NewMetrics) exposes them as thin read-through counter views — the
// registry reads the atomics at scrape time, so /metrics costs nothing
// on the search path.
type Stats struct {
	// Samples is the number of uniform random vectors evaluated.
	Samples atomic.Int64
	// Repairs is the number of repair descents started.
	Repairs atomic.Int64
	// Boxes is the number of boxes branch-and-prune processed.
	Boxes atomic.Int64
	// BoxesPruned is the number of boxes branch-and-prune refuted by
	// interval bounds alone (no solution inside, no split needed).
	BoxesPruned atomic.Int64
	// Steals counts work-stealing deque steals in the parallel prune
	// engine. Unlike the other counters it is scheduling-dependent:
	// the value varies run to run (the results never do).
	Steals atomic.Int64
	// HintHits counts warm-start hints that were directly feasible.
	HintHits atomic.Int64
	// SpecCompiles counts constraint difference programs compiled (one
	// per constraint added to a System).
	SpecCompiles atomic.Int64
	// BatchedEvals counts constraint evaluations in the batched stages:
	// one per lane of each fused-program pass in the point sweeps
	// (sampling, the midpoint probe, the floor corners), and one per
	// constraint for every box the prune waves bound over all
	// constraints in one box-batch pass. The point checks, repair and
	// the score matrices, which run the sketch body over scenario
	// lanes, are not counted. Like Steals it depends on how the work is
	// cut, not on what it decides: the value varies with the lane width
	// while the search results never do, so it is excluded from
	// transcript-invariance comparisons.
	BatchedEvals atomic.Int64
}

// String renders the counters compactly.
func (s *Stats) String() string {
	return s.Snapshot().String()
}

// StatsSnapshot is a plain (non-atomic) copy of the Stats counters at
// one instant. Snapshots can be compared and subtracted without racing
// the live atomics, which is how callers attribute effort to phases of
// a session (e.g. initial ranking vs the query loop).
type StatsSnapshot struct {
	Samples      int64
	Repairs      int64
	Boxes        int64
	BoxesPruned  int64
	Steals       int64
	HintHits     int64
	SpecCompiles int64
	BatchedEvals int64
	// SpecCacheHits is always 0; kept for bench/.
	SpecCacheHits int64
	// ScalarEvals is always 0; kept for bench/.
	ScalarEvals int64
}

// Snapshot copies the current counter values. Each counter is loaded
// atomically; the snapshot as a whole is not an atomic cut across
// counters, which is fine for effort accounting (counters only grow).
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Samples:      s.Samples.Load(),
		Repairs:      s.Repairs.Load(),
		Boxes:        s.Boxes.Load(),
		BoxesPruned:  s.BoxesPruned.Load(),
		Steals:       s.Steals.Load(),
		HintHits:     s.HintHits.Load(),
		SpecCompiles: s.SpecCompiles.Load(),
		BatchedEvals: s.BatchedEvals.Load(),
	}
}

// Reset zeroes every counter.
func (s *Stats) Reset() {
	s.Samples.Store(0)
	s.Repairs.Store(0)
	s.Boxes.Store(0)
	s.BoxesPruned.Store(0)
	s.Steals.Store(0)
	s.HintHits.Store(0)
	s.SpecCompiles.Store(0)
	s.BatchedEvals.Store(0)
}

// Sub returns the per-counter difference a − b: the effort spent
// between two snapshots of the same Stats.
func (a StatsSnapshot) Sub(b StatsSnapshot) StatsSnapshot {
	return StatsSnapshot{
		Samples:      a.Samples - b.Samples,
		Repairs:      a.Repairs - b.Repairs,
		Boxes:        a.Boxes - b.Boxes,
		BoxesPruned:  a.BoxesPruned - b.BoxesPruned,
		Steals:       a.Steals - b.Steals,
		HintHits:     a.HintHits - b.HintHits,
		SpecCompiles: a.SpecCompiles - b.SpecCompiles,
		BatchedEvals: a.BatchedEvals - b.BatchedEvals,
	}
}

// String renders the snapshot in the Stats.String format.
func (s StatsSnapshot) String() string {
	return fmt.Sprintf("samples=%d repairs=%d boxes=%d pruned=%d steals=%d hint-hits=%d spec-compiles=%d batch-evals=%d",
		s.Samples, s.Repairs, s.Boxes, s.BoxesPruned, s.Steals, s.HintHits, s.SpecCompiles, s.BatchedEvals)
}

// DefaultOptions returns the tuning used by the synthesizer.
func DefaultOptions() Options {
	return Options{
		Budget: Budget{
			Samples:        400,
			RepairRestarts: 12,
			RepairSteps:    160,
			MinBoxWidth:    1.0 / 256,
			MaxBoxes:       20000,
		},
	}
}

// violation returns the hinge loss of θ against the constraints: 0 iff
// every constraint holds with the margin.
//
// This is the reference implementation: two Sketch.Eval calls per
// constraint. The hot path uses the bit-identical System.Violation,
// which computes the same differences from one lane pass of the body
// over the constraints' scenarios; this one is kept as the
// differential baseline for tests and the BenchmarkViolation
// comparison.
func violation(p Problem, holes []float64) float64 {
	var loss float64
	for _, c := range p.Prefs {
		diff := p.Sketch.Eval(c.Better, holes) - p.Sketch.Eval(c.Worse, holes)
		if slack := p.Margin - diff; slack > 0 {
			// Use slack itself (not squared): scale-free and exact zero
			// at feasibility.
			loss += slack
		}
	}
	return loss
}

// Satisfies reports whether the hole vector satisfies every preference
// constraint with the problem margin.
//
// Like violation, this is the uncompiled reference path; the solver
// itself runs System.Satisfies.
func Satisfies(p Problem, holes []float64) bool {
	for _, c := range p.Prefs {
		if p.Sketch.Eval(c.Better, holes)-p.Sketch.Eval(c.Worse, holes) <= p.Margin {
			return false
		}
	}
	return true
}

// clampToBox returns a copy of h with every coordinate clamped into its
// domain (short vectors are padded with midpoints).
func clampToBox(h []float64, domains []interval.Interval) []float64 {
	out := make([]float64, len(domains))
	for i, d := range domains {
		if i < len(h) {
			out[i] = d.Clamp(h[i])
		} else {
			out[i] = d.Mid()
		}
	}
	return out
}

// randomVector draws a uniform point from the box.
func randomVector(domains []interval.Interval, rng *rand.Rand) []float64 {
	h := make([]float64, len(domains))
	for i, d := range domains {
		h[i] = d.Lo + rng.Float64()*d.Width()
	}
	return h
}
