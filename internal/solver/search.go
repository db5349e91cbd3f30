package solver

import (
	"context"
	"math/rand"
	"time"
)

// Search is the context-first entry point to the solver — the v1 API.
// It wraps a compiled *System and exposes the same queries with
// cooperative cancellation: every method takes a context and stops at
// the next budget-unit boundary (a sample, a repair restart, a prune
// span) once the context is done.
//
// Error contract: the error is non-nil exactly when the context was
// canceled or its deadline expired, and is then ctx.Err() (possibly
// wrapped). On error the verdict is StatusUnknown and partial results
// must not be interpreted — the search was cut short, not completed.
// Methods never invent their own errors: an uncancellable run always
// terminates with a Status, as before.
//
// The v0 surface — context-free FindCandidate, BestEffort,
// FindDiverse, FindDistinguishing, and FindDistinguishingMany on
// Problem and on System — is gone: call Compile(p, opts.Stats) or
// NewSearch(sys) and the method of the same name with a context
// (DESIGN.md §10).
//
// A Search is a small value (one pointer); copy it freely. The
// underlying System's mutation rules still apply: searches only read,
// so they may run with PruneWorkers > 1, but must not race
// AddPref/InsertPref/RemovePref/Reset/SetMetrics.
type Search struct {
	sys *System
}

// NewSearch wraps a compiled constraint system. Callers that solve a
// growing problem repeatedly (the synthesizer) hold one System and wrap
// it once; the Search sees constraint mutations through the pointer.
func NewSearch(sys *System) Search { return Search{sys: sys} }

// Compile lowers a Problem and returns its Search — the one-shot
// entry point. Callers that solve a growing problem repeatedly hold one
// System instead (NewSearch) and mutate its constraints in place.
func Compile(p Problem, stats *Stats) Search {
	return Search{sys: compileSystem(p, stats)}
}

// System returns the underlying compiled system (for constraint
// mutation or introspection).
func (s Search) System() *System { return s.sys }

// FindCandidate searches the hole box for a vector consistent with all
// constraints: (1) warm-start hints, (2) uniform sampling, (3)
// hinge-loss repair, (4) exhaustive interval branch-and-prune (the
// parallel wave engine; see prune.go). Only stage 4 can return
// StatusUnsat; if its box budget runs out first the result is
// StatusUnknown.
func (s Search) FindCandidate(ctx context.Context, opts Options, rng *rand.Rand) ([]float64, Status, error) {
	sys := s.sys
	sys.noteSearch()
	var start time.Time
	if sys.metrics != nil {
		start = time.Now()
	}
	h, st, err := sys.findCandidate(ctx, opts, rng)
	if sys.metrics != nil {
		sys.metrics.observe(sys.metrics.candidateSearches, time.Since(start), st, true)
	}
	return h, st, err
}

// BestEffort returns the lowest-violation hole vector found within the
// sampling/repair budget, its hinge loss (0 means fully consistent),
// and the per-constraint satisfaction mask. On cancellation the
// best-so-far point is still returned alongside the error; callers that
// only want completed searches should discard it when err != nil.
func (s Search) BestEffort(ctx context.Context, opts Options, rng *rand.Rand) (holes []float64, loss float64, satisfied []bool, err error) {
	sys := s.sys
	sys.noteSearch()
	var start time.Time
	if sys.metrics != nil {
		start = time.Now()
	}
	holes, loss, satisfied, err = sys.bestEffort(ctx, opts, rng)
	if sys.metrics != nil {
		sys.metrics.observe(sys.metrics.bestEffortSearches, time.Since(start), 0, false)
	}
	return holes, loss, satisfied, err
}

// FindDiverse returns up to k consistent hole vectors that are mutually
// spread out in the hole box (greedy max-min selection over a witness
// pool). k ≤ 1 takes the single-candidate fast path: it delegates to
// the FindCandidate staging and never builds the pool or the per-worker
// budget partition.
func (s Search) FindDiverse(ctx context.Context, k int, opts Options, rng *rand.Rand) ([][]float64, error) {
	sys := s.sys
	sys.noteSearch()
	var start time.Time
	if sys.metrics != nil {
		start = time.Now()
	}
	out, err := sys.findDiverse(ctx, k, opts, rng)
	if sys.metrics != nil {
		sys.metrics.observe(sys.metrics.diverseSearches, time.Since(start), 0, false)
	}
	return out, err
}

// FindDistinguishing searches for a single distinguishing witness.
//
// Verdicts:
//   - StatusSat: witness found (returned).
//   - StatusUnsat: no pair of consistent candidates disagrees above the
//     Gamma resolution — the synthesis has converged. A representative
//     consistent candidate can then be obtained with FindCandidate.
//   - StatusUnknown: no consistent candidate could be found at all
//     (over-constrained problem, e.g. inconsistent oracle input).
func (s Search) FindDistinguishing(ctx context.Context, opts Options, dopts DistinguishOptions, rng *rand.Rand) (*Distinguishing, Status, error) {
	wits, st, err := s.FindDistinguishingMany(ctx, 1, opts, dopts, rng)
	if st != StatusSat {
		return nil, st, err
	}
	return wits[0], StatusSat, nil
}

// FindDistinguishingMany returns up to k distinguishing witnesses with
// mutually distinct scenario pairs — used when the synthesizer asks the
// user to rank several pairs per iteration (paper Figure 4). Verdicts
// are FindDistinguishing's.
func (s Search) FindDistinguishingMany(ctx context.Context, k int, opts Options, dopts DistinguishOptions, rng *rand.Rand) ([]*Distinguishing, Status, error) {
	sys := s.sys
	sys.noteSearch()
	var start time.Time
	if sys.metrics != nil {
		start = time.Now()
	}
	wits, st, err := sys.findDistinguishingMany(ctx, k, opts, dopts, rng)
	if sys.metrics != nil {
		sys.metrics.observe(sys.metrics.distinguishSearches, time.Since(start), st, true)
	}
	return wits, st, err
}
