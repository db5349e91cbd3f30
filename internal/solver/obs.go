package solver

import (
	"time"

	"compsynth/internal/obs"
)

// Metrics bundles the registry instruments of the solver layer. The
// effort counters (samples, repairs, boxes, ...) are read-through
// views over a Stats — the hot path keeps bumping the same atomics it
// always has, and the registry reads them at scrape time — while the
// search-level counters and the latency histogram are written once per
// search, far off the hot path.
//
// A nil *Metrics disables everything (System methods guard the clock
// reads behind a nil check), so instrumentation costs nothing when
// observability is off.
type Metrics struct {
	candidateSearches   *obs.Counter
	distinguishSearches *obs.Counter
	diverseSearches     *obs.Counter
	bestEffortSearches  *obs.Counter
	satVerdicts         *obs.Counter
	unsatVerdicts       *obs.Counter
	unknownVerdicts     *obs.Counter
	searchSeconds       *obs.Histogram
	// pruneDepth distributes branch-and-prune boxes over frontier depth
	// (one observation per processed box, bulked per wave). Deep tails
	// mean the constraint surface resists interval refutation.
	pruneDepth *obs.Histogram
}

// NewMetrics registers the solver instruments on the registry and, if
// stats is non-nil, read-through counter views over its atomics.
// Returns nil when reg is nil.
func NewMetrics(reg *obs.Registry, stats *Stats) *Metrics {
	if reg == nil {
		return nil
	}
	if stats != nil {
		view := func(name, help string, load func() int64) {
			reg.CounterFunc(name, help, func() float64 { return float64(load()) })
		}
		view("compsynth_solver_samples_total", "uniform random hole vectors evaluated", stats.Samples.Load)
		view("compsynth_solver_repairs_total", "hinge-loss repair descents started", stats.Repairs.Load)
		view("compsynth_solver_boxes_total", "branch-and-prune boxes processed", stats.Boxes.Load)
		view("compsynth_solver_boxes_pruned_total", "branch-and-prune boxes refuted by interval bounds", stats.BoxesPruned.Load)
		view("compsynth_solver_prune_steals_total", "work-stealing span steals in the parallel prune engine", stats.Steals.Load)
		view("compsynth_solver_hint_hits_total", "warm-start hints that were directly feasible", stats.HintHits.Load)
		view("compsynth_solver_batched_evals_total", "constraint evaluations in the batched sweeps (one per hole-vector lane) and prune waves (one per box)", stats.BatchedEvals.Load)
	}
	return &Metrics{
		candidateSearches:   reg.Counter("compsynth_solver_candidate_searches_total", "FindCandidate searches run"),
		distinguishSearches: reg.Counter("compsynth_solver_distinguish_searches_total", "distinguishing-query searches run"),
		diverseSearches:     reg.Counter("compsynth_solver_diverse_searches_total", "FindDiverse searches run"),
		bestEffortSearches:  reg.Counter("compsynth_solver_best_effort_searches_total", "BestEffort searches run"),
		satVerdicts:         reg.Counter("compsynth_solver_sat_total", "searches ending sat"),
		unsatVerdicts:       reg.Counter("compsynth_solver_unsat_total", "searches ending unsat"),
		unknownVerdicts:     reg.Counter("compsynth_solver_unknown_total", "searches ending unknown"),
		searchSeconds:       reg.Histogram("compsynth_solver_search_seconds", "per-search wall-clock latency", obs.SecondsBuckets()),
		pruneDepth:          reg.Histogram("compsynth_solver_prune_depth", "branch-and-prune frontier depth per box processed", obs.ExpBuckets(1, 2, 10)),
	}
}

// observePruneDepth records `boxes` processed boxes at one frontier
// depth — called once per wave, off the box-evaluation hot path.
func (m *Metrics) observePruneDepth(depth, boxes int) {
	if m == nil {
		return
	}
	m.pruneDepth.ObserveN(float64(depth), int64(boxes))
}

// observe records one completed search. kind is nil when the search
// has no per-kind counter; st < 0 means "no verdict" (BestEffort,
// FindDiverse).
func (m *Metrics) observe(kind *obs.Counter, d time.Duration, st Status, hasStatus bool) {
	if m == nil {
		return
	}
	kind.Inc()
	m.searchSeconds.Observe(d.Seconds())
	if !hasStatus {
		return
	}
	switch st {
	case StatusSat:
		m.satVerdicts.Inc()
	case StatusUnsat:
		m.unsatVerdicts.Inc()
	case StatusUnknown:
		m.unknownVerdicts.Inc()
	}
}
