package solver

import (
	"log/slog"
	"sync/atomic"

	"compsynth/internal/obs"
)

// Progress is the live introspection surface over the branch-and-prune
// engine: a handful of atomics the engine stores into once per wave —
// off the per-box hot path — and that monitoring (GET
// /v1/sessions/{id}/progress, the compsynth -progress ticker) snapshots
// concurrently. It is strictly read-only telemetry: the engine reads
// nothing back from it, so attaching one cannot change results
// (pinned by TestGoldenTranscriptLogProgressInvariance).
//
// A nil *Progress is a no-op, matching the obs package's nil-safe
// convention.
type Progress struct {
	searches atomic.Int64
	waves    atomic.Int64
	depth    atomic.Int64
	frontier atomic.Int64
	pruned   atomic.Int64
}

// ProgressSnapshot is a plain copy of the progress gauges at one
// instant — the JSON body of the service's progress endpoint.
type ProgressSnapshot struct {
	// Searches counts solver queries started (candidate, distinguishing,
	// best-effort, and diverse searches alike).
	Searches int64 `json:"searches"`
	// Waves counts completed prune waves across all searches.
	Waves int64 `json:"waves"`
	// Depth is the frontier depth of the most recent completed wave.
	Depth int64 `json:"depth"`
	// Frontier is the box count of the most recent completed wave.
	Frontier int64 `json:"frontier"`
	// BoxesPruned counts boxes refuted by interval bounds.
	BoxesPruned int64 `json:"boxes_pruned"`
}

// Snapshot copies the current gauge values. Nil-safe.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		Searches:    p.searches.Load(),
		Waves:       p.waves.Load(),
		Depth:       p.depth.Load(),
		Frontier:    p.frontier.Load(),
		BoxesPruned: p.pruned.Load(),
	}
}

// SetProgress attaches a live-progress sink to the system's
// branch-and-prune searches (nil detaches). Like SetMetrics it is not
// goroutine-safe with concurrent searches; the attached Progress itself
// is safe to snapshot concurrently.
func (s *System) SetProgress(p *Progress) { s.progress = p }

// SetLogger attaches a structured logger for wave-level debug events
// (nil detaches). Same attachment rules as SetMetrics.
func (s *System) SetLogger(l *obs.Logger) { s.log = l }

// noteSearch publishes the start of one solver query; the Search entry
// points call it so the gauge moves even for searches that sampling or
// repair resolves before the prune engine runs.
func (s *System) noteSearch() {
	if p := s.progress; p != nil {
		p.searches.Add(1)
	}
}

// startSearch publishes the start of a branch-and-prune exploration
// (the wave gauges' frame of reference).
func (s *System) startSearch(boxes int) {
	if p := s.progress; p != nil {
		p.depth.Store(0)
		p.frontier.Store(int64(boxes))
	}
}

// emitWave publishes one completed prune wave to the live-introspection
// surfaces: the Progress gauges and the wave-level debug log event.
// Called once per wave, off the per-box hot path; with neither surface
// attached it must cost nothing — pinned by
// TestEmitWaveDisabledZeroAlloc.
func (s *System) emitWave(depth, boxes, pruned int) {
	if p := s.progress; p != nil {
		p.waves.Add(1)
		p.depth.Store(int64(depth))
		p.frontier.Store(int64(boxes))
		if pruned > 0 {
			p.pruned.Add(int64(pruned))
		}
	}
	if l := s.log; l != nil {
		l.Event(slog.LevelDebug, "solver.prune.wave",
			obs.Num("depth", float64(depth)),
			obs.Num("boxes", float64(boxes)),
			obs.Num("pruned", float64(pruned)))
	}
}
