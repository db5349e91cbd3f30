package core

import (
	"fmt"
	"log/slog"
	"strings"
	"time"

	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
	"compsynth/internal/solver"
)

// coreMetrics are the synthesis-loop instruments. A nil *coreMetrics
// (no registry configured) makes every method a no-op, so the loop
// never branches on whether observability is enabled.
type coreMetrics struct {
	sessions      *obs.Counter
	iterations    *obs.Counter
	queries       *obs.Counter
	edges         *obs.Counter
	rejected      *obs.Counter
	rebuilds      *obs.Counter
	converged     *obs.Counter
	iterSeconds   *obs.Histogram
	oracleSeconds *obs.Histogram
}

func newCoreMetrics(reg *obs.Registry) *coreMetrics {
	if reg == nil {
		return nil
	}
	return &coreMetrics{
		sessions:      reg.Counter("compsynth_core_sessions_total", "Synthesis sessions started."),
		iterations:    reg.Counter("compsynth_core_iterations_total", "Interaction rounds completed."),
		queries:       reg.Counter("compsynth_core_queries_total", "Oracle comparisons issued (initial ranking + loop)."),
		edges:         reg.Counter("compsynth_core_edges_total", "Preference edges recorded."),
		rejected:      reg.Counter("compsynth_core_rejected_total", "Answers dropped or repaired away as contradictions."),
		rebuilds:      reg.Counter("compsynth_core_system_rebuilds_total", "Full constraint-system recompiles (cycle repair, preload)."),
		converged:     reg.Counter("compsynth_core_converged_total", "Sessions that ended converged (vs hitting the iteration cap)."),
		iterSeconds:   reg.Histogram("compsynth_core_iteration_seconds", "Wall time per interaction round.", obs.SecondsBuckets()),
		oracleSeconds: reg.Histogram("compsynth_core_oracle_seconds", "Wall time per oracle comparison.", obs.SecondsBuckets()),
	}
}

func (m *coreMetrics) sessionStart() {
	if m == nil {
		return
	}
	m.sessions.Inc()
}

func (m *coreMetrics) observeIteration(stat IterationStat) {
	if m == nil {
		return
	}
	m.iterations.Inc()
	m.rejected.Add(int64(stat.Rejected))
	m.iterSeconds.Observe((stat.SynthTime + stat.OracleTime).Seconds())
}

func (m *coreMetrics) sessionEnd(converged bool) {
	if m == nil {
		return
	}
	if converged {
		m.converged.Inc()
	}
}

// tracer returns the configured span tracer (nil when tracing is off;
// obs.Tracer methods are nil-safe).
func (s *Synthesizer) tracer() *obs.Tracer {
	return s.cfg.Obs.Trace()
}

// log returns the configured structured logger (nil when logging is
// off; obs.Logger methods are nil-safe).
func (s *Synthesizer) log() *obs.Logger {
	return s.cfg.Obs.Log()
}

// timedOracle wraps the user's oracle so every comparison is timed and
// counted. It is installed unconditionally — Result.OracleTime and
// Result.Queries are part of the session outcome, not optional
// telemetry — and only reads the clock and bumps plain ints on the
// synthesis goroutine, so it cannot perturb determinism (the transcript
// serializes no timing fields).
type timedOracle struct {
	s *Synthesizer
}

func (t timedOracle) Compare(a, b scenario.Scenario) oracle.Preference {
	sp := t.s.tracer().Begin("oracle")
	start := time.Now()
	pref := t.s.cfg.Oracle.Compare(a, b)
	d := time.Since(start)
	t.s.oracleTime += d
	t.s.queries++
	if m := t.s.om; m != nil {
		m.queries.Inc()
		m.oracleSeconds.Observe(d.Seconds())
	}
	sp.End()
	if l := t.s.log(); l.Enabled(slog.LevelDebug) {
		l.Event(slog.LevelDebug, "core.oracle",
			obs.Num("pref", float64(pref)),
			obs.Num("dur_ms", d.Seconds()*1e3))
	}
	return pref
}

// askBatch sends one planned round to the oracle's batch view, with
// the same timing/counting the per-query timedOracle does: the round's
// wall time lands on oracleTime once and every query in it is counted.
func (s *Synthesizer) askBatch(wits []*solver.Distinguishing) []oracle.Judgment {
	qs := make([]oracle.Query, len(wits))
	for i, w := range wits {
		qs[i] = oracle.Query{A: w.X1, B: w.X2}
	}
	sp := s.tracer().Begin("oracle")
	start := time.Now()
	judgments := s.batch.AnswerBatch(qs)
	d := time.Since(start)
	s.oracleTime += d
	s.queries += len(qs)
	if m := s.om; m != nil {
		for range qs {
			m.queries.Inc()
		}
		m.oracleSeconds.Observe(d.Seconds())
	}
	sp.End()
	if l := s.log(); l.Enabled(slog.LevelDebug) {
		l.Event(slog.LevelDebug, "core.oracle.batch",
			obs.Num("queries", float64(len(qs))),
			obs.Num("dur_ms", d.Seconds()*1e3))
	}
	return judgments
}

// EffortReport renders the session's effort accounting as a short
// human-readable block — the `-v` view of what /metrics exposes live.
func (r *Result) EffortReport() string {
	var b strings.Builder
	edges := 0
	if r.Graph != nil {
		edges = r.Graph.NumEdges()
	}
	scenarios := 0
	if r.Store != nil {
		scenarios = r.Store.Len()
	}
	fmt.Fprintf(&b, "effort: iterations=%d queries=%d edges=%d scenarios=%d converged=%v\n",
		r.Iterations, r.Queries, edges, scenarios, r.Converged)
	fmt.Fprintf(&b, "time:   init=%v synth=%v oracle=%v\n",
		r.InitTime.Round(time.Microsecond),
		r.TotalSynthTime.Round(time.Microsecond),
		r.OracleTime.Round(time.Microsecond))
	if r.SolverEffort != nil {
		fmt.Fprintf(&b, "solver: %s\n", r.SolverEffort)
	}
	return b.String()
}
