// Package core implements comparative synthesis — the paper's primary
// contribution. A Synthesizer learns an objective function matching a
// user's intent through iterative preference queries:
//
//  1. It shows the user a handful of random scenarios and records the
//     returned ranking in a preference graph G (§4.2).
//  2. Each iteration it asks the constraint solver for two candidate
//     objective functions consistent with G that disagree on a fresh
//     pair of scenarios, and asks the user to order that pair.
//  3. When no consistent candidates disagree anymore (the solver's
//     "unsatisfiable" verdict), the objective function is behaviorally
//     pinned down and a representative candidate is returned.
//
// The synthesizer supports the paper's extensions: several pairs ranked
// per iteration (Fig. 4), a configurable number of initial scenarios
// (Fig. 5), partial ranks (§4.2: an indifferent answer records
// nothing), and robustness to inconsistent answers (§6.1).
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sort"
	"time"

	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/planner"
	"compsynth/internal/prefgraph"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// NoisePolicy selects how the synthesizer handles an answer that
// contradicts the preference graph.
type NoisePolicy int

// Noise policies.
const (
	// NoiseReject drops contradicting answers on the floor (the safe
	// default for trusted oracles, where contradictions indicate ties
	// broken differently across queries).
	NoiseReject NoisePolicy = iota
	// NoiseRepair force-inserts the answer and breaks the resulting
	// cycles by dropping the oldest conflicting edges — suitable for
	// noisy users whose later answers are at least as trustworthy as
	// earlier ones.
	NoiseRepair
)

func (p NoisePolicy) String() string {
	switch p {
	case NoiseReject:
		return "reject"
	case NoiseRepair:
		return "repair"
	}
	return fmt.Sprintf("NoisePolicy(%d)", int(p))
}

// Config parameterizes a synthesis session. Sketch and Oracle are
// required; zero values elsewhere select the paper's defaults.
type Config struct {
	Sketch *sketch.Sketch
	Oracle oracle.Oracle

	// InitialScenarios is the number of random scenarios ranked before
	// the first iteration (paper default 5; Fig. 5 varies 0–10).
	InitialScenarios int
	// PairsPerIteration is the number of scenario pairs the user ranks
	// per iteration (paper default 1; Fig. 4 varies 1–5).
	PairsPerIteration int
	// MaxIterations caps the interaction loop (safety net; the paper's
	// runs converge around 30).
	MaxIterations int
	// OnIteration, when set, is called after every completed iteration
	// with its statistics — a progress hook for interactive frontends.
	// It runs synchronously on the synthesis goroutine.
	OnIteration func(IterationStat)
	// Noise selects the inconsistent-answer policy.
	Noise NoisePolicy

	// Obs optionally attaches observability: a metrics registry (solver
	// and loop counters become scrapeable) and/or a span tracer
	// recording per-iteration events. Nil, or an Observer with
	// nil fields, costs nothing on the synthesis path and never touches
	// the session's randomness — transcripts are bit-identical with and
	// without it.
	Obs *obs.Observer

	// Progress optionally attaches a live introspection sink: the solver
	// updates its gauges once per prune wave (atomics only, off the
	// per-box hot path) so a server can report search depth and frontier
	// size for an in-flight solve. Like Obs, it never touches the
	// session's randomness; transcripts are bit-identical with and
	// without it (TestGoldenTranscriptLogProgressInvariance).
	Progress *solver.Progress

	// Solver and Distinguish tune the constraint-solving backend; zero
	// values select solver.DefaultOptions / DefaultDistinguishOptions.
	Solver      solver.Options
	Distinguish solver.DistinguishOptions

	// DisablePlanner turns off the active query planner and falls back
	// to the solver's first-found/max-gap distinguishing search — the
	// seed behavior, pinned bit-identical by TestGoldenTranscriptPlannerOff.
	// The planner intentionally changes which queries are asked (that
	// is its job: fewer, more informative ones), so the zero value
	// (enabled) changes transcripts relative to older versions; this
	// kill switch preserves the old behavior exactly.
	DisablePlanner bool
	// Planner tunes the active query planner (zero = defaults). Ignored
	// when DisablePlanner is set.
	Planner planner.Config

	// Seed drives all randomness in the session (scenario generation
	// and solver search). Sessions with equal configs and seeds are
	// reproducible.
	Seed int64
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.InitialScenarios == 0 {
		c.InitialScenarios = 5
	}
	if c.InitialScenarios < 0 { // explicit "no initial scenarios"
		c.InitialScenarios = 0
	}
	if c.PairsPerIteration <= 0 {
		c.PairsPerIteration = 1
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 300
	}
	if c.Solver.Samples == 0 && c.Solver.RepairRestarts == 0 {
		stats := c.Solver.Stats
		c.Solver = solver.DefaultOptions()
		c.Solver.Stats = stats
	}
	if c.Distinguish == (solver.DistinguishOptions{}) {
		c.Distinguish = solver.DefaultDistinguishOptions()
	}
	return c
}

// IterationStat records one interaction round.
type IterationStat struct {
	// Index is the 1-based iteration number.
	Index int
	// SynthTime is the time spent in the solver this iteration (oracle
	// time is excluded, as in the paper's methodology).
	SynthTime time.Duration
	// Queries is the number of oracle comparisons issued.
	Queries int
	// NewEdges is the number of preference edges added.
	NewEdges int
	// Rejected is the number of answers dropped or repaired away due to
	// contradictions.
	Rejected int
	// OracleTime is the wall time spent waiting on the oracle this
	// iteration (excluded from SynthTime, as in the paper).
	OracleTime time.Duration
	// Status is the distinguishing-query verdict.
	Status solver.Status
}

// Result is the outcome of a synthesis session.
type Result struct {
	// Final is the synthesized objective function (a representative of
	// the remaining version space).
	Final *sketch.Candidate
	// Converged reports whether the session ended with the solver
	// unable to find disagreeing candidates (as opposed to hitting
	// MaxIterations).
	Converged bool
	// Iterations is the number of interaction rounds performed.
	Iterations int
	// Stats has one entry per iteration.
	Stats []IterationStat
	// InitTime is the time spent preparing the initial preference graph.
	InitTime time.Duration
	// TotalSynthTime is the summed solver time (init + iterations).
	TotalSynthTime time.Duration
	// OracleTime is the summed wall time spent inside Oracle.Compare
	// across the whole session (initial ranking included). The paper's
	// methodology reports synthesis time net of the user; this is the
	// other side of that ledger.
	OracleTime time.Duration
	// Queries is the total number of oracle comparisons issued
	// (initial ranking + query loop).
	Queries int
	// SolverEffort snapshots the solver's cumulative search counters at
	// session end. Nil unless Config.Solver.Stats was set (attaching an
	// Observer with a registry sets it automatically).
	SolverEffort *solver.StatsSnapshot
	// Graph is the final preference graph; Store resolves its vertex
	// IDs to scenarios.
	Graph *prefgraph.Graph
	// Store is the scenario store backing Graph.
	Store *scenario.Store
}

// Oracle returns the synthesized objective as an oracle, for agreement
// testing against the ground truth.
func (r *Result) Oracle() oracle.Oracle {
	return oracle.NewGroundTruth(r.Final, 0)
}

// ErrNoCandidate is returned when no objective function consistent with
// the recorded preferences exists (over-constrained graph, e.g. from
// unrepaired noise).
var ErrNoCandidate = errors.New("core: no candidate consistent with preference graph")

// Synthesizer runs comparative synthesis sessions.
type Synthesizer struct {
	cfg   Config
	rng   *rand.Rand
	graph *prefgraph.Graph
	store *scenario.Store
	// sys is the compiled constraint system, built incrementally as
	// preference edges are recorded: each new edge is one appended
	// constraint instead of a re-derivation of the whole problem every
	// iteration. sysEdges parallels its constraint order
	// and always matches prefgraph.Edges() — the order the reference
	// problem() materialization would produce — which keeps
	// transcripts bit-identical to the uncompiled path.
	sys      *solver.System
	sysEdges []prefgraph.Edge
	// search is the context-first view over sys; every solver query the
	// loop issues goes through it so RunContext's ctx reaches down to
	// individual samples, repair restarts, and prune waves.
	search solver.Search
	// hints are warm-start hole vectors carried between iterations:
	// witnesses found in earlier rounds anchor the solver in the
	// remaining version space, which shrinks as constraints accumulate.
	hints [][]float64
	// preloaded marks a session resumed from a Transcript; the initial
	// ranking is skipped because the transcript already contains it.
	preloaded bool
	// user wraps cfg.Oracle with timing/counting (see timedOracle); all
	// comparisons go through it.
	user oracle.Oracle
	// batch is the batch view of cfg.Oracle (native when the oracle
	// implements oracle.BatchOracle, an adapter otherwise); the planner
	// path asks whole rounds through it.
	batch oracle.BatchOracle
	// planner is the active query planner (nil when DisablePlanner).
	planner *planner.Planner
	// om holds the loop metrics (nil when no registry is attached).
	om *coreMetrics
	// oracleTime and queries accumulate across the session; finish
	// publishes them on the Result.
	oracleTime time.Duration
	queries    int
}

// maxHints caps the warm-start pool.
const maxHints = 16

// convergenceChecks is how many consecutive unsat verdicts declare
// convergence: the distinguishing search is randomized, so a single
// verdict can be premature.
const convergenceChecks = 2

func (s *Synthesizer) addHints(hs ...[]float64) {
	for _, h := range hs {
		if h == nil {
			continue
		}
		s.hints = append(s.hints, append([]float64(nil), h...))
	}
	if len(s.hints) > maxHints {
		s.hints = s.hints[len(s.hints)-maxHints:]
	}
}

// solverOpts returns the configured solver options with current hints.
func (s *Synthesizer) solverOpts(escalation int) solver.Options {
	opts := s.cfg.Solver
	if escalation > 0 {
		opts.Samples *= 4 * escalation
		opts.RepairRestarts *= 3 * escalation
		opts.RepairSteps *= 2
		opts.MaxBoxes *= 2 * escalation
	}
	opts.Hints = s.hints
	return opts
}

// New validates the config and creates a synthesizer.
func New(cfg Config) (*Synthesizer, error) {
	if cfg.Sketch == nil {
		return nil, errors.New("core: Config.Sketch is required")
	}
	if cfg.Oracle == nil {
		return nil, errors.New("core: Config.Oracle is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Obs.Reg() != nil && cfg.Solver.Stats == nil {
		// A registry without Stats would scrape zeros for the solver
		// counters; attach the storage the read-through views need.
		cfg.Solver.Stats = &solver.Stats{}
	}
	// Scenario dedup tolerance: a millionth of the metric ranges.
	tol := 0.0
	for _, r := range cfg.Sketch.Space().Ranges() {
		if w := r.Width() * 1e-9; w > tol {
			tol = w
		}
	}
	s := &Synthesizer{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		graph: prefgraph.New(),
		store: scenario.NewStore(cfg.Sketch.Space(), tol),
		sys:   solver.NewSystem(cfg.Sketch, 0, cfg.Solver.Stats),
	}
	s.search = solver.NewSearch(s.sys)
	s.user = timedOracle{s}
	s.batch = oracle.AsBatch(cfg.Oracle)
	if !cfg.DisablePlanner {
		s.planner = planner.New(cfg.Planner)
	}
	if reg := cfg.Obs.Reg(); reg != nil {
		s.om = newCoreMetrics(reg)
		s.sys.SetMetrics(solver.NewMetrics(reg, cfg.Solver.Stats))
	}
	s.sys.SetProgress(cfg.Progress)
	s.sys.SetLogger(cfg.Obs.Log())
	return s, nil
}

// Run executes the synthesis session to convergence (or the iteration
// cap) and returns the result.
func (s *Synthesizer) Run() (*Result, error) {
	return s.RunContext(context.Background())
}

// RunContext is Run with cancellation: the session stops at the next
// iteration boundary when ctx is done and returns ctx's error. Long
// interactive sessions (and servers embedding the synthesizer) should
// prefer it.
func (s *Synthesizer) RunContext(ctx context.Context) (*Result, error) {
	res := &Result{Graph: s.graph, Store: s.store}
	s.om.sessionStart()
	tr := s.tracer()
	s.log().Info("core.session.start",
		"seed", s.cfg.Seed,
		"initial_scenarios", s.cfg.InitialScenarios,
		"pairs_per_iteration", s.cfg.PairsPerIteration,
		"max_iterations", s.cfg.MaxIterations)

	spInit := tr.Begin("init")
	initStart := time.Now()
	if err := s.initGraph(res); err != nil {
		spInit.End()
		s.log().Error("core.session.fail", "phase", "init", "error", err.Error())
		return nil, err
	}
	res.InitTime = time.Since(initStart)
	if spInit.Active() {
		spInit.End(
			obs.Num("edges", float64(s.graph.NumEdges())),
			obs.Num("queries", float64(s.queries)))
	}
	s.log().Debug("core.init",
		"edges", s.graph.NumEdges(),
		"queries", s.queries,
		"dur_ms", res.InitTime.Seconds()*1e3)
	res.TotalSynthTime += res.InitTime

	unsatStreak := 0
	for iter := 1; iter <= s.cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: session canceled after %d iterations: %w", iter-1, err)
		}
		stat := IterationStat{Index: iter}
		spIter := tr.Begin("iteration")

		solveStart := time.Now()
		spSolve := tr.Begin("solve")
		wits, status, err := s.findQueries(ctx, 0)
		if spSolve.Active() {
			spSolve.End(obs.Num("escalation", 0), obs.Num("status", float64(status)))
		}
		if err != nil {
			spIter.End()
			return nil, fmt.Errorf("core: session canceled after %d iterations: %w", iter-1, err)
		}
		if status == solver.StatusUnknown {
			// No consistent candidate found at the base budget. Escalate
			// once: the version space may just be small.
			spSolve = tr.Begin("solve")
			wits, status, err = s.findQueries(ctx, 2)
			if spSolve.Active() {
				spSolve.End(obs.Num("escalation", 2), obs.Num("status", float64(status)))
			}
			if err != nil {
				spIter.End()
				return nil, fmt.Errorf("core: session canceled after %d iterations: %w", iter-1, err)
			}
		}
		if status == solver.StatusUnknown {
			// Still nothing: the preference constraints are numerically
			// infeasible for this sketch (inconsistent answers that did
			// not form a graph cycle). Relax per the noise policy.
			spRelax := tr.Begin("relax")
			dropped, relaxErr := s.relax(ctx)
			if spRelax.Active() {
				spRelax.End(obs.Num("dropped", float64(dropped)))
			}
			s.log().Warn("core.relax",
				"iteration", iter, "dropped", dropped,
				"error", errString(relaxErr))
			if relaxErr != nil {
				spIter.End()
				return nil, fmt.Errorf("%w (after %d iterations)", relaxErr, iter-1)
			}
			stat.Rejected += dropped
			stat.SynthTime = time.Since(solveStart)
			stat.Status = status
			res.TotalSynthTime += stat.SynthTime
			s.endIteration(res, stat, spIter)
			continue
		}
		stat.SynthTime = time.Since(solveStart)
		stat.Status = status
		res.TotalSynthTime += stat.SynthTime

		switch status {
		case solver.StatusUnsat:
			unsatStreak++
			s.endIteration(res, stat, spIter)
			if unsatStreak >= convergenceChecks {
				res.Converged = true
				return s.finish(ctx, res)
			}
			continue
		}
		unsatStreak = 0

		for _, w := range wits {
			s.addHints(w.A, w.B)
		}
		oracleBefore := s.oracleTime
		if s.planner != nil {
			// Planned rounds go to the oracle as one batch and come back
			// as graded judgments recorded with weighted-edge semantics.
			judgments := s.askBatch(wits)
			stat.Queries += len(wits)
			for i, w := range wits {
				added, rejected, err := s.recordJudgment(w.X1, w.X2, judgments[i])
				if err != nil {
					spIter.End()
					return nil, err
				}
				stat.NewEdges += added
				stat.Rejected += rejected
			}
		} else {
			for _, w := range wits {
				pref := s.user.Compare(w.X1, w.X2)
				stat.Queries++
				added, rejected, err := s.record(w.X1, w.X2, pref)
				if err != nil {
					spIter.End()
					return nil, err
				}
				stat.NewEdges += added
				stat.Rejected += rejected
			}
		}
		stat.OracleTime = s.oracleTime - oracleBefore
		s.endIteration(res, stat, spIter)
	}
	return s.finish(ctx, res)
}

// findQueries produces the iteration's query round: the active planner
// when enabled (information-gain-ranked, non-redundant pairs), the
// solver's plain distinguishing search otherwise. The verdict contract
// is identical either way.
func (s *Synthesizer) findQueries(ctx context.Context, escalation int) ([]*solver.Distinguishing, solver.Status, error) {
	if s.planner == nil {
		return s.search.FindDistinguishingMany(
			ctx, s.cfg.PairsPerIteration, s.solverOpts(escalation), s.cfg.Distinguish, s.rng)
	}
	return s.planner.Plan(
		ctx, s.search, s.cfg.PairsPerIteration, s.solverOpts(escalation), s.cfg.Distinguish, s.known, s.rng)
}

// known reports whether the ordering of a scenario pair is already
// implied by the preference graph's transitive closure — the planner's
// zero-gain filter.
func (s *Synthesizer) known(x1, x2 scenario.Scenario) bool {
	id1, ok := s.store.Find(x1)
	if !ok {
		return false
	}
	id2, ok := s.store.Find(x2)
	if !ok {
		return false
	}
	return id1 == id2 || s.graph.Comparable(id1, id2)
}

// endIteration publishes one completed round: loop metrics, the
// "iteration" span, the per-iteration stats entry, and the progress
// hook. Every iteration exit path funnels through here.
func (s *Synthesizer) endIteration(res *Result, stat IterationStat, sp obs.Span) {
	s.om.observeIteration(stat)
	if sp.Active() {
		sp.End(
			obs.Num("index", float64(stat.Index)),
			obs.Num("queries", float64(stat.Queries)),
			obs.Num("new_edges", float64(stat.NewEdges)),
			obs.Num("rejected", float64(stat.Rejected)),
			obs.Num("status", float64(stat.Status)))
	}
	res.Stats = append(res.Stats, stat)
	if s.cfg.OnIteration != nil {
		s.cfg.OnIteration(stat)
	}
	res.Iterations = stat.Index
	if l := s.log(); l.Enabled(slog.LevelDebug) {
		l.Event(slog.LevelDebug, "core.iteration",
			obs.Num("index", float64(stat.Index)),
			obs.Num("queries", float64(stat.Queries)),
			obs.Num("new_edges", float64(stat.NewEdges)),
			obs.Num("rejected", float64(stat.Rejected)),
			obs.Num("status", float64(stat.Status)),
			obs.Num("synth_ms", stat.SynthTime.Seconds()*1e3),
			obs.Num("oracle_ms", stat.OracleTime.Seconds()*1e3))
	}
}

// errString renders an error for a log attribute; nil becomes "".
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// initGraph seeds the preference graph with a ranking of random
// scenarios (paper: "the synthesizer generates a set of randomly
// generated scenarios and asks the user to indicate her preferences").
func (s *Synthesizer) initGraph(res *Result) error {
	if s.preloaded {
		return nil // transcript already supplied the early answers
	}
	n := s.cfg.InitialScenarios
	if n < 2 {
		return nil // nothing rankable
	}
	scs := s.cfg.Sketch.Space().RandomN(s.rng, n)
	groups := oracle.Rank(s.user, scs)
	// Edges between members of consecutive groups carry the full
	// ranking (transitivity supplies the rest).
	for gi := 0; gi+1 < len(groups); gi++ {
		for _, hi := range groups[gi] {
			for _, lo := range groups[gi+1] {
				_, _, err := s.record(scs[hi], scs[lo], oracle.PrefersFirst)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// record stores the user's answer for the (a, b) pair, returning the
// number of edges added and of answers rejected/repaired.
func (s *Synthesizer) record(a, b scenario.Scenario, pref oracle.Preference) (added, rejected int, err error) {
	if pref == oracle.Indifferent {
		return 0, 0, nil // partial ranks are fine (§4.2)
	}
	better, worse := a, b
	if pref == oracle.PrefersSecond {
		better, worse = b, a
	}
	bid, err := s.store.Add(better)
	if err != nil {
		return 0, 0, err
	}
	wid, err := s.store.Add(worse)
	if err != nil {
		return 0, 0, err
	}
	if bid == wid {
		return 0, 0, nil // deduplicated to the same vertex
	}
	addErr := s.graph.Add(bid, wid)
	if addErr == nil {
		s.insertEdge(prefgraph.Edge{Better: bid, Worse: wid})
		return 1, 0, nil
	}
	var cyc prefgraph.ErrCycle
	if !errors.As(addErr, &cyc) {
		return 0, 0, addErr
	}
	switch s.cfg.Noise {
	case NoiseReject:
		return 0, 1, nil
	case NoiseRepair:
		s.graph.ForceAdd(bid, wid)
		// Prefer keeping the newest edge: older edges get lower weight.
		newest := prefgraph.Edge{Better: bid, Worse: wid}
		removed := s.graph.BreakCycles(func(e prefgraph.Edge) float64 {
			if e == newest {
				return 1
			}
			return 0
		})
		s.rebuildSystem()
		return 1, len(removed), nil
	}
	return 0, 0, fmt.Errorf("core: unknown noise policy %v", s.cfg.Noise)
}

// recordJudgment stores a graded batch answer with weighted-edge
// semantics: the judgment's weight accrues on the pair's accumulated
// support (prefgraph.Observe), and a contradiction only repairs the
// graph once the accumulated support outweighs the installed opposing
// edges — a single noisy answer can never rewrite history the way an
// immediate NoiseRepair would. Pending (out-weighed) observations count
// as rejected in the iteration stats. Zero-noise sessions never hit the
// contradiction path, so their graphs match the unweighted record()
// exactly.
func (s *Synthesizer) recordJudgment(a, b scenario.Scenario, j oracle.Judgment) (added, rejected int, err error) {
	if j.Pref == oracle.Indifferent {
		return 0, 0, nil // partial ranks are fine (§4.2)
	}
	better, worse := a, b
	if j.Pref == oracle.PrefersSecond {
		better, worse = b, a
	}
	bid, err := s.store.Add(better)
	if err != nil {
		return 0, 0, err
	}
	wid, err := s.store.Add(worse)
	if err != nil {
		return 0, 0, err
	}
	if bid == wid {
		return 0, 0, nil // deduplicated to the same vertex
	}
	res, err := s.graph.Observe(bid, wid, j.Weight())
	if err != nil {
		return 0, 0, err
	}
	switch {
	case res.Added && len(res.Removed) > 0:
		s.rebuildSystem()
		return 1, len(res.Removed), nil
	case res.Added:
		s.insertEdge(prefgraph.Edge{Better: bid, Worse: wid})
		return 1, 0, nil
	case res.Pending:
		return 0, 1, nil
	}
	return 0, 0, nil // repeated answer; support reinforced
}

// insertEdge mirrors a newly added graph edge into the compiled system.
// sysEdges is kept in prefgraph.Edges() order (sorted by Better, then
// Worse): constraint order is observable through the violation sum and
// the satisfaction mask, so the incremental system must present edges
// exactly as a fresh problem() materialization would.
func (s *Synthesizer) insertEdge(e prefgraph.Edge) {
	i := sort.Search(len(s.sysEdges), func(i int) bool {
		if s.sysEdges[i].Better != e.Better {
			return s.sysEdges[i].Better > e.Better
		}
		return s.sysEdges[i].Worse >= e.Worse
	})
	if i < len(s.sysEdges) && s.sysEdges[i] == e {
		return // repeated answer; graph.Add was a no-op
	}
	// The system uses the store's interned representatives (not the raw
	// answer scenarios): deduplication may have snapped the answer onto
	// an earlier scenario within tolerance, and problem() resolves
	// through the store too.
	sp := s.tracer().Begin("edge-insert")
	better, _ := s.store.Get(e.Better)
	worse, _ := s.store.Get(e.Worse)
	s.sysEdges = append(s.sysEdges, prefgraph.Edge{})
	copy(s.sysEdges[i+1:], s.sysEdges[i:])
	s.sysEdges[i] = e
	s.sys.InsertPref(i, solver.Pref{Better: better, Worse: worse})
	if s.om != nil {
		s.om.edges.Inc()
	}
	sp.End()
}

// rebuildSystem rebuilds the system from the graph after a bulk
// mutation (cycle repair, transcript preload), one constraint per
// edge.
func (s *Synthesizer) rebuildSystem() {
	sp := s.tracer().Begin("system-rebuild")
	s.sys.Reset()
	s.sysEdges = s.graph.Edges()
	for _, e := range s.sysEdges {
		better, _ := s.store.Get(e.Better)
		worse, _ := s.store.Get(e.Worse)
		s.sys.AddPref(solver.Pref{Better: better, Worse: worse})
	}
	if s.om != nil {
		s.om.rebuilds.Inc()
	}
	if sp.Active() {
		sp.End(obs.Num("edges", float64(len(s.sysEdges))))
	}
}

// problem materializes the current graph as solver constraints. The
// returned edges parallel the constraint order. The synthesis loop
// itself runs on the incrementally maintained sys instead; problem()
// is the uncompiled reference materialization, kept for differential
// tests asserting the two stay in lockstep.
func (s *Synthesizer) problem() (solver.Problem, []prefgraph.Edge) {
	edges := s.graph.Edges()
	prefs := make([]solver.Pref, 0, len(edges))
	for _, e := range edges {
		better, _ := s.store.Get(e.Better)
		worse, _ := s.store.Get(e.Worse)
		prefs = append(prefs, solver.Pref{Better: better, Worse: worse})
	}
	return solver.Problem{Sketch: s.cfg.Sketch, Prefs: prefs}, edges
}

// relax drops the preference edges violated by the best point the
// solver can reach, restoring numeric feasibility after inconsistent
// answers. The satisfaction mask is parallel to the system's constraint
// order, which sysEdges mirrors, so mask index i names edge sysEdges[i];
// removal runs highest-index-first to keep the remaining indices valid.
func (s *Synthesizer) relax(ctx context.Context) (int, error) {
	if len(s.sysEdges) == 0 {
		return 0, ErrNoCandidate
	}
	best, loss, satisfied, err := s.search.BestEffort(ctx, s.solverOpts(2), s.rng)
	if err != nil {
		return 0, err
	}
	dropped := 0
	for i := len(satisfied) - 1; i >= 0; i-- {
		if !satisfied[i] {
			e := s.sysEdges[i]
			if s.graph.Remove(e.Better, e.Worse) {
				dropped++
				s.sys.RemovePref(i)
				s.sysEdges = append(s.sysEdges[:i], s.sysEdges[i+1:]...)
			}
		}
	}
	if dropped == 0 {
		if loss == 0 {
			// Every constraint is satisfiable — the sampling search just
			// missed the (by now tiny) consistent region that the repair
			// walk reached. Nothing to relax: seed the feasible point as
			// a hint so the next search starts inside the region, and
			// report recovery. The loop cannot spin on this path: with
			// the hint in place the next search finds at least one
			// candidate, so it returns Sat (progress: new edges) or
			// Unsat (convergence), never Unknown again.
			s.addHints(best)
			return 0, nil
		}
		// Nothing identifiably wrong yet no candidate: give up rather
		// than loop forever.
		return 0, ErrNoCandidate
	}
	if loss == 0 {
		s.addHints(best)
	}
	return dropped, nil
}

// finish extracts the final representative candidate and seals the
// session's effort accounting onto the Result.
func (s *Synthesizer) finish(ctx context.Context, res *Result) (*Result, error) {
	sp := s.tracer().Begin("finish")
	start := time.Now()
	holes, status, err := s.search.FindCandidate(ctx, s.solverOpts(0), s.rng)
	if err == nil && status != solver.StatusSat {
		holes, status, err = s.search.FindCandidate(ctx, s.solverOpts(2), s.rng)
	}
	res.TotalSynthTime += time.Since(start)
	res.OracleTime = s.oracleTime
	res.Queries = s.queries
	if s.cfg.Solver.Stats != nil {
		snap := s.cfg.Solver.Stats.Snapshot()
		res.SolverEffort = &snap
	}
	s.om.sessionEnd(res.Converged)
	if sp.Active() {
		sp.End(obs.Num("status", float64(status)))
	}
	if err != nil {
		s.log().Error("core.session.fail", "phase", "finish", "error", err.Error())
		return nil, fmt.Errorf("core: session canceled during final extraction: %w", err)
	}
	if status != solver.StatusSat {
		s.log().Error("core.session.fail", "phase", "finish", "status", status.String())
		return nil, fmt.Errorf("%w (final extraction: %v)", ErrNoCandidate, status)
	}
	cand, err := s.cfg.Sketch.Candidate(holes)
	if err != nil {
		s.log().Error("core.session.fail", "phase", "finish", "error", err.Error())
		return nil, fmt.Errorf("core: final candidate invalid: %w", err)
	}
	res.Final = cand
	s.log().Info("core.session.finish",
		"converged", res.Converged,
		"iterations", res.Iterations,
		"queries", res.Queries,
		"edges", s.graph.NumEdges(),
		"synth_ms", res.TotalSynthTime.Seconds()*1e3,
		"oracle_ms", res.OracleTime.Seconds()*1e3)
	return res, nil
}

// Validate measures ranking agreement between a synthesis result and a
// reference oracle over n random scenario pairs — the formalization of
// the paper's "we successfully synthesized all different correct
// objective functions" (DESIGN.md §5).
func Validate(res *Result, reference oracle.Oracle, n int, rng *rand.Rand) float64 {
	pairs := oracle.RandomPairs(res.Final.Sketch().Space(), n, rng)
	frac, _ := oracle.Agreement(res.Oracle(), reference, pairs)
	return frac
}
