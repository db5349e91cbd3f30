// Package experiments regenerates every table and figure of the
// paper's evaluation (§4.3) plus the ablations called out in DESIGN.md:
//
//   - Table 1: iterations, synthesis time per iteration, and total
//     synthesis time (average / median / SIQR over repeated runs).
//   - Figure 3: per-variant iteration counts and per-iteration times
//     when each hole of the target function is tuned separately.
//   - Figure 4: the effect of ranking several scenario pairs per
//     iteration (1–5).
//   - Figure 5: the effect of the number of initial random scenarios
//     (0, 2, 5, 7, 10).
//
// Absolute times depend on hardware and on the constraint solver (this
// repository substitutes a native Go solver for Z3; see DESIGN.md §3);
// the reproduced quantity is the shape of each trend.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
	"compsynth/internal/stats"
)

// RunConfig parameterizes one synthesis run of the SWAN case study.
type RunConfig struct {
	// Target is the hidden ground truth the oracle answers from.
	Target sketch.SWANTargetParams
	// InitialScenarios and PairsPerIteration mirror core.Config
	// (zero = paper defaults of 5 and 1). Use -1 for "no initial
	// scenarios" (Figure 5's zero point).
	InitialScenarios  int
	PairsPerIteration int
	// Seed drives all randomness.
	Seed int64
	// Fast trades fidelity for speed (reduced solver budgets); used by
	// the benchmark harness. Trends survive, absolute values shift.
	Fast bool
	// DisablePlanner forces the seed's first-distinguishing-pair query
	// selection for this run regardless of the campaign default
	// (SetPlannerOff) — the effort gate compares both arms in one
	// process.
	DisablePlanner bool
}

// RunResult summarizes one synthesis run.
type RunResult struct {
	Iterations      int
	Converged       bool
	TotalSynthSec   float64
	SecPerIteration float64 // mean solver time per iteration
	Queries         int     // oracle comparisons issued
	OracleSec       float64 // wall time spent inside the oracle
	Agreement       float64 // ranking agreement with the ground truth
	Final           *sketch.Candidate
	// Solver is the run's solver search effort (fresh counters per run).
	Solver solver.StatsSnapshot
}

// RunOnce executes a single synthesis run against an oracle playing
// the given target function.
func RunOnce(cfg RunConfig) (RunResult, error) {
	sk := sketch.SWAN()
	if cfg.Target == (sketch.SWANTargetParams{}) {
		cfg.Target = sketch.DefaultSWANTarget
	}
	target, err := cfg.Target.Candidate(sk)
	if err != nil {
		return RunResult{}, err
	}
	counting := &oracle.Counting{Inner: oracle.NewGroundTruth(target, 1e-9)}
	ccfg := core.Config{
		Sketch:            sk,
		Oracle:            counting,
		InitialScenarios:  cfg.InitialScenarios,
		PairsPerIteration: cfg.PairsPerIteration,
		Seed:              cfg.Seed,
		Obs:               observer.Load(),
		DisablePlanner:    cfg.DisablePlanner || PlannerOff(),
	}
	// Fresh per-run counters so RunResult.Solver is this run's effort,
	// not the campaign's cumulative total.
	ccfg.Solver.Stats = &solver.Stats{}
	if cfg.Fast {
		ccfg.Solver.Samples = 150
		ccfg.Solver.RepairRestarts = 5
		ccfg.Solver.RepairSteps = 60
		ccfg.Solver.MinBoxWidth = 1.0 / 64
		ccfg.Solver.MaxBoxes = 10000
		ccfg.Distinguish.Candidates = 6
		ccfg.Distinguish.PairSamples = 250
		ccfg.Distinguish.Gamma = 2
	}
	synth, err := core.New(ccfg)
	if err != nil {
		return RunResult{}, err
	}
	res, err := synth.Run()
	if err != nil {
		return RunResult{}, err
	}
	out := RunResult{
		Iterations:    res.Iterations,
		Converged:     res.Converged,
		TotalSynthSec: res.TotalSynthTime.Seconds(),
		Queries:       counting.Queries,
		OracleSec:     res.OracleTime.Seconds(),
		Final:         res.Final,
	}
	if res.SolverEffort != nil {
		out.Solver = *res.SolverEffort
	}
	if res.Iterations > 0 {
		var iterSec float64
		for _, st := range res.Stats {
			iterSec += st.SynthTime.Seconds()
		}
		out.SecPerIteration = iterSec / float64(res.Iterations)
	}
	out.Agreement = core.Validate(res,
		oracle.NewGroundTruth(target, 1e-9), 2000, rand.New(rand.NewSource(cfg.Seed+7919)))
	return out, nil
}

// repeat runs the config with seeds base+1..base+n.
func repeat(cfg RunConfig, n int, baseSeed int64) ([]RunResult, error) {
	out := make([]RunResult, 0, n)
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = baseSeed + int64(i) + 1
		r, err := RunOnce(c)
		if err != nil {
			return nil, fmt.Errorf("experiments: run %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Metric                string
	Average, Median, SIQR float64
}

// RunTable1 reproduces Table 1: the default configuration repeated
// `runs` times (the paper uses 9).
func RunTable1(runs int, baseSeed int64, fast bool) ([]Table1Row, []RunResult, error) {
	results, err := repeat(RunConfig{Fast: fast}, runs, baseSeed)
	if err != nil {
		return nil, nil, err
	}
	iters := make([]float64, len(results))
	perIter := make([]float64, len(results))
	totals := make([]float64, len(results))
	for i, r := range results {
		iters[i] = float64(r.Iterations)
		perIter[i] = r.SecPerIteration
		totals[i] = r.TotalSynthSec
	}
	rows := []Table1Row{
		row("# Iterations", iters),
		row("Synthesis Time per Iteration (s)", perIter),
		row("Total Synthesis Time (s)", totals),
	}
	return rows, results, nil
}

func row(metric string, xs []float64) Table1Row {
	return Table1Row{
		Metric:  metric,
		Average: stats.Mean(xs),
		Median:  stats.Median(xs),
		SIQR:    stats.SIQR(xs),
	}
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-36s %10s %10s %10s\n", "Metrics", "Average", "Median", "SIQR")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-36s %10.4g %10.4g %10.4g\n", r.Metric, r.Average, r.Median, r.SIQR)
	}
	return b.String()
}

// VariantPoint is one target-function variant of Figure 3.
type VariantPoint struct {
	Label             string
	Target            sketch.SWANTargetParams
	AvgIterations     float64
	AvgSecPerIter     float64
	AvgAgreement      float64
	ConvergedFraction float64
}

// Figure3Variants enumerates the paper's tuned targets: each hole takes
// 5 values while the others stay at the Figure 2b baseline. l_thrsh
// ranges 20–80, the rest 1–5.
func Figure3Variants() []VariantPoint {
	base := sketch.DefaultSWANTarget
	var out []VariantPoint
	out = append(out, VariantPoint{Label: "baseline", Target: base})
	for _, v := range []float64{1, 2, 3, 4, 5} {
		t := base
		t.TpThrsh = v
		out = append(out, VariantPoint{Label: fmt.Sprintf("tp_thrsh=%g", v), Target: t})
	}
	for _, v := range []float64{20, 35, 50, 65, 80} {
		t := base
		t.LThrsh = v
		out = append(out, VariantPoint{Label: fmt.Sprintf("l_thrsh=%g", v), Target: t})
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		t := base
		t.Slope1 = v
		out = append(out, VariantPoint{Label: fmt.Sprintf("slope1=%g", v), Target: t})
	}
	for _, v := range []float64{1, 2, 3, 4, 5} {
		t := base
		t.Slope2 = v
		out = append(out, VariantPoint{Label: fmt.Sprintf("slope2=%g", v), Target: t})
	}
	return out
}

// RunFigure3 reproduces Figure 3: synthesis of every variant target,
// reporting average iterations and per-iteration time.
func RunFigure3(runsPerVariant int, baseSeed int64, fast bool) ([]VariantPoint, error) {
	variants := Figure3Variants()
	for vi := range variants {
		results, err := repeat(RunConfig{Target: variants[vi].Target, Fast: fast},
			runsPerVariant, baseSeed+int64(vi)*1000)
		if err != nil {
			return nil, fmt.Errorf("experiments: variant %s: %w", variants[vi].Label, err)
		}
		fillVariant(&variants[vi], results)
	}
	return variants, nil
}

func fillVariant(v *VariantPoint, results []RunResult) {
	var iters, secs, agree, conv float64
	for _, r := range results {
		iters += float64(r.Iterations)
		secs += r.SecPerIteration
		agree += r.Agreement
		if r.Converged {
			conv++
		}
	}
	n := float64(len(results))
	v.AvgIterations = iters / n
	v.AvgSecPerIter = secs / n
	v.AvgAgreement = agree / n
	v.ConvergedFraction = conv / n
}

// SweepPoint is one configuration of Figure 4 or 5.
type SweepPoint struct {
	// Value is the swept parameter (pairs per iteration for Fig. 4,
	// initial scenarios for Fig. 5).
	Value             int
	AvgIterations     float64
	AvgSecPerIter     float64
	AvgTotalSec       float64
	AvgQueries        float64
	AvgAgreement      float64
	ConvergedFraction float64
}

// RunFigure4 reproduces Figure 4: pairs ranked per iteration ∈ 1..5.
func RunFigure4(runsPerPoint int, baseSeed int64, fast bool) ([]SweepPoint, error) {
	var out []SweepPoint
	for pairs := 1; pairs <= 5; pairs++ {
		results, err := repeat(RunConfig{PairsPerIteration: pairs, Fast: fast},
			runsPerPoint, baseSeed+int64(pairs)*1000)
		if err != nil {
			return nil, fmt.Errorf("experiments: pairs=%d: %w", pairs, err)
		}
		out = append(out, sweepPoint(pairs, results))
	}
	return out, nil
}

// RunFigure5 reproduces Figure 5: initial random scenarios
// ∈ {0, 2, 5, 7, 10}.
func RunFigure5(runsPerPoint int, baseSeed int64, fast bool) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, init := range []int{0, 2, 5, 7, 10} {
		cfgInit := init
		if init == 0 {
			cfgInit = -1 // core convention: -1 = explicitly none
		}
		results, err := repeat(RunConfig{InitialScenarios: cfgInit, Fast: fast},
			runsPerPoint, baseSeed+int64(init+1)*1000)
		if err != nil {
			return nil, fmt.Errorf("experiments: init=%d: %w", init, err)
		}
		out = append(out, sweepPoint(init, results))
	}
	return out, nil
}

func sweepPoint(value int, results []RunResult) SweepPoint {
	var p SweepPoint
	p.Value = value
	var conv float64
	for _, r := range results {
		p.AvgIterations += float64(r.Iterations)
		p.AvgSecPerIter += r.SecPerIteration
		p.AvgTotalSec += r.TotalSynthSec
		p.AvgQueries += float64(r.Queries)
		p.AvgAgreement += r.Agreement
		if r.Converged {
			conv++
		}
	}
	n := float64(len(results))
	p.AvgIterations /= n
	p.AvgSecPerIter /= n
	p.AvgTotalSec /= n
	p.AvgQueries /= n
	p.AvgAgreement /= n
	p.ConvergedFraction = conv / n
	return p
}

// FormatVariants renders Figure 3's data as a table.
func FormatVariants(points []VariantPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %16s %12s %10s\n",
		"variant", "avg iterations", "avg s/iteration", "agreement", "converged")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14s %14.2f %16.4f %12.3f %10.0f%%\n",
			p.Label, p.AvgIterations, p.AvgSecPerIter, p.AvgAgreement, p.ConvergedFraction*100)
	}
	return b.String()
}

// FormatSweep renders Figure 4/5 data as a table.
func FormatSweep(name string, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %16s %12s %10s %12s\n",
		name, "avg iterations", "avg s/iteration", "avg total s", "queries", "agreement")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %14.2f %16.4f %12.3f %10.1f %12.3f\n",
			p.Value, p.AvgIterations, p.AvgSecPerIter, p.AvgTotalSec, p.AvgQueries, p.AvgAgreement)
	}
	return b.String()
}

// CSV renders sweep points as CSV for external plotting.
func CSV(points []SweepPoint, param string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s,avg_iterations,avg_sec_per_iteration,avg_total_sec,avg_queries,avg_agreement,converged_fraction\n", param)
	for _, p := range points {
		fmt.Fprintf(&b, "%d,%g,%g,%g,%g,%g,%g\n",
			p.Value, p.AvgIterations, p.AvgSecPerIter, p.AvgTotalSec, p.AvgQueries, p.AvgAgreement, p.ConvergedFraction)
	}
	return b.String()
}
