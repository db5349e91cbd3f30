// Benchmarks regenerating the paper's evaluation artifacts (one per
// table/figure; see DESIGN.md §4) plus the ablations of DESIGN.md §5.
//
// Each benchmark iteration performs one complete synthesis run in the
// experiment harness's fast mode, so ns/op approximates the total
// synthesis time of that configuration; the harness's stdout artifacts
// (cmd/experiments) report the paper-layout aggregates.
package compsynth_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"compsynth/internal/core"
	"compsynth/internal/experiments"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// BenchmarkTable1SynthesisRun is Table 1's unit of work: a full
// synthesis run in the default configuration (5 initial scenarios,
// 1 pair per iteration, Figure 2b target).
func BenchmarkTable1SynthesisRun(b *testing.B) {
	iters, queries := 0, 0
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunOnce(experiments.RunConfig{Seed: int64(i + 1), Fast: true})
		if err != nil {
			b.Fatal(err)
		}
		iters += r.Iterations
		queries += r.Queries
	}
	b.ReportMetric(float64(iters)/float64(b.N), "iterations/run")
	b.ReportMetric(float64(queries)/float64(b.N), "queries/run")
}

// BenchmarkFigure3TargetVariants covers Figure 3: synthesis against
// tuned target functions (one representative value per hole keeps the
// benchmark matrix manageable; cmd/experiments -fig3 runs all 21).
func BenchmarkFigure3TargetVariants(b *testing.B) {
	variants := []struct {
		name   string
		target sketch.SWANTargetParams
	}{
		{"baseline", sketch.DefaultSWANTarget},
		{"tp_thrsh=4", sketch.SWANTargetParams{TpThrsh: 4, LThrsh: 50, Slope1: 1, Slope2: 5}},
		{"l_thrsh=80", sketch.SWANTargetParams{TpThrsh: 1, LThrsh: 80, Slope1: 1, Slope2: 5}},
		{"slope1=4", sketch.SWANTargetParams{TpThrsh: 1, LThrsh: 50, Slope1: 4, Slope2: 5}},
		{"slope2=2", sketch.SWANTargetParams{TpThrsh: 1, LThrsh: 50, Slope1: 1, Slope2: 2}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			iters := 0
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunOnce(experiments.RunConfig{
					Target: v.target, Seed: int64(i + 1), Fast: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				iters += r.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/run")
		})
	}
}

// BenchmarkFigure4PairsPerIteration covers Figure 4: ranking 1–5
// scenario pairs per iteration.
func BenchmarkFigure4PairsPerIteration(b *testing.B) {
	for pairs := 1; pairs <= 5; pairs++ {
		b.Run(fmt.Sprintf("pairs=%d", pairs), func(b *testing.B) {
			iters, queries := 0, 0
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunOnce(experiments.RunConfig{
					PairsPerIteration: pairs, Seed: int64(i + 1), Fast: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				iters += r.Iterations
				queries += r.Queries
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/run")
			b.ReportMetric(float64(queries)/float64(b.N), "queries/run")
		})
	}
}

// BenchmarkFigure5InitialScenarios covers Figure 5: 0–10 initial
// random scenarios.
func BenchmarkFigure5InitialScenarios(b *testing.B) {
	for _, init := range []int{0, 2, 5, 7, 10} {
		cfgInit := init
		if init == 0 {
			cfgInit = -1
		}
		b.Run(fmt.Sprintf("init=%d", init), func(b *testing.B) {
			iters := 0
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunOnce(experiments.RunConfig{
					InitialScenarios: cfgInit, Seed: int64(i + 1), Fast: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				iters += r.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/run")
		})
	}
}

// benchProblem builds a representative consistency problem: the SWAN
// sketch with preferences derived from the Figure 2b target.
func benchProblem(b *testing.B, nPrefs int) solver.Problem {
	b.Helper()
	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	var prefs []solver.Pref
	for len(prefs) < nPrefs {
		x := sk.Space().Random(rng)
		y := sk.Space().Random(rng)
		switch {
		case target.Eval(x) > target.Eval(y):
			prefs = append(prefs, solver.Pref{Better: x, Worse: y})
		case target.Eval(y) > target.Eval(x):
			prefs = append(prefs, solver.Pref{Better: y, Worse: x})
		}
	}
	return solver.Problem{Sketch: sk, Prefs: prefs}
}

// BenchmarkAblationSolverStrategies compares the candidate-search
// strategies (DESIGN.md §5): warm sampling+repair vs pure
// branch-and-prune.
func BenchmarkAblationSolverStrategies(b *testing.B) {
	p := benchProblem(b, 30)
	strategies := []struct {
		name string
		opts solver.Options
	}{
		{"sampling+repair", solver.Options{Budget: solver.Budget{
			Samples: 400, RepairRestarts: 12, RepairSteps: 160,
			MinBoxWidth: 1.0 / 256, MaxBoxes: 20000,
		}}},
		{"branch-and-prune-only", solver.Options{Budget: solver.Budget{
			Samples: 0, RepairRestarts: 0, RepairSteps: 0,
			MinBoxWidth: 1.0 / 256, MaxBoxes: 200000,
		}}},
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			search := solver.Compile(p, nil)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, st, _ := search.FindCandidate(context.Background(), s.opts, rng); st != solver.StatusSat {
					b.Fatalf("status %v", st)
				}
			}
		})
	}
}

// BenchmarkAblationQuerySelection compares the query-selection
// strategies: first-found, maximum-gap, and vote-split (DESIGN.md §5).
func BenchmarkAblationQuerySelection(b *testing.B) {
	for _, strategy := range []solver.QueryStrategy{solver.SelectFirst, solver.SelectMaxGap, solver.SelectVoteSplit} {
		b.Run(strategy.String(), func(b *testing.B) {
			iters := 0
			for i := 0; i < b.N; i++ {
				r, err := runWithDistinguish(int64(i+1), func(d *solver.DistinguishOptions) {
					d.Strategy = strategy
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
				iters += r.Iterations
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iterations/run")
		})
	}
}

// BenchmarkExtensionNoiseRobustness measures synthesis under a noisy
// oracle with the repair policy (paper §6.1 extension).
func BenchmarkExtensionNoiseRobustness(b *testing.B) {
	for _, flip := range []float64{0, 0.05, 0.1} {
		b.Run(fmt.Sprintf("flip=%g", flip), func(b *testing.B) {
			var agreement float64
			completed := 0
			for i := 0; i < b.N; i++ {
				points, err := experiments.RunNoiseSweep(
					[]float64{flip}, core.NoiseRepair, 1, int64(i+1)*37, true)
				if err != nil {
					b.Fatal(err)
				}
				if points[0].CompletedFraction > 0 {
					completed++
					agreement += points[0].AvgAgreement
				}
			}
			if completed > 0 {
				b.ReportMetric(agreement/float64(completed), "agreement")
			}
		})
	}
}

// BenchmarkExtensionMultiRegion measures synthesis of the generalized
// multi-region sketches (paper §4.1 extension).
func BenchmarkExtensionMultiRegion(b *testing.B) {
	for _, regions := range []int{1, 2} {
		b.Run(fmt.Sprintf("regions=%d", regions), func(b *testing.B) {
			iters := 0.0
			for i := 0; i < b.N; i++ {
				points, err := experiments.RunMultiRegion(
					[]int{regions}, 1, int64(i+1)*53, true)
				if err != nil {
					b.Fatal(err)
				}
				iters += points[0].AvgIterations
			}
			b.ReportMetric(iters/float64(b.N), "iterations/run")
		})
	}
}

// runWithDistinguish performs one fast synthesis run with optional
// tweaks to the distinguishing options and the core config.
func runWithDistinguish(seed int64, dmod func(*solver.DistinguishOptions), cmod func(*core.Config)) (*core.Result, error) {
	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		return nil, err
	}
	opts := solver.DefaultOptions()
	opts.Samples = 150
	opts.RepairRestarts = 5
	opts.RepairSteps = 60
	dopts := solver.DefaultDistinguishOptions()
	dopts.Candidates = 6
	dopts.PairSamples = 250
	dopts.Gamma = 2
	if dmod != nil {
		dmod(&dopts)
	}
	cfg := core.Config{
		Sketch:      sk,
		Oracle:      oracle.NewGroundTruth(target, 1e-9),
		Solver:      opts,
		Distinguish: dopts,
		Seed:        seed,
	}
	if cmod != nil {
		cmod(&cfg)
	}
	synth, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return synth.Run()
}
