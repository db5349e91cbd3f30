package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// NoisePoint is one flip-probability setting of the noise-robustness
// extension sweep (paper §6.1: "the synthesis approach must be robust
// to detect and remove noise in user inputs").
type NoisePoint struct {
	FlipProb          float64
	Policy            core.NoisePolicy
	AvgIterations     float64
	AvgAgreement      float64
	AvgRejected       float64 // answers dropped or repaired away per run
	CompletedFraction float64 // runs that produced a final candidate
}

// RunNoiseSweep measures synthesis quality against an oracle that
// flips each strict answer with probability p, for each p and noise
// policy. With a perfect noise handler agreement would stay flat;
// the measured decay quantifies how much inconsistency the simple
// reject/repair policies absorb.
func RunNoiseSweep(flipProbs []float64, policy core.NoisePolicy, runs int, baseSeed int64, fast bool) ([]NoisePoint, error) {
	var out []NoisePoint
	for pi, p := range flipProbs {
		pt := NoisePoint{FlipProb: p, Policy: policy}
		completed := 0
		for r := 0; r < runs; r++ {
			seed := baseSeed + int64(pi)*1000 + int64(r)
			res, agreement, rejected, err := runNoisy(p, policy, seed, fast)
			if err != nil {
				continue // noisy runs may legitimately fail; count completion
			}
			completed++
			pt.AvgIterations += float64(res.Iterations)
			pt.AvgAgreement += agreement
			pt.AvgRejected += float64(rejected)
		}
		if completed > 0 {
			pt.AvgIterations /= float64(completed)
			pt.AvgAgreement /= float64(completed)
			pt.AvgRejected /= float64(completed)
		}
		pt.CompletedFraction = float64(completed) / float64(runs)
		out = append(out, pt)
	}
	return out, nil
}

func runNoisy(flipProb float64, policy core.NoisePolicy, seed int64, fast bool) (*core.Result, float64, int, error) {
	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		return nil, 0, 0, err
	}
	truth := oracle.NewGroundTruth(target, 1e-9)
	var user oracle.Oracle = truth
	if flipProb > 0 {
		user = oracle.NewNoisy(truth, flipProb, rand.New(rand.NewSource(seed+31)))
	}
	cfg := core.Config{
		Sketch:         sk,
		Oracle:         user,
		Noise:          policy,
		Seed:           seed,
		MaxIterations:  120,
		DisablePlanner: PlannerOff(),
	}
	if fast {
		cfg.Solver.Samples = 150
		cfg.Solver.RepairRestarts = 5
		cfg.Solver.RepairSteps = 60
		cfg.Solver.MinBoxWidth = 1.0 / 64
		cfg.Solver.MaxBoxes = 10000
		cfg.Distinguish.Candidates = 6
		cfg.Distinguish.PairSamples = 250
		cfg.Distinguish.Gamma = 2
	}
	synth, err := core.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	res, err := synth.Run()
	if err != nil {
		return nil, 0, 0, err
	}
	rejected := 0
	for _, st := range res.Stats {
		rejected += st.Rejected
	}
	agreement := core.Validate(res, truth, 2000, rand.New(rand.NewSource(seed+77)))
	return res, agreement, rejected, nil
}

// FormatNoise renders the noise sweep as a table.
func FormatNoise(points []NoisePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %14s %12s %10s %10s\n",
		"flip prob", "policy", "avg iterations", "agreement", "rejected", "completed")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10.2f %-8v %14.2f %12.3f %10.2f %9.0f%%\n",
			p.FlipProb, p.Policy, p.AvgIterations, p.AvgAgreement, p.AvgRejected, p.CompletedFraction*100)
	}
	return b.String()
}

// StrategyPoint is one query-selection strategy of the comparison sweep.
type StrategyPoint struct {
	Strategy      solver.QueryStrategy
	AvgIterations float64
	AvgSecPerIter float64
	AvgAgreement  float64
}

// RunStrategyComparison measures the three query-selection strategies
// (first-found, max-gap, vote-split) on the default SWAN task — the
// active-learning ablation of DESIGN.md §5 as a table rather than a
// benchmark.
func RunStrategyComparison(runs int, baseSeed int64, fast bool) ([]StrategyPoint, error) {
	strategies := []solver.QueryStrategy{solver.SelectFirst, solver.SelectMaxGap, solver.SelectVoteSplit}
	var out []StrategyPoint
	for si, strategy := range strategies {
		pt := StrategyPoint{Strategy: strategy}
		for r := 0; r < runs; r++ {
			seed := baseSeed + int64(si)*1000 + int64(r)
			sk := sketch.SWAN()
			target, err := sketch.DefaultSWANTarget.Candidate(sk)
			if err != nil {
				return nil, err
			}
			cfg := core.Config{
				Sketch: sk,
				Oracle: oracle.NewGroundTruth(target, 1e-9),
				Seed:   seed,
				// This ablation measures the legacy per-pair selection
				// strategies, which the planner supersedes; run it on the
				// planner-off path so the strategies actually differ.
				DisablePlanner: true,
			}
			cfg.Distinguish = solver.DefaultDistinguishOptions()
			cfg.Distinguish.Strategy = strategy
			if fast {
				cfg.Solver.Samples = 150
				cfg.Solver.RepairRestarts = 5
				cfg.Solver.RepairSteps = 60
				cfg.Solver.MinBoxWidth = 1.0 / 64
				cfg.Solver.MaxBoxes = 10000
				cfg.Distinguish.Candidates = 6
				cfg.Distinguish.PairSamples = 250
				cfg.Distinguish.Gamma = 2
			}
			synth, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			res, err := synth.Run()
			if err != nil {
				return nil, fmt.Errorf("experiments: strategy %v seed %d: %w", strategy, seed, err)
			}
			pt.AvgIterations += float64(res.Iterations)
			var iterSec float64
			for _, st := range res.Stats {
				iterSec += st.SynthTime.Seconds()
			}
			if res.Iterations > 0 {
				pt.AvgSecPerIter += iterSec / float64(res.Iterations)
			}
			pt.AvgAgreement += core.Validate(res,
				oracle.NewGroundTruth(target, 1e-9), 2000, rand.New(rand.NewSource(seed+77)))
		}
		n := float64(runs)
		pt.AvgIterations /= n
		pt.AvgSecPerIter /= n
		pt.AvgAgreement /= n
		out = append(out, pt)
	}
	return out, nil
}

// FormatStrategies renders the strategy comparison as a table.
func FormatStrategies(points []StrategyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %14s %16s %12s\n", "strategy", "avg iterations", "avg s/iteration", "agreement")
	for _, p := range points {
		fmt.Fprintf(&b, "%-14v %14.2f %16.4f %12.3f\n",
			p.Strategy, p.AvgIterations, p.AvgSecPerIter, p.AvgAgreement)
	}
	return b.String()
}

// FatiguePoint is one patience level of the user-fatigue sweep.
type FatiguePoint struct {
	Patience      int // strict answers before fatigue sets in (0 = tireless)
	AvgIterations float64
	AvgAgreement  float64
	AvgAnswered   float64 // queries actually shown to the user
}

// RunFatigueSweep measures synthesis quality against users who stop
// giving strict answers after a patience budget (paper §4.3 observes
// ~30 interactions is "a bit excessive if a human user were
// participating"; this quantifies what partial engagement costs).
// Fatigued answers are Indifferent, which the synthesizer treats as a
// partial rank — the session keeps going but learns less per query.
func RunFatigueSweep(patiences []int, runs int, baseSeed int64, fast bool) ([]FatiguePoint, error) {
	var out []FatiguePoint
	for pi, patience := range patiences {
		pt := FatiguePoint{Patience: patience}
		for r := 0; r < runs; r++ {
			seed := baseSeed + int64(pi)*1000 + int64(r)
			sk := sketch.SWAN()
			target, err := sketch.DefaultSWANTarget.Candidate(sk)
			if err != nil {
				return nil, err
			}
			truth := oracle.NewGroundTruth(target, 1e-9)
			var user oracle.Oracle = truth
			var fat *oracle.Fatigued
			if patience > 0 {
				fat = oracle.NewFatigued(truth, patience, rand.New(rand.NewSource(seed+13)))
				user = fat
			}
			cfg := core.Config{Sketch: sk, Oracle: user, Seed: seed, MaxIterations: 120,
				DisablePlanner: PlannerOff()}
			if fast {
				cfg.Solver.Samples = 150
				cfg.Solver.RepairRestarts = 5
				cfg.Solver.RepairSteps = 60
				cfg.Solver.MinBoxWidth = 1.0 / 64
				cfg.Solver.MaxBoxes = 10000
				cfg.Distinguish.Candidates = 6
				cfg.Distinguish.PairSamples = 250
				cfg.Distinguish.Gamma = 2
			}
			synth, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			res, err := synth.Run()
			if err != nil {
				return nil, fmt.Errorf("experiments: fatigue patience=%d seed %d: %w", patience, seed, err)
			}
			pt.AvgIterations += float64(res.Iterations)
			pt.AvgAgreement += core.Validate(res, truth, 2000, rand.New(rand.NewSource(seed+77)))
			if fat != nil {
				pt.AvgAnswered += float64(fat.Answered())
			}
		}
		n := float64(runs)
		pt.AvgIterations /= n
		pt.AvgAgreement /= n
		pt.AvgAnswered /= n
		out = append(out, pt)
	}
	return out, nil
}

// FormatFatigue renders the fatigue sweep as a table.
func FormatFatigue(points []FatiguePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %12s %10s\n", "patience", "avg iterations", "agreement", "answered")
	for _, p := range points {
		label := fmt.Sprintf("%d", p.Patience)
		if p.Patience == 0 {
			label = "∞"
		}
		fmt.Fprintf(&b, "%-10s %14.2f %12.3f %10.1f\n", label, p.AvgIterations, p.AvgAgreement, p.AvgAnswered)
	}
	return b.String()
}

// MultiRegionPoint is one sketch complexity level of the multi-region
// extension (paper §4.1: the sketch "can be generalized to support
// multiple regions").
type MultiRegionPoint struct {
	Regions           int
	Holes             int
	AvgIterations     float64
	AvgSecPerIter     float64
	AvgAgreement      float64
	ConvergedFraction float64
}

// RunMultiRegion measures synthesis against multi-region targets of
// growing complexity: for n regions the sketch has 3n+1 holes, so the
// sweep shows how interaction counts scale with sketch expressiveness.
func RunMultiRegion(regions []int, runs int, baseSeed int64, fast bool) ([]MultiRegionPoint, error) {
	var out []MultiRegionPoint
	for ri, n := range regions {
		sk, err := sketch.MultiRegion(n)
		if err != nil {
			return nil, err
		}
		target, err := multiRegionTarget(sk, n)
		if err != nil {
			return nil, err
		}
		pt := MultiRegionPoint{Regions: n, Holes: sk.NumHoles()}
		var conv float64
		for r := 0; r < runs; r++ {
			seed := baseSeed + int64(ri)*1000 + int64(r)
			cfg := core.Config{
				Sketch:         sk,
				Oracle:         oracle.NewGroundTruth(target, 1e-9),
				Seed:           seed,
				MaxIterations:  200,
				DisablePlanner: PlannerOff(),
			}
			if fast {
				cfg.Solver.Samples = 200
				cfg.Solver.RepairRestarts = 6
				cfg.Solver.RepairSteps = 80
				cfg.Solver.MinBoxWidth = 1.0 / 32
				cfg.Solver.MaxBoxes = 10000
				cfg.Distinguish.Candidates = 6
				cfg.Distinguish.PairSamples = 250
				cfg.Distinguish.Gamma = 3
			}
			synth, err := core.New(cfg)
			if err != nil {
				return nil, err
			}
			res, err := synth.Run()
			if err != nil {
				return nil, fmt.Errorf("experiments: %d regions seed %d: %w", n, seed, err)
			}
			pt.AvgIterations += float64(res.Iterations)
			var iterSec float64
			for _, st := range res.Stats {
				iterSec += st.SynthTime.Seconds()
			}
			if res.Iterations > 0 {
				pt.AvgSecPerIter += iterSec / float64(res.Iterations)
			}
			pt.AvgAgreement += core.Validate(res,
				oracle.NewGroundTruth(target, 1e-9), 2000, rand.New(rand.NewSource(seed+77)))
			if res.Converged {
				conv++
			}
		}
		nr := float64(runs)
		pt.AvgIterations /= nr
		pt.AvgSecPerIter /= nr
		pt.AvgAgreement /= nr
		pt.ConvergedFraction = conv / nr
		out = append(out, pt)
	}
	return out, nil
}

// multiRegionTarget builds a plausible ground truth for an n-region
// sketch: nested regions with shrinking thresholds and growing slopes.
func multiRegionTarget(sk *sketch.Sketch, n int) (*sketch.Candidate, error) {
	vals := map[string]float64{fmt.Sprintf("slope_%d", n+1): 5}
	for i := 1; i <= n; i++ {
		// Region 1 is the strictest (highest throughput bar, lowest
		// latency bar); outer regions relax both.
		vals[fmt.Sprintf("tp_thrsh_%d", i)] = 1 + float64(n-i)*1.5
		vals[fmt.Sprintf("l_thrsh_%d", i)] = 40 + float64(i-1)*40
		vals[fmt.Sprintf("slope_%d", i)] = float64(i)
	}
	holes := make([]float64, sk.NumHoles())
	for i, h := range sk.Holes() {
		v, ok := vals[h]
		if !ok {
			return nil, fmt.Errorf("experiments: no target value for hole %q", h)
		}
		holes[i] = v
	}
	return sk.Candidate(holes)
}

// FormatMultiRegion renders the multi-region sweep as a table.
func FormatMultiRegion(points []MultiRegionPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-6s %14s %16s %12s %10s\n",
		"regions", "holes", "avg iterations", "avg s/iteration", "agreement", "converged")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8d %-6d %14.2f %16.4f %12.3f %9.0f%%\n",
			p.Regions, p.Holes, p.AvgIterations, p.AvgSecPerIter, p.AvgAgreement, p.ConvergedFraction*100)
	}
	return b.String()
}
