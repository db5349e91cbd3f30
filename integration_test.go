package compsynth_test

import (
	"bytes"
	"math/rand"
	"testing"

	"compsynth/internal/abr"
	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
	"compsynth/internal/te"
	"compsynth/internal/topo"
)

// fastCore returns a speed-tuned config for integration tests.
func fastCore(sk *sketch.Sketch, user oracle.Oracle, seed int64) core.Config {
	opts := solver.DefaultOptions()
	opts.Samples = 200
	opts.RepairRestarts = 6
	opts.RepairSteps = 80
	dopts := solver.DefaultDistinguishOptions()
	dopts.Candidates = 6
	dopts.PairSamples = 250
	dopts.Gamma = 2
	return core.Config{Sketch: sk, Oracle: user, Solver: opts, Distinguish: dopts, Seed: seed}
}

// TestEndToEndTEDesignSelection runs the full loop the paper targets:
// gravity traffic on a real topology, candidate designs from the TE
// substrate, objective synthesis from comparisons, and design selection
// by the learned objective. The learned objective must pick the same
// design the hidden target would pick.
func TestEndToEndTEDesignSelection(t *testing.T) {
	g := topo.Abilene()
	flows, err := te.GravityFlows(g, te.GravityConfig{Flows: 8, TotalDemand: 30},
		rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	n, err := te.NewNetwork(g, flows, 3)
	if err != nil {
		t.Fatal(err)
	}
	points, err := te.Evaluate(n, te.StandardSchemes(
		[]float64{0, 0.005, 0.02, 0.05}, []float64{0.5, 1}))
	if err != nil {
		t.Fatal(err)
	}

	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		t.Fatal(err)
	}
	synth, err := core.New(fastCore(sk, oracle.NewGroundTruth(target, 1e-9), 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("synthesis did not converge")
	}

	learnedRank := te.SelectDesign(points, res.Final)
	truthRank := te.SelectDesign(points, target)
	// The top pick must carry the same metrics under both objectives
	// (several schemes may tie with identical allocations, so compare
	// outcomes rather than names).
	lr, tr := learnedRank[0], truthRank[0]
	if lr.Throughput != tr.Throughput || lr.Latency != tr.Latency {
		t.Errorf("learned objective picked %q (%.2f, %.2f), ground truth picked %q (%.2f, %.2f)",
			lr.Name, lr.Throughput, lr.Latency, tr.Name, tr.Throughput, tr.Latency)
	}
}

// TestEndToEndABRSelection learns a QoE objective and checks it ranks
// the simulated ABR algorithms the same way the hidden QoE does.
func TestEndToEndABRSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	traces := []*abr.Trace{
		abr.Constant(3),
		abr.Stepped(5, 0.8, 20, 4),
		abr.RandomWalk(60, 3, 2, 0.4, 8, rng),
	}
	algos := []abr.Algorithm{abr.RateBased{}, abr.BufferBased{}, abr.BOLA{}, abr.Hybrid{}}

	sk := abr.QoESketch()
	hidden := map[string]float64{"w_bitrate": 3, "w_rebuffer": 15, "w_switches": 0.8, "w_startup": 0.4}
	holes := make([]float64, sk.NumHoles())
	for i, h := range sk.Holes() {
		holes[i] = hidden[h]
	}
	truth := sk.MustCandidate(holes)

	cfg := fastCore(sk, oracle.NewGroundTruth(truth, 1e-9), 9)
	cfg.Distinguish.Gamma = 1
	synth, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}

	meanQoE := func(obj *sketch.Candidate, a abr.Algorithm) float64 {
		var sum float64
		for _, tr := range traces {
			m, err := abr.Simulate(a, tr, abr.Config{})
			if err != nil {
				t.Fatal(err)
			}
			sum += obj.Eval(sk.Space().Clamp(m.Scenario()))
		}
		return sum / float64(len(traces))
	}
	bestLearned, bestTruth := "", ""
	var bl, bt float64
	for i, a := range algos {
		l, tv := meanQoE(res.Final, a), meanQoE(truth, a)
		if i == 0 || l > bl {
			bestLearned, bl = a.Name(), l
		}
		if i == 0 || tv > bt {
			bestTruth, bt = a.Name(), tv
		}
	}
	if bestLearned != bestTruth {
		t.Errorf("learned QoE picks %q, hidden QoE picks %q", bestLearned, bestTruth)
	}
}

// TestEndToEndTranscriptReplay saves a session, replays it into a new
// synthesizer, and checks the replayed final candidate ranks scenarios
// like the original.
func TestEndToEndTranscriptReplay(t *testing.T) {
	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		t.Fatal(err)
	}
	user := oracle.NewGroundTruth(target, 1e-9)
	synth, err := core.New(fastCore(sk, user, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := core.Export(res).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := core.ReadTranscript(&buf)
	if err != nil {
		t.Fatal(err)
	}
	synth2, err := core.New(fastCore(sk, user, 12))
	if err != nil {
		t.Fatal(err)
	}
	if err := synth2.Preload(tr); err != nil {
		t.Fatal(err)
	}
	res2, err := synth2.Run()
	if err != nil {
		t.Fatal(err)
	}
	pairs := oracle.RandomPairs(sk.Space(), 1500, rand.New(rand.NewSource(13)))
	frac, _ := oracle.Agreement(res.Oracle(), res2.Oracle(), pairs)
	if frac < 0.95 {
		t.Errorf("replayed session agreement = %.3f", frac)
	}
}
