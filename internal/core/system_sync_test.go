package core

import (
	"math"
	"math/rand"
	"testing"

	"compsynth/internal/oracle"
	"compsynth/internal/solver"
)

// checkSystemSync asserts the incrementally maintained system presents
// exactly the constraints a fresh problem() materialization would, in
// the same order. Constraint order is observable (violation sums,
// satisfaction masks, branch-and-prune pruning order), so any drift
// here would silently change transcripts.
func checkSystemSync(t *testing.T, s *Synthesizer) {
	t.Helper()
	p, edges := s.problem()
	if got, want := s.sys.NumPrefs(), len(p.Prefs); got != want {
		t.Fatalf("system has %d prefs, problem has %d", got, want)
	}
	if got, want := s.sys.NumTies(), len(p.Ties); got != want {
		t.Fatalf("system has %d ties, problem has %d", got, want)
	}
	if len(s.sysEdges) != len(edges) {
		t.Fatalf("sysEdges has %d entries, graph has %d", len(s.sysEdges), len(edges))
	}
	for i, e := range edges {
		if s.sysEdges[i] != e {
			t.Fatalf("sysEdges[%d] = %v, want %v", i, s.sysEdges[i], e)
		}
	}
	sysPrefs := s.sys.Prefs()
	for i, c := range p.Prefs {
		if !c.Better.Equal(sysPrefs[i].Better) || !c.Worse.Equal(sysPrefs[i].Worse) {
			t.Fatalf("pref %d: system %v>%v, problem %v>%v",
				i, sysPrefs[i].Better, sysPrefs[i].Worse, c.Better, c.Worse)
		}
	}
	sysTies := s.sys.Ties()
	for i, tie := range p.Ties {
		if !tie.A.Equal(sysTies[i].A) || !tie.B.Equal(sysTies[i].B) || tie.Band != sysTies[i].Band {
			t.Fatalf("tie %d: system %+v, problem %+v", i, sysTies[i], tie)
		}
	}
	// Spot-check behavioral agreement on a few random hole vectors: the
	// point checks must reproduce, bit for bit, the reference built
	// from one Sketch.Eval per constraint side.
	rng := rand.New(rand.NewSource(int64(len(edges))))
	domains := s.cfg.Sketch.Domains()
	var mask []bool
	for n := 0; n < 8; n++ {
		h := make([]float64, len(domains))
		for i, d := range domains {
			h[i] = d.Lo + rng.Float64()*d.Width()
		}
		if got, want := s.sys.Satisfies(h), solver.Satisfies(p, h); got != want {
			t.Fatalf("Satisfies(%v): system %v, problem %v", h, got, want)
		}
		wantLoss, wantMask := referencePointChecks(p, h)
		if got := s.sys.Violation(h); math.Float64bits(got) != math.Float64bits(wantLoss) {
			t.Fatalf("Violation(%v): system %v (%#x), reference %v (%#x)",
				h, got, math.Float64bits(got), wantLoss, math.Float64bits(wantLoss))
		}
		mask = s.sys.SatisfiedMask(h, mask)
		if len(mask) != len(wantMask) {
			t.Fatalf("SatisfiedMask(%v) has %d entries, want %d", h, len(mask), len(wantMask))
		}
		for i := range wantMask {
			if mask[i] != wantMask[i] {
				t.Fatalf("SatisfiedMask(%v)[%d] = %v, reference %v", h, i, mask[i], wantMask[i])
			}
		}
	}
}

// referencePointChecks computes the hinge loss and the per-preference
// satisfaction mask of holes against p from one Sketch.Eval per
// constraint side, in constraint order.
func referencePointChecks(p solver.Problem, holes []float64) (loss float64, mask []bool) {
	for _, c := range p.Prefs {
		diff := p.Sketch.Eval(c.Better, holes) - p.Sketch.Eval(c.Worse, holes)
		if slack := p.Margin - diff; slack > 0 {
			loss += slack
		}
		mask = append(mask, diff > p.Margin)
	}
	for _, tie := range p.Ties {
		diff := math.Abs(p.Sketch.Eval(tie.A, holes) - p.Sketch.Eval(tie.B, holes))
		if over := diff - tie.Band; over > 0 {
			loss += over
		}
	}
	return loss, mask
}

// TestIncrementalSystemTracksGraph runs full sessions under every
// graph-mutating configuration and checks after each iteration that the
// incremental system matches the reference materialization.
func TestIncrementalSystemTracksGraph(t *testing.T) {
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"default", func(c *Config) {}},
		{"transitive-reduction", func(c *Config) { c.TransitiveReduction = true }},
		// A wide oracle tie band makes Indifferent answers, so ties
		// are recorded and checked too.
		{"learn-ties", func(c *Config) {
			c.LearnTies = true
			c.TieBand = 100
			c.Oracle.(*oracle.GroundTruth).TieEps = 50
		}},
		{"noise-repair", func(c *Config) {
			c.Noise = NoiseRepair
			c.Oracle = &oracle.Noisy{
				Inner:    c.Oracle,
				FlipProb: 0.2,
				Rng:      rand.New(rand.NewSource(17)),
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig(t, 61)
			cfg.MaxIterations = 12
			tc.mod(&cfg)
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.OnIteration = nil
			s.cfg.OnIteration = func(IterationStat) { checkSystemSync(t, s) }
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			checkSystemSync(t, s)
		})
	}
}

// TestPreloadBuildsSystem asserts a transcript-resumed session compiles
// its preloaded constraints before the first iteration.
func TestPreloadBuildsSystem(t *testing.T) {
	cfg := fastConfig(t, 62)
	cfg.MaxIterations = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	tr := Export(res)

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Preload(tr); err != nil {
		t.Fatal(err)
	}
	if s2.sys.NumPrefs() == 0 {
		t.Fatal("preloaded session has an empty compiled system")
	}
	checkSystemSync(t, s2)
}
