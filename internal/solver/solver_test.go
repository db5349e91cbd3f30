package solver

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// swanProblem builds a Problem over the SWAN sketch with preferences
// generated from the paper's Figure 2b ground truth.
func swanProblem(t testing.TB, nPrefs int, seed int64) (Problem, *sketch.Candidate) {
	t.Helper()
	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var prefs []Pref
	for len(prefs) < nPrefs {
		a := sk.Space().Random(rng)
		b := sk.Space().Random(rng)
		fa, fb := target.Eval(a), target.Eval(b)
		switch {
		case fa > fb:
			prefs = append(prefs, Pref{Better: a, Worse: b})
		case fb > fa:
			prefs = append(prefs, Pref{Better: b, Worse: a})
		}
	}
	return Problem{Sketch: sk, Prefs: prefs}, target
}

func TestFindCandidateEmptyProblem(t *testing.T) {
	sk := sketch.SWAN()
	p := Problem{Sketch: sk}
	h, st, _ := Compile(p, nil).FindCandidate(context.Background(), DefaultOptions(), rand.New(rand.NewSource(1)))
	if st != StatusSat {
		t.Fatalf("status = %v", st)
	}
	if !sk.InDomain(h) {
		t.Errorf("candidate %v outside domain", h)
	}
}

func TestFindCandidateSatisfiesConstraints(t *testing.T) {
	for _, n := range []int{1, 5, 20, 60} {
		p, _ := swanProblem(t, n, int64(n))
		h, st, _ := Compile(p, nil).FindCandidate(context.Background(), DefaultOptions(), rand.New(rand.NewSource(2)))
		if st != StatusSat {
			t.Fatalf("n=%d: status = %v", n, st)
		}
		if !Satisfies(p, h) {
			t.Errorf("n=%d: returned candidate violates constraints", n)
		}
		if !p.Sketch.InDomain(h) {
			t.Errorf("n=%d: candidate outside domain", n)
		}
	}
}

func TestFindCandidateGroundTruthAlwaysFeasible(t *testing.T) {
	// The ground truth itself must satisfy constraints derived from it.
	p, target := swanProblem(t, 100, 77)
	if !Satisfies(p, target.Holes()) {
		t.Fatal("ground truth violates its own preferences")
	}
}

func TestFindCandidateUnsat(t *testing.T) {
	// Contradictory preferences: a > b and b > a.
	sk := sketch.SWAN()
	a := scenario.Scenario{5, 10}
	b := scenario.Scenario{2, 100}
	p := Problem{
		Sketch: sk,
		Prefs:  []Pref{{Better: a, Worse: b}, {Better: b, Worse: a}},
		Margin: 1e-9,
	}
	opts := DefaultOptions()
	opts.Samples = 50
	opts.RepairRestarts = 2
	opts.MinBoxWidth = 1.0 / 32 // keep the exhaustive pass fast
	opts.MaxBoxes = 2_000_000
	_, st, _ := Compile(p, opts.Stats).FindCandidate(context.Background(), opts, rand.New(rand.NewSource(3)))
	if st != StatusUnsat {
		t.Fatalf("contradictory problem status = %v, want unsat", st)
	}
}

func TestFindCandidateTightConstraint(t *testing.T) {
	// Force a narrow feasible region: prefer a low-latency scenario only
	// barely (both satisfying), pinning slope1 into a small range.
	sk := sketch.SWAN()
	// f(5,10) - f(5,40): with tp_thrsh<=5, l_thrsh>=40, both satisfying:
	// diff = slope1*5*(40-10) = 150*slope1. Require diff > margin and
	// reverse constraint on scaled scenarios to squeeze slope1.
	p := Problem{
		Sketch: sk,
		Prefs: []Pref{
			// These only pin behavior, feasibility remains nonempty.
			{Better: scenario.Scenario{5, 10}, Worse: scenario.Scenario{5, 40}},
			{Better: scenario.Scenario{9, 150}, Worse: scenario.Scenario{1, 150}},
			{Better: scenario.Scenario{5, 10}, Worse: scenario.Scenario{0.2, 5}},
		},
	}
	h, st, _ := Compile(p, nil).FindCandidate(context.Background(), DefaultOptions(), rand.New(rand.NewSource(4)))
	if st != StatusSat {
		t.Fatalf("status = %v", st)
	}
	if !Satisfies(p, h) {
		t.Error("candidate violates constraints")
	}
}

func TestViolationZeroIffSatisfies(t *testing.T) {
	p, target := swanProblem(t, 30, 5)
	rng := rand.New(rand.NewSource(6))
	if violation(p, target.Holes()) != 0 {
		t.Error("ground truth has positive violation")
	}
	for i := 0; i < 200; i++ {
		h := randomVector(p.Sketch.Domains(), rng)
		sat := Satisfies(p, h)
		v := violation(p, h)
		if sat != (v == 0) {
			t.Fatalf("Satisfies=%v but violation=%v for %v", sat, v, h)
		}
	}
}

func TestFindDiverse(t *testing.T) {
	p, _ := swanProblem(t, 5, 9)
	cands, _ := Compile(p, nil).FindDiverse(context.Background(), 6, DefaultOptions(), rand.New(rand.NewSource(7)))
	if len(cands) < 2 {
		t.Fatalf("only %d diverse candidates for weak constraints", len(cands))
	}
	for _, c := range cands {
		if !Satisfies(p, c) {
			t.Error("diverse candidate violates constraints")
		}
	}
	// No duplicates.
	for i := range cands {
		for j := i + 1; j < len(cands); j++ {
			same := true
			for d := range cands[i] {
				if cands[i][d] != cands[j][d] {
					same = false
					break
				}
			}
			if same {
				t.Error("duplicate candidates returned")
			}
		}
	}
}

func TestFindDiverseOverconstrained(t *testing.T) {
	sk := sketch.SWAN()
	a := scenario.Scenario{5, 10}
	b := scenario.Scenario{2, 100}
	p := Problem{
		Sketch: sk,
		Prefs:  []Pref{{Better: a, Worse: b}, {Better: b, Worse: a}},
	}
	opts := DefaultOptions()
	opts.Samples = 40
	opts.RepairRestarts = 2
	opts.MinBoxWidth = 1.0 / 16
	if cands, _ := Compile(p, opts.Stats).FindDiverse(context.Background(), 4, opts, rand.New(rand.NewSource(8))); len(cands) != 0 {
		t.Errorf("found %d candidates for contradictory constraints", len(cands))
	}
}

func TestFindDistinguishingFindsWitness(t *testing.T) {
	// With few constraints the version space is wide: a distinguishing
	// pair must exist.
	p, _ := swanProblem(t, 3, 11)
	w, st, _ := Compile(p, nil).FindDistinguishing(context.Background(), DefaultOptions(), DefaultDistinguishOptions(), rand.New(rand.NewSource(12)))
	if st != StatusSat {
		t.Fatalf("status = %v", st)
	}
	validateWitness(t, p, w, DefaultDistinguishOptions().Gamma)
}

func validateWitness(t *testing.T, p Problem, w *Distinguishing, gamma float64) {
	t.Helper()
	if !Satisfies(p, w.A) || !Satisfies(p, w.B) {
		t.Error("witness candidates not consistent with constraints")
	}
	da := p.Sketch.Eval(w.X1, w.A) - p.Sketch.Eval(w.X2, w.A)
	db := p.Sketch.Eval(w.X1, w.B) - p.Sketch.Eval(w.X2, w.B)
	if da <= gamma {
		t.Errorf("candidate A margin %v <= gamma %v", da, gamma)
	}
	if db >= -gamma {
		t.Errorf("candidate B margin %v >= -gamma", db)
	}
	if w.Gap <= 0 {
		t.Errorf("gap = %v", w.Gap)
	}
	sp := p.Sketch.Space()
	if !sp.Contains(w.X1) || !sp.Contains(w.X2) {
		t.Error("witness scenarios outside ClosedInRange box")
	}
}

func TestFindDistinguishingManyDistinctPairs(t *testing.T) {
	p, _ := swanProblem(t, 3, 13)
	ws, st, _ := Compile(p, nil).FindDistinguishingMany(context.Background(), 3, DefaultOptions(), DefaultDistinguishOptions(), rand.New(rand.NewSource(14)))
	if st != StatusSat {
		t.Fatalf("status = %v", st)
	}
	if len(ws) < 2 {
		t.Fatalf("got %d witnesses", len(ws))
	}
	for _, w := range ws {
		validateWitness(t, p, w, DefaultDistinguishOptions().Gamma)
	}
	for i := range ws {
		for j := i + 1; j < len(ws); j++ {
			if samePair(ws[i], ws[j], p.Sketch.Space()) {
				t.Error("duplicate scenario pairs returned")
			}
		}
	}
	// Gaps are sorted descending.
	for i := 1; i < len(ws); i++ {
		if ws[i].Gap > ws[i-1].Gap {
			t.Error("witnesses not sorted by gap")
		}
	}
}

func TestFindDistinguishingUnknownWhenOverconstrained(t *testing.T) {
	sk := sketch.SWAN()
	a := scenario.Scenario{5, 10}
	b := scenario.Scenario{2, 100}
	p := Problem{Sketch: sk, Prefs: []Pref{{Better: a, Worse: b}, {Better: b, Worse: a}}}
	opts := DefaultOptions()
	opts.Samples = 40
	opts.RepairRestarts = 1
	opts.MinBoxWidth = 1.0 / 8
	opts.MaxBoxes = 2000
	_, st, _ := Compile(p, opts.Stats).FindDistinguishing(context.Background(), opts, DefaultDistinguishOptions(), rand.New(rand.NewSource(15)))
	if st != StatusUnknown {
		t.Fatalf("status = %v, want unknown (no consistent candidate)", st)
	}
}

func TestFindDistinguishingConvergesOnPointSketch(t *testing.T) {
	// A sketch with an (effectively) unique behavior: hole domain is a
	// point, so all candidates agree and the query must be UNSAT.
	sk := sketch.MustNew("pinned",
		expr.MustParse("throughput - ??s*latency"),
		scenario.SWANSpace(),
		map[string]interval.Interval{"s": interval.Point(2)},
	)
	p := Problem{Sketch: sk}
	_, st, _ := Compile(p, nil).FindDistinguishing(context.Background(), DefaultOptions(), DefaultDistinguishOptions(), rand.New(rand.NewSource(16)))
	if st != StatusUnsat {
		t.Fatalf("status = %v, want unsat (behaviorally unique)", st)
	}
}

func TestStatusString(t *testing.T) {
	if StatusSat.String() != "sat" || StatusUnsat.String() != "unsat" || StatusUnknown.String() != "unknown" {
		t.Error("Status strings wrong")
	}
	if Status(42).String() == "" {
		t.Error("unknown status empty string")
	}
}

func TestBranchAndPruneDirect(t *testing.T) {
	// Pin slope via constraints solvable only in a thin slice, check BP
	// finds it without sampling (Samples=0, RepairRestarts=0).
	p, _ := swanProblem(t, 10, 21)
	opts := DefaultOptions()
	opts.Samples = 0
	opts.RepairRestarts = 0
	h, st, _ := Compile(p, opts.Stats).FindCandidate(context.Background(), opts, rand.New(rand.NewSource(22)))
	if st != StatusSat {
		t.Fatalf("pure branch-and-prune status = %v", st)
	}
	if !Satisfies(p, h) {
		t.Error("BP candidate violates constraints")
	}
}

func TestMarginRespected(t *testing.T) {
	p, _ := swanProblem(t, 10, 31)
	p.Margin = 5.0
	h, st, _ := Compile(p, nil).FindCandidate(context.Background(), DefaultOptions(), rand.New(rand.NewSource(32)))
	if st != StatusSat {
		t.Skipf("margin too strict for these constraints: %v", st)
	}
	for _, c := range p.Prefs {
		if diff := p.Sketch.Eval(c.Better, h) - p.Sketch.Eval(c.Worse, h); diff <= p.Margin {
			t.Errorf("constraint satisfied only with slack %v <= margin", diff)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	p, _ := swanProblem(t, 20, 91)
	stats := &Stats{}
	opts := DefaultOptions()
	opts.Stats = stats
	rng := rand.New(rand.NewSource(92))
	h, st, _ := Compile(p, opts.Stats).FindCandidate(context.Background(), opts, rng)
	if st != StatusSat {
		t.Fatalf("status = %v", st)
	}
	if stats.Samples.Load() == 0 && stats.Repairs.Load() == 0 {
		t.Error("no effort recorded")
	}
	// Warm-start hit: re-solve with the witness as hint.
	opts.Hints = [][]float64{h}
	if _, st, _ := Compile(p, opts.Stats).FindCandidate(context.Background(), opts, rng); st != StatusSat {
		t.Fatalf("hinted status = %v", st)
	}
	if stats.HintHits.Load() != 1 {
		t.Errorf("hint hits = %d, want 1", stats.HintHits.Load())
	}
	if s := stats.String(); !strings.Contains(s, "samples=") || !strings.Contains(s, "hint-hits=1") {
		t.Errorf("Stats.String = %q", s)
	}
}

// TestStatsCountersParallelRaceFree refutes an UNSAT problem on four
// prune workers, which bump the shared Stats atomics concurrently (run
// under -race by make race).
func TestStatsCountersParallelRaceFree(t *testing.T) {
	stats := &Stats{}
	opts := DefaultOptions()
	opts.Stats = stats
	opts.PruneWorkers = 4
	opts.MinBoxWidth = 1.0 / 32
	opts.MaxBoxes = 2_000_000
	if _, st, _ := Compile(contradictoryProblem(), opts.Stats).FindCandidate(context.Background(), opts, rand.New(rand.NewSource(94))); st != StatusUnsat {
		t.Fatalf("status = %v, want unsat", st)
	}
	if stats.Boxes.Load() == 0 || stats.BatchedEvals.Load() == 0 {
		t.Errorf("parallel effort not recorded: boxes=%d batched=%d", stats.Boxes.Load(), stats.BatchedEvals.Load())
	}
}
