package solver

import (
	"context"
	"math/rand"
	"testing"
)

func TestParallelFindCandidateFindsSolutions(t *testing.T) {
	p, _ := swanProblem(t, 25, 41)
	opts := DefaultOptions()
	opts.Workers = 4
	h, st, _ := Compile(p, opts.Stats).FindCandidate(context.Background(), opts, rand.New(rand.NewSource(42)))
	if st != StatusSat {
		t.Fatalf("status = %v", st)
	}
	if !Satisfies(p, h) {
		t.Error("parallel candidate violates constraints")
	}
}

func TestParallelDeterministicPerSeed(t *testing.T) {
	p, _ := swanProblem(t, 15, 43)
	opts := DefaultOptions()
	opts.Workers = 4
	run := func() []float64 {
		h, st, _ := Compile(p, opts.Stats).FindCandidate(context.Background(), opts, rand.New(rand.NewSource(7)))
		if st != StatusSat {
			t.Fatalf("status = %v", st)
		}
		return h
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallel search not deterministic: %v vs %v", a, b)
		}
	}
}

func TestParallelFindDiverse(t *testing.T) {
	p, _ := swanProblem(t, 5, 47)
	opts := DefaultOptions()
	opts.Workers = 4
	cands, _ := Compile(p, opts.Stats).FindDiverse(context.Background(), 6, opts, rand.New(rand.NewSource(48)))
	if len(cands) < 2 {
		t.Fatalf("parallel FindDiverse found %d candidates", len(cands))
	}
	for _, c := range cands {
		if !Satisfies(p, c) {
			t.Error("parallel diverse candidate violates constraints")
		}
	}
}

func TestParallelDistinguishing(t *testing.T) {
	p, _ := swanProblem(t, 4, 49)
	opts := DefaultOptions()
	opts.Workers = 4
	w, st, _ := Compile(p, opts.Stats).FindDistinguishing(context.Background(), opts, DefaultDistinguishOptions(), rand.New(rand.NewSource(50)))
	if st != StatusSat {
		t.Fatalf("status = %v", st)
	}
	validateWitness(t, p, w, DefaultDistinguishOptions().Gamma)
}

func TestSplitBudget(t *testing.T) {
	opts := Options{Budget: Budget{Samples: 10, RepairRestarts: 5, Workers: 3}}
	jobs := splitBudget(opts, rand.New(rand.NewSource(1)))
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	samples, repairs := 0, 0
	for _, j := range jobs {
		samples += j.samples
		repairs += j.repairs
	}
	if samples != 10 || repairs != 5 {
		t.Errorf("budget split lost work: %d samples, %d repairs", samples, repairs)
	}
	// Distinct per-worker seeds.
	if jobs[0].seed == jobs[1].seed {
		t.Error("workers share seeds")
	}
	// More workers than work: clamped.
	opts = Options{Budget: Budget{Samples: 1, RepairRestarts: 0, Workers: 8}}
	jobs = splitBudget(opts, rand.New(rand.NewSource(2)))
	if len(jobs) != 1 {
		t.Errorf("jobs = %d, want clamp to 1", len(jobs))
	}
	// Zero budget: one no-op worker, no panic.
	opts = Options{Budget: Budget{Workers: 4}}
	jobs = splitBudget(opts, rand.New(rand.NewSource(3)))
	if len(jobs) != 1 {
		t.Errorf("zero-budget jobs = %d", len(jobs))
	}
}

func TestSplitBudgetClampsWorkersToBudget(t *testing.T) {
	// Workers beyond Samples+RepairRestarts are dropped so the worker
	// count never exceeds the total budget.
	opts := Options{Budget: Budget{Samples: 4, RepairRestarts: 3, Workers: 10}}
	jobs := splitBudget(opts, rand.New(rand.NewSource(9)))
	if len(jobs) != 7 {
		t.Fatalf("jobs = %d, want clamp to Samples+RepairRestarts = 7", len(jobs))
	}
	samples, repairs := 0, 0
	for _, j := range jobs {
		samples += j.samples
		repairs += j.repairs
	}
	if samples != 4 || repairs != 3 {
		t.Errorf("clamped split lost work: %d samples, %d repairs", samples, repairs)
	}
	// Remainders pile onto the lowest-indexed workers, so trailing
	// workers may legitimately hold an empty budget even after the
	// clamp; they exist only to keep seed derivation uniform. Document
	// the exact shape for this configuration.
	wantSamples := []int{1, 1, 1, 1, 0, 0, 0}
	wantRepairs := []int{1, 1, 1, 0, 0, 0, 0}
	for w, j := range jobs {
		if j.samples != wantSamples[w] || j.repairs != wantRepairs[w] {
			t.Errorf("worker %d budget = (%d samples, %d repairs), want (%d, %d)",
				w, j.samples, j.repairs, wantSamples[w], wantRepairs[w])
		}
	}
	// Exactly at the budget: no clamp.
	opts = Options{Budget: Budget{Samples: 4, RepairRestarts: 3, Workers: 7}}
	if jobs := splitBudget(opts, rand.New(rand.NewSource(10))); len(jobs) != 7 {
		t.Errorf("jobs = %d, want 7 (no clamp at exact budget)", len(jobs))
	}
	// Negative/zero Workers floors at one.
	opts = Options{Budget: Budget{Samples: 4, RepairRestarts: 3, Workers: -2}}
	if jobs := splitBudget(opts, rand.New(rand.NewSource(11))); len(jobs) != 1 {
		t.Errorf("jobs = %d, want 1 for Workers <= 0", len(jobs))
	}
}

func TestParallelWitnessesRespectsMaxPerWorker(t *testing.T) {
	// Unconstrained problem: every sample is a witness, so each worker
	// stops at maxPerWorker.
	p, _ := swanProblem(t, 0, 51)
	opts := DefaultOptions()
	opts.Workers = 4
	ws, err := compileSystem(p, nil).parallelWitnesses(context.Background(), opts, rand.New(rand.NewSource(52)), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 || len(ws) > 4*3 {
		t.Errorf("witnesses = %d, want in (0, 12]", len(ws))
	}
}
