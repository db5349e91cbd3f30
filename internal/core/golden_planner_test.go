package core_test

// Golden test for the active query planner path. Where golden_test.go
// pins the planner-OFF transcripts bit-identical to the pre-planner
// seed files, this file pins the planner-ON path: it too must be a pure
// function of (config, seed), and — like every other solver knob — the
// prune-worker pool size must not leak into which queries the planner
// asks.
//
// Regenerate (only when an intentional planner behavior change is made)
// with:
//
//	go test ./internal/core/ -run TestGoldenTranscriptPlanner -update-golden

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"compsynth/internal/core"
)

// plannerGoldenCfg is the default-seq golden case with the planner
// turned back on (the package default).
func plannerGoldenCfg() core.Config {
	cfg := goldenCases()[0].cfg
	cfg.DisablePlanner = false
	return cfg
}

func plannerTranscript(t *testing.T, cfg core.Config) []byte {
	t.Helper()
	synth, err := core.New(cfg)
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
	return buf.Bytes()
}

func TestGoldenTranscriptPlanner(t *testing.T) {
	if testing.Short() {
		t.Skip("golden synthesis runs are not -short friendly")
	}
	got := plannerTranscript(t, plannerGoldenCfg())
	path := filepath.Join("testdata", "golden_planner-seq.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("planner transcript diverged from golden file %s\n"+
			"the planner path is no longer bit-deterministic for fixed seeds;\n"+
			"got %d bytes, want %d bytes", path, len(got), len(want))
	}
}

// TestGoldenPlannerSolverKnobInvariance crosses the planner with the
// solver's result-invariant execution knob: the planner consumes
// candidate pools and score matrices whose contents are pinned per
// (seed, Workers), so PruneWorkers must not change which queries it
// plans.
func TestGoldenPlannerSolverKnobInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden synthesis runs are not -short friendly")
	}
	base := plannerGoldenCfg()
	want := plannerTranscript(t, base)
	for _, pruneWorkers := range []int{1, 2, 3} {
		cfg := base
		cfg.Solver.PruneWorkers = pruneWorkers
		if got := plannerTranscript(t, cfg); !bytes.Equal(got, want) {
			t.Errorf("PruneWorkers=%d planner transcript diverged (%d vs %d bytes)",
				pruneWorkers, len(got), len(want))
		}
	}
}
