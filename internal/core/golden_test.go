package core_test

// Determinism regression tests: a synthesis session with a fixed seed
// must produce a bit-identical transcript across refactors of the evaluation pipeline. The golden files were
// generated with the pre-compilation (map/AST-walking) solver path and
// pin the exact behavior the compiled constraint system must preserve.
//
// Regenerate (only when an intentional behavior change is made) with:
//
//	go test ./internal/core/ -run TestGoldenTranscript -update-golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden transcript files")

// goldenCases enumerates the pinned configurations: single-pair and
// two-pair rounds.
//
// Every case sets DisablePlanner: the golden files pin the pre-planner
// seed behavior, and the active query planner intentionally changes
// which queries are asked. This is the planner-off kill-switch
// guarantee: with the switch thrown, transcripts stay bit-identical to
// the seed across planner releases. The planner-on path has its own
// golden (TestGoldenTranscriptPlanner).
func goldenCases() []struct {
	name string
	cfg  core.Config
} {
	fastSolver := func() solver.Options {
		opts := solver.DefaultOptions()
		opts.Samples = 150
		opts.RepairRestarts = 5
		opts.RepairSteps = 60
		return opts
	}
	fastDistinguish := func() solver.DistinguishOptions {
		dopts := solver.DefaultDistinguishOptions()
		dopts.Candidates = 6
		dopts.PairSamples = 250
		dopts.Gamma = 2
		return dopts
	}
	target := func(t sketch.SWANTargetParams) *sketch.Candidate {
		cand, err := t.Candidate(sketch.SWAN())
		if err != nil {
			panic(err)
		}
		return cand
	}
	return []struct {
		name string
		cfg  core.Config
	}{
		{
			name: "default-seq",
			cfg: core.Config{
				Sketch:         sketch.SWAN(),
				Oracle:         oracle.NewGroundTruth(target(sketch.DefaultSWANTarget), 1e-9),
				Solver:         fastSolver(),
				Distinguish:    fastDistinguish(),
				DisablePlanner: true,
				Seed:           11,
			},
		},
		{
			name: "pairs2-seq",
			cfg: core.Config{
				Sketch:            sketch.SWAN(),
				Oracle:            oracle.NewGroundTruth(target(sketch.SWANTargetParams{TpThrsh: 4, LThrsh: 80, Slope1: 2, Slope2: 6}), 1e-9),
				Solver:            fastSolver(),
				Distinguish:       fastDistinguish(),
				PairsPerIteration: 2,
				DisablePlanner:    true,
				Seed:              13,
			},
		},
	}
}

func TestGoldenTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("golden synthesis runs are not -short friendly")
	}
	for _, tc := range goldenCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			synth, err := core.New(tc.cfg)
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
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("transcript for %s diverged from golden file %s\n"+
					"the synthesis pipeline is no longer bit-deterministic for fixed seeds;\n"+
					"got %d bytes, want %d bytes", tc.name, path, buf.Len(), len(want))
			}
		})
	}
}

// TestGoldenRerunStable guards the guard: two in-process runs of the
// same config must already agree, independent of the golden files.
func TestGoldenRerunStable(t *testing.T) {
	if testing.Short() {
		t.Skip("golden synthesis runs are not -short friendly")
	}
	tc := goldenCases()[1] // pairs2-seq: multi-pair rounds
	run := func() []byte {
		synth, err := core.New(tc.cfg)
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
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Error("same config + seed produced different transcripts in one process")
	}
}

// TestGoldenPruneWorkerInvariance pins the parallel prune engine's
// central contract at the session level: PruneWorkers sizes a pool over
// a wave of boxes whose merge is order-independent, so the whole
// transcript must be bit-identical for every PruneWorkers value.
func TestGoldenPruneWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("golden synthesis runs are not -short friendly")
	}
	base := goldenCases()[0] // default-seq
	run := func(pruneWorkers int) []byte {
		cfg := base.cfg
		cfg.Solver.PruneWorkers = pruneWorkers
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
	want := run(1)
	for _, workers := range []int{2, 8} {
		if got := run(workers); !bytes.Equal(got, want) {
			t.Errorf("PruneWorkers=%d transcript diverged from PruneWorkers=1 (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}
