package service

// Golden test for a session that reaches branch-and-prune. The SWAN
// goldens in internal/core never prune (sampling always finds their
// witnesses), so this pins the prune engine's share of a real session:
// the bench/ multiregion-fleet spec (inline 2-region sketch, k=3,
// default budgets) at seed 6, whose searches explore 20,000 boxes and
// prune 4,027 of them. Its transcript and its deterministic solver
// counters must stay bit-identical across refactors of the evaluation
// and prune paths.
//
// Regenerate (only when an intentional behavior change is made) with:
//
//	go test ./internal/service/ -run TestGoldenMultiRegionPrune -update-golden

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden transcript files")

// twoRegionSpec is bench/'s multiregion-fleet sketch: sketch.MultiRegion(2)
// as an inline spec, 7 holes, nested regions with bonuses 2000 and 1000.
const twoRegionSpec = `sketch swan-2region
metric throughput 0 10
metric latency 0 200
hole tp_thrsh_1 0 10
hole l_thrsh_1 0 200
hole slope_1 0 10
hole tp_thrsh_2 0 10
hole l_thrsh_2 0 200
hole slope_2 0 10
hole slope_3 0 10
objective
if throughput >= ??tp_thrsh_1 && latency <= ??l_thrsh_1 then
    throughput - ??slope_1*throughput*latency + 2000
else
    if throughput >= ??tp_thrsh_2 && latency <= ??l_thrsh_2 then
        throughput - ??slope_2*throughput*latency + 1000
    else
        throughput - ??slope_3*throughput*latency
`

// twoRegionTarget is bench/'s ground truth for twoRegionSpec.
var twoRegionTarget = map[string]float64{
	"tp_thrsh_1": 2.5, "l_thrsh_1": 40, "slope_1": 1,
	"tp_thrsh_2": 1, "l_thrsh_2": 80, "slope_2": 2,
	"slope_3": 5,
}

func twoRegionUser(t testing.TB) oracle.Oracle {
	t.Helper()
	sk, err := sketch.ParseSpec(strings.NewReader(twoRegionSpec))
	if err != nil {
		t.Fatal(err)
	}
	holes := make([]float64, sk.NumHoles())
	for i, h := range sk.Holes() {
		holes[i] = twoRegionTarget[h]
	}
	c, err := sk.Candidate(holes)
	if err != nil {
		t.Fatal(err)
	}
	return oracle.NewGroundTruth(c, 1e-9)
}

func TestGoldenMultiRegionPrune(t *testing.T) {
	if testing.Short() {
		t.Skip("golden synthesis runs are not -short friendly")
	}
	spec := SessionSpec{Seed: 6, SpecText: twoRegionSpec, PairsPerIteration: 3}
	res, err := BatchRun(spec, twoRegionUser(t))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := core.Export(res).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_multiregion-seed6.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes); effort %+v", path, buf.Len(), *res.SolverEffort)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("transcript diverged from golden file %s (%d vs %d bytes)", path, buf.Len(), len(want))
	}

	// The deterministic counters. Steals and BatchedEvals depend on
	// scheduling and lane width, so they are not pinned.
	got := *res.SolverEffort
	got.Steals, got.BatchedEvals, got.ScalarEvals = 0, 0, 0
	wantEffort := solver.StatsSnapshot{
		Samples: 3340, Repairs: 216, Boxes: 20000, BoxesPruned: 4027,
		HintHits: 1, SpecCompiles: 0, SpecCacheHits: 0,
	}
	if got != wantEffort {
		t.Errorf("solver effort = %+v, want %+v", got, wantEffort)
	}
}

// BenchmarkMultiRegionSession runs the golden seed-6 2-region session
// (TestGoldenMultiRegionPrune: twoRegionSpec, k=3, default budgets)
// through BatchRun: a whole session whose searches reach
// branch-and-prune. Its deterministic companions, boxes/op (20,000),
// pruned/op (4,027) and queries/op, must not move when the time does.
func BenchmarkMultiRegionSession(b *testing.B) {
	spec := SessionSpec{Seed: 6, SpecText: twoRegionSpec, PairsPerIteration: 3}
	user := twoRegionUser(b)
	var res *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = BatchRun(spec, user); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.SolverEffort.Boxes), "boxes/op")
	b.ReportMetric(float64(res.SolverEffort.BoxesPruned), "pruned/op")
	b.ReportMetric(float64(res.Queries), "queries/op")
}
