package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTailLevel(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1_000_000, 0.999},
	} {
		if got := tailLevel(tc.n); got != tc.want {
			t.Errorf("tailLevel(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	for n := 0; n < 1000; n++ {
		if tailLevel(n) >= 0.99 {
			t.Fatalf("tailLevel(%d) = %v: p99 needs 1000 samples", n, tailLevel(n))
		}
	}
	if got := tailName(0.999); got != "p99.9" {
		t.Errorf("tailName(0.999) = %q", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := p99(xs[:999]); got != 0 {
		t.Errorf("p99 of 999 samples = %v, want 0 (refused)", got)
	}
	if got := p99(xs); got != 989.01 {
		t.Errorf("p99 of 0..999 = %v, want 989.01", got)
	}
}

// The -runs spread must be the one statistics.quantiles(xs, n=4)
// gives, since that is how the spread is judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || q1 != tc.want[0] || q2 != tc.want[1] || q3 != tc.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample should refuse")
	}
}

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {50, 60}}, 80},
		{"overlapping", [][2]int64{{10, 30}, {20, 40}}, 70},
		{"nested", [][2]int64{{10, 40}, {15, 25}}, 70},
		{"clipped at both ends", [][2]int64{{-10, 10}, {90, 120}}, 80},
		{"covers everything", [][2]int64{{0, 60}, {50, 100}}, 0},
		{"outside", [][2]int64{{200, 300}}, 100},
	} {
		if got := selfTime(0, 100, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// A replica push carries no request id: it belongs to the handler span
// of its own session that encloses it in time, and the replica
// member's handler span belongs to the push.
func TestLinkReplicaPushByContainment(t *testing.T) {
	const judge = "POST /v1/sessions/{id}/judgments"
	const records = "PUT /v1/replica/sessions/{id}/records"
	spans := []span{
		0: {Layer: layerClient, Name: judge, ReqID: "r1", Session: "s1", Start: 0, End: 100},
		1: {Layer: layerFleet, Name: judge, ReqID: "r1", Session: "s1", Start: 5, End: 95},
		2: {Layer: layerFleetOut, Name: judge, ReqID: "r1", Session: "s1", Start: 10, End: 90},
		3: {Layer: layerService, Name: judge, ReqID: "r1", Session: "s1", Start: 15, End: 85},
		4: {Layer: layerReplica, Name: records, Session: "s1", Start: 20, End: 40},
		5: {Layer: layerService, Name: records, Session: "s1", Start: 22, End: 38},
		// Another session's push at the same time must not attach to s1.
		6: {Layer: layerReplica, Name: records, Session: "s2", Start: 25, End: 45},
		// A later request of s1, and its push.
		7: {Layer: layerService, Name: judge, ReqID: "r2", Session: "s1", Start: 200, End: 300},
		8: {Layer: layerReplica, Name: records, Session: "s1", Start: 210, End: 220},
		// A push no handler encloses (anti-entropy resync) stays a root.
		9: {Layer: layerReplica, Name: records, Session: "s1", Start: 400, End: 410},
	}
	link(spans)
	want := []int{-1, 0, 1, 2, 3, 4, -1, -1, 7, -1}
	for i, p := range want {
		if spans[i].Parent != p {
			t.Errorf("span %d parent = %d, want %d", i, spans[i].Parent, p)
		}
	}
	if got := spans[3].Self; got != 50 {
		t.Errorf("owner handler self = %d, want 70-20 = 50", got)
	}
	if got := spans[4].Self; got != 4 {
		t.Errorf("push self = %d, want 20-16 = 4", got)
	}
}

func TestRouteName(t *testing.T) {
	for _, tc := range []struct{ method, path, name, session string }{
		{"GET", "/v1/sessions/p0-s01/queries", "GET /v1/sessions/{id}/queries", "p0-s01"},
		{"PUT", "/v1/replica/sessions/x/records", "PUT /v1/replica/sessions/{id}/records", "x"},
		{"POST", "/v1/sessions", "POST /v1/sessions", ""},
		{"GET", "/readyz", "GET /readyz", ""},
	} {
		name, session := routeName(tc.method, tc.path)
		if name != tc.name || session != tc.session {
			t.Errorf("routeName(%s %s) = %q %q", tc.method, tc.path, name, session)
		}
	}
}

func TestPhaseTracker(t *testing.T) {
	sc := func(v float64) []float64 { return []float64{v, v} }
	p := phaseTracker{limit: 3}
	rounds := []struct {
		pairs   [][2][]float64
		ranking bool
	}{
		{[][2][]float64{{sc(1), sc(0)}}, true},
		{[][2][]float64{{sc(2), sc(0)}}, true},
		{[][2][]float64{{sc(2), sc(1)}}, true},
		{[][2][]float64{{sc(7), sc(8)}}, false},
		// Once the solver phase starts it never ends.
		{[][2][]float64{{sc(0), sc(1)}}, false},
	}
	for i, r := range rounds {
		if got := p.ranking(r.pairs); got != r.ranking {
			t.Errorf("round %d: ranking = %v, want %v", i, got, r.ranking)
		}
	}
	q := phaseTracker{limit: 5}
	if q.ranking([][2][]float64{{sc(1), sc(2)}, {sc(3), sc(4)}}) {
		t.Error("a multi-query round is a planner round")
	}
}

// BENCHMARK.json and the code must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars)", i, w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts: json %d/%d, code %d/%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: json %+v, code %+v", i, m, c)
		}
	}
	for i, m := range spec.PerLayer {
		c := perLayer[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per_layer %d: json %+v, code %+v", i, m, c)
		}
	}
}

// A tiny run of every workload, untraced and traced: outputs pass their
// checks and every metric is reported.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{seed: 3, seconds: 0.01, trace: traced, short: true}
			ok, err := runInProcess(o, name, &out)
			if err != nil || !ok {
				t.Fatalf("%s traced=%v: ok=%v err=%v\n%s", name, traced, ok, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d metrics, attempted %d, failed %d", name, traced, len(res.Metrics), res.Attempted, res.Failed)
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s: metric %s missing or wrong unit", name, m.name)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

// The deterministic metrics must read the same whatever number of
// passes a run completed: float sums over repeated samples round
// differently.
func TestDeterministicMetricsIgnorePassCount(t *testing.T) {
	w := &workload{name: "swan-fleet"}
	rep := &checkReport{agreement: map[*sessionRun]float64{}}
	var one, nine runData
	for pass := 0; pass < 9; pass++ {
		for idx, a := range []float64{0.9985, 0.9965, 0.998, 0.9945, 0.9995} {
			r := &sessionRun{pass: pass, idx: idx, answers: 20 + idx}
			rep.agreement[r] = a
			nine.sessions = append(nine.sessions, r)
			if pass == 0 {
				one.sessions = append(one.sessions, r)
			}
		}
	}
	a, b := endToEndValues(w, &one, rep, 1), endToEndValues(w, &nine, rep, 1)
	for _, m := range []string{"queries_per_session", "agreement"} {
		if a[m] != b[m] {
			t.Errorf("%s: one pass %v, nine passes %v", m, a[m], b[m])
		}
	}
}

// The output checks must catch a transcript that differs from the
// reference, a session that failed where the reference did not, and an
// objective that ranks below the agreement floor.
func TestCheckCatchesViolations(t *testing.T) {
	w, err := newWorkload("table1-batch", true)
	if err != nil {
		t.Fatal(err)
	}
	good := &sessionRun{idx: 0, seed: w.pool[0], id: "s0"}
	driveStepper(good, nil, w.user, true)
	if rep := check(w, []*sessionRun{good}); rep.failed != 0 {
		t.Fatalf("an untouched session fails its checks: %v", rep.problems)
	}
	tampered := *good
	tampered.transcript = append([]byte(nil), good.transcript...)
	tampered.transcript[len(tampered.transcript)/2] ^= 1
	failed := *good
	failed.failed, failed.failure = true, "injected"
	wrong := *good
	wrong.idx = 1 // not checked against the reference, but still held to the floor
	wrong.final = []float64{0, 10, 0, 10}
	for name, r := range map[string]*sessionRun{"tampered": &tampered, "failed": &failed, "wrong objective": &wrong} {
		if rep := check(w, []*sessionRun{r}); rep.failed != 1 {
			t.Errorf("%s: check reported %d failures, want 1", name, rep.failed)
		}
	}
}
