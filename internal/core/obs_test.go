package core

import (
	"strings"
	"testing"

	"compsynth/internal/obs"
)

// TestEffortAccounting checks the always-on effort ledger: queries and
// oracle time accumulate on the Result without any Observer attached.
func TestEffortAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis run")
	}
	cfg := fastConfig(t, 21)
	synth, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries <= 0 {
		t.Errorf("Queries = %d, want > 0", res.Queries)
	}
	loopQueries := 0
	for _, st := range res.Stats {
		loopQueries += st.Queries
	}
	if res.Queries < loopQueries {
		t.Errorf("Queries = %d < sum of per-iteration queries %d", res.Queries, loopQueries)
	}
	if res.OracleTime < 0 {
		t.Errorf("OracleTime = %v, want >= 0", res.OracleTime)
	}
	report := res.EffortReport()
	for _, want := range []string{"effort:", "time:", "queries="} {
		if !strings.Contains(report, want) {
			t.Errorf("EffortReport missing %q:\n%s", want, report)
		}
	}
	if res.SolverEffort != nil && cfg.Solver.Stats == nil {
		t.Error("SolverEffort set without Stats configured")
	}
}

// TestObserverWiring attaches a full Observer and checks that loop and
// solver metrics all land in the registry, that the solver
// snapshot reaches the Result, and that the tracer saw the loop's span
// vocabulary.
func TestObserverWiring(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis run")
	}
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 16)
	cfg := fastConfig(t, 22)
	cfg.Obs = &obs.Observer{Registry: reg, Tracer: tr}
	synth, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}

	if res.SolverEffort == nil {
		t.Fatal("SolverEffort nil despite attached registry (Stats should be auto-created)")
	}
	if res.SolverEffort.Samples == 0 {
		t.Error("SolverEffort.Samples = 0, want > 0")
	}

	snap := reg.Snapshot()
	wantPositive := []string{
		"compsynth_core_sessions_total",
		"compsynth_core_iterations_total",
		"compsynth_core_queries_total",
		"compsynth_core_edges_total",
		"compsynth_solver_distinguish_searches_total",
		"compsynth_solver_samples_total",
	}
	num := func(v any) (float64, bool) {
		switch x := v.(type) {
		case int64: // value counters
			return float64(x), true
		case float64: // gauges and func-metrics
			return x, true
		}
		return 0, false
	}
	for _, name := range wantPositive {
		v, ok := num(snap[name])
		if !ok {
			t.Errorf("metric %s missing from snapshot (got %T)", name, snap[name])
			continue
		}
		if v <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, v)
		}
	}
	if got, _ := num(snap["compsynth_core_queries_total"]); got != float64(res.Queries) {
		t.Errorf("queries: Result says %d, registry says %v",
			res.Queries, snap["compsynth_core_queries_total"])
	}

	seen := map[string]bool{}
	for _, sp := range tr.Spans() {
		seen[sp.Name] = true
	}
	for _, name := range []string{"init", "oracle", "iteration", "solve", "edge-insert", "finish"} {
		if !seen[name] {
			t.Errorf("tracer never recorded a %q span (saw %v)", name, keys(seen))
		}
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
