package main

import (
	"math"
	"strings"
	"syscall"
)

// metricDef is one reported metric. Bounds live in BENCHMARK.json; the
// -runs mode reads them from there.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"round_ms.p50", "ms", "lower"},
	{"session_s.p50", "s", "lower"},
	{"sessions_per_s", "1/s", "higher"},
	{"queries_per_session", "count", "lower"},
	{"agreement", "ratio", "higher"},
	{"max_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's per-layer metrics. Shares (%) are a
// layer's self time over the client's total wait; a layer a workload
// does not run reads 0, and so does a p99 of fewer than 1000 samples.
var perLayer = []metricDef{
	{"client.self_pct", "%", "lower"},
	{"fleet.self_pct", "%", "lower"},
	{"fleet.self_ms.p50", "ms", "lower"},
	{"fleet.self_ms.p99", "ms", "lower"},
	{"fleet.member_calls_per_request", "count", "lower"},
	{"fleet.learned_calls_per_session", "count", "lower"},
	{"fleet.learned_ms.p50", "ms", "lower"},
	{"service.judge_pct", "%", "lower"},
	{"service.judge_ms.p50", "ms", "lower"},
	{"service.judge_ms.p99", "ms", "lower"},
	{"service.await_pct", "%", "lower"},
	{"service.await_ms.p50", "ms", "lower"},
	{"service.await_ms.p99", "ms", "lower"},
	{"service.replica_pct", "%", "lower"},
	{"service.replica_push_ms.p50", "ms", "lower"},
	{"service.replica_push_ms.p99", "ms", "lower"},
	{"service.replica_pushes_per_judgment", "count", "lower"},
	{"service.rejected_per_1k", "count", "lower"},
	{"service.journal_bytes_per_session", "B", "lower"},
	{"service.replayed_answers", "count", "lower"},
	{"service.replay_ms_per_answer", "ms", "lower"},
	{"service.checkpoint_speedup", "x", "higher"},
	{"core.step_ms.mean", "ms", "lower"},
	{"core.step_ms.p50", "ms", "lower"},
	{"core.step_ms.p99", "ms", "lower"},
	{"core.rounds_per_session", "count", "lower"},
	{"core.iterations_per_session", "count", "lower"},
	{"core.unsolved_frac", "ratio", "lower"},
	{"planner.queries_per_round", "count", "higher"},
	{"solver.samples_per_session", "count", "lower"},
	{"solver.repairs_per_session", "count", "lower"},
	{"solver.boxes_per_session", "count", "lower"},
	{"solver.boxes_pruned_per_session", "count", "higher"},
	{"solver.spec_cache_hit_ratio", "ratio", "higher"},
	{"expr.lane_evals_per_session", "count", "lower"},
	{"expr.batched_frac", "ratio", "higher"},
	{"oracle.compare_us.p50", "us", "lower"},
}

// maxRSSMB is the process's peak resident memory so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// timings pools the client-side samples of the sessions that were
// driven to a terminal state.
type timings struct {
	rounds, acks, sessions []float64
	terminal               []*sessionRun
}

func collect(d *runData) timings {
	var t timings
	for _, r := range d.sessions {
		if r.err != nil {
			continue
		}
		t.rounds = append(t.rounds, r.rounds...)
		t.acks = append(t.acks, r.acks...)
		t.sessions = append(t.sessions, r.seconds())
		t.terminal = append(t.terminal, r)
	}
	return t
}

func endToEndValues(w *workload, d *runData, rep *checkReport, rssMB float64) map[string]float64 {
	t := collect(d)
	// The deterministic metrics count each distinct session once, so they
	// read the same whatever number of passes a run completed.
	var queries, agree []float64
	seen := map[[2]int]bool{}
	for _, r := range t.terminal {
		if k := sessionKey(w, r); !seen[k] {
			seen[k] = true
			queries = append(queries, float64(r.answers))
			if a, ok := rep.agreement[r]; ok {
				agree = append(agree, a)
			}
		}
	}
	return map[string]float64{
		"setup_s":             median(d.setups),
		"round_ms.p50":        median(t.rounds),
		"session_s.p50":       median(t.sessions),
		"sessions_per_s":      ratio(float64(len(t.terminal)), d.loadWall),
		"queries_per_session": mean(queries),
		"agreement":           mean(agree),
		"max_rss_mb":          rssMB,
	}
}

// spanTotals aggregates the linked spans that lie on the client's path
// (descendants of a client call).
type spanTotals struct {
	clientTime float64 // ns the client waited on the system
	self       map[string]float64
	dur        map[string]float64
	count      map[string]int
	// selfMs holds every on-path span's self time (ms), allMs every
	// span's duration (ms) whether on the path or not.
	selfMs, allMs map[string][]float64
	// offPath counts spans no client call caused: health probes,
	// learned-tier warm and harvest.
	offPath map[string]int
	status  map[int]int // member handler statuses, all requests
	members int         // member handler spans, all requests
	oracle  []float64   // compare durations, µs
}

func totals(spans []span) spanTotals {
	t := spanTotals{self: map[string]float64{}, dur: map[string]float64{}, count: map[string]int{},
		selfMs: map[string][]float64{}, allMs: map[string][]float64{},
		offPath: map[string]int{}, status: map[int]int{}}
	root := func(i int) *span {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		switch s.Layer {
		case layerOracle:
			t.oracle = append(t.oracle, float64(s.dur())/1e3)
			continue
		case layerService:
			t.members++
			t.status[s.Status]++
		}
		rt := root(i)
		onPath := rt.Layer == layerClient || rt.Layer == layerCore
		key := s.Layer + " " + s.Name
		t.allMs[key] = append(t.allMs[key], float64(s.dur())/1e6)
		if !onPath {
			t.offPath[key]++
			continue
		}
		if s.Parent < 0 {
			t.clientTime += float64(s.dur())
		}
		t.self[key] += float64(s.Self)
		t.selfMs[key] = append(t.selfMs[key], float64(s.Self)/1e6)
		t.dur[key] += float64(s.dur())
		t.count[key]++
	}
	return t
}

// inLayer reports whether a "layer route" key belongs to layer and its
// route contains fragment.
func inLayer(key, layer, fragment string) bool {
	return strings.HasPrefix(key, layer+" ") && strings.Contains(key, fragment)
}

// spanSamples gathers a map's samples over the keys inLayer selects.
func spanSamples(m map[string][]float64, layer, fragment string) []float64 {
	var out []float64
	for k, xs := range m {
		if inLayer(k, layer, fragment) {
			out = append(out, xs...)
		}
	}
	return out
}

// layerSum sums a map over the keys inLayer selects.
func layerSum[T int | float64](m map[string]T, layer, fragment string) float64 {
	var v float64
	for k, x := range m {
		if inLayer(k, layer, fragment) {
			v += float64(x)
		}
	}
	return v
}

// p99 is the 99th percentile, or 0 when fewer than 1000 samples leave
// fewer than ten beyond it.
func p99(xs []float64) float64 {
	if tailLevel(len(xs)) < 0.99 {
		return 0
	}
	return percentile(xs, 0.99)
}

func perLayerValues(w *workload, d *runData, spans []span) map[string]float64 {
	t := totals(spans)
	terminal := collect(d).terminal
	n := float64(len(terminal))
	pct := func(ns float64) float64 { return 100 * ratio(ns, t.clientTime) }
	selfOf := func(layer, frag string) float64 { return layerSum(t.self, layer, frag) }
	cnt := func(layer, frag string) float64 { return layerSum(t.count, layer, frag) }

	var posted, rounds, iters, solverRounds, solverQueries float64
	var samples, repairs, boxes, pruned, compiles, hits, batched, scalar float64
	unsolved := 0.0
	for _, r := range terminal {
		posted += float64(r.posted)
		rounds += float64(r.allRounds)
		iters += float64(r.iterations)
		solverRounds += float64(r.solverRounds)
		solverQueries += float64(r.solverQueries)
		if r.failed {
			unsolved++
		}
		if e := r.effort; e != nil {
			samples += float64(e.Samples)
			repairs += float64(e.Repairs)
			boxes += float64(e.Boxes)
			pruned += float64(e.BoxesPruned)
			compiles += float64(e.SpecCompiles)
			hits += float64(e.SpecCacheHits)
			batched += float64(e.BatchedEvals)
			scalar += float64(e.ScalarEvals)
		}
	}
	rejected := t.status[429] + t.status[409] + t.status[503]
	const judgeRoute, awaitRoute = "POST /v1/sessions/{id}/judgments", "GET /v1/sessions/{id}/queries"
	fleetSelf := spanSamples(t.selfMs, layerFleet, "")
	judge := spanSamples(t.selfMs, layerService, judgeRoute)
	await := spanSamples(t.selfMs, layerService, awaitRoute)
	pushes := spanSamples(t.allMs, layerReplica, "/records")
	steps := t.allMs[layerCore+" NextBatch"]

	return map[string]float64{
		"client.self_pct":                     pct(selfOf(layerClient, "")),
		"fleet.self_pct":                      pct(selfOf(layerFleet, "")),
		"fleet.self_ms.p50":                   median0(fleetSelf),
		"fleet.self_ms.p99":                   p99(fleetSelf),
		"fleet.member_calls_per_request":      ratio(cnt(layerFleetOut, ""), cnt(layerFleet, "")),
		"fleet.learned_calls_per_session":     ratio(layerSum(t.offPath, layerFleetOut, "/learned"), n),
		"fleet.learned_ms.p50":                median0(spanSamples(t.allMs, layerFleetOut, "/learned")),
		"service.judge_pct":                   pct(selfOf(layerService, judgeRoute)),
		"service.judge_ms.p50":                median0(judge),
		"service.judge_ms.p99":                p99(judge),
		"service.await_pct":                   pct(selfOf(layerService, awaitRoute)),
		"service.await_ms.p50":                median0(await),
		"service.await_ms.p99":                p99(await),
		"service.replica_pct":                 pct(layerSum(t.dur, layerReplica, "")),
		"service.replica_push_ms.p50":         median0(pushes),
		"service.replica_push_ms.p99":         p99(pushes),
		"service.replica_pushes_per_judgment": ratio(cnt(layerReplica, "/records"), posted),
		"service.rejected_per_1k":             1000 * ratio(float64(rejected), float64(t.members)),
		"core.step_ms.mean":                   stepMeanMs(d, steps),
		"core.step_ms.p50":                    median0(steps),
		"core.step_ms.p99":                    p99(steps),
		"core.rounds_per_session":             ratio(rounds, n),
		"core.iterations_per_session":         ratio(iters, n),
		"core.unsolved_frac":                  ratio(unsolved, n),
		"planner.queries_per_round":           ratio(solverQueries, solverRounds),
		"solver.samples_per_session":          ratio(samples, n),
		"solver.repairs_per_session":          ratio(repairs, n),
		"solver.boxes_per_session":            ratio(boxes, n),
		"solver.boxes_pruned_per_session":     ratio(pruned, n),
		"solver.spec_cache_hit_ratio":         ratio(hits, hits+compiles),
		"expr.lane_evals_per_session":         ratio(batched+scalar, n),
		"expr.batched_frac":                   ratio(batched, batched+scalar),
		"oracle.compare_us.p50":               median(t.oracle),
		// restart only; 0 elsewhere.
		"service.journal_bytes_per_session": ratio(float64(d.journalBytes), float64(len(w.pool))),
		"service.replayed_answers":          float64(d.journalAnswers),
		"service.replay_ms_per_answer":      1000 * ratio(median0(d.crash), float64(d.journalAnswers)),
		"service.checkpoint_speedup":        ratio(median0(d.crash), median0(d.graceful)),
	}
}

// median0 is the median, or 0 for no samples.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// stepMeanMs is the mean synthesis step: the NextBatch spans (ms)
// in-process, the members' compsynthd_step_seconds histograms otherwise.
func stepMeanMs(d *runData, steps []float64) float64 {
	if len(steps) > 0 {
		return mean(steps)
	}
	var total, count float64
	for _, reg := range d.regs {
		h, ok := reg.Snapshot()["compsynthd_step_seconds"].(map[string]any)
		if !ok {
			continue
		}
		s, _ := h["sum"].(float64)
		c, _ := h["count"].(int64)
		total += s
		count += float64(c)
	}
	return 1000 * ratio(total, count)
}
