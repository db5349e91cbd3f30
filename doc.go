// Package compsynth is a Go reproduction of "Learning Network Design
// Objectives Using A Program Synthesis Approach" (Wang, Jiang, Qiu,
// Rao — HotNets '19): comparative synthesis of objective functions from
// preference comparisons, together with the network substrates the
// paper's evaluation and applications rely on. Everything is built on
// the Go standard library; see DESIGN.md for the design rationale (its
// §2 inventory table is the authoritative version of the tour below)
// and ARCHITECTURE.md for the component diagram.
//
// # The synthesis pipeline
//
// The paper's loop — show the user pairs of outcome scenarios, record
// which they prefer, and search a sketch's hole space for an objective
// function consistent with every recorded preference — maps onto a
// straight pipeline of packages, each depending only on the ones
// before it:
//
//   - internal/expr — the expression DSL objective functions are
//     written in: AST, parser, printer, pointwise and interval
//     evaluation, holes, and a compiler that lowers an expression to a
//     packed instruction tape run in register form over lanes of
//     scenarios, hole vectors or a hole box, so the solver's hot path
//     never walks an AST.
//   - internal/interval — closed-interval arithmetic over float64, the
//     sound over-approximation the branch-and-prune refutations rest
//     on.
//   - internal/scenario — metric vectors ("scenarios"), bounded metric
//     spaces, dedup stores, and random generation.
//   - internal/sketch — sketches: an expr body plus bounded hole
//     domains. Includes the paper's SWAN sketch and the multi-region
//     generalization.
//   - internal/prefgraph — the preference DAG G of the paper's §4.2:
//     cycle detection, reachability, consistency checks, DOT export.
//   - internal/oracle — user models answering "which scenario do you
//     prefer?": ground-truth (evaluates the hidden target objective),
//     noisy, indecisive, counting, and interactive (io.Reader-backed).
//   - internal/solver — the Z3 substitute: quantifier-free nonlinear
//     real arithmetic over bounded boxes via random sampling,
//     hinge-loss repair descent, and an interval branch-and-prune
//     engine (parallel work-stealing waves with a deterministic
//     frontier-order merge). Hosts the compiled constraint System,
//     the context-first Search API and the distinguishing-query
//     search.
//   - internal/core — the comparative synthesizer, the paper's
//     contribution: initial ranking, distinguishing queries,
//     convergence detection (two consecutive UNSAT verdicts),
//     transcripts for bit-exact replay, and the Stepper, which inverts
//     the oracle callback into a pull API for serving layers.
//
// # Serving, observability, and tooling
//
//   - internal/service — the stateful serving layer behind
//     cmd/compsynthd: session state machine, bounded worker pool,
//     fsynced JSONL journal (create / import checkpoint / answer /
//     final records), recovery by exact answer replay, idle eviction,
//     graceful shutdown.
//   - internal/obs — the observability substrate: metrics registry
//     (counters, gauges, histograms, read-through func metrics), span
//     tracer with a JSONL ring buffer, and the HTTP endpoint serving
//     Prometheus-format /metrics, expvar, pprof, and /trace.
//   - internal/benchfmt — parses `go test -bench` output (including
//     custom b.ReportMetric units) and maintains the commit-keyed
//     BENCH_solver.json history written by `make bench-json`.
//
// # Application substrates
//
//   - internal/lp, internal/topo, internal/te — dense two-phase
//     simplex, network topologies with k-shortest paths, and the
//     SWAN-style traffic-engineering allocators (max-throughput with
//     latency penalty, max-min fairness, balanced schemes) that the
//     learned objectives rank.
//   - internal/abr, internal/homenet — the paper's §6.2 applications:
//     ABR video-streaming QoE simulation and home-network bandwidth
//     allocation.
//   - internal/stats, internal/viz, internal/experiments — summary
//     statistics (the paper reports SIQR), terminal heatmaps, and the
//     harness regenerating Table 1 and Figures 3–5.
//
// # Entry points
//
// cmd/compsynth runs a synthesis session (oracle-driven or
// interactive); cmd/compsynthd serves sessions over HTTP/JSON with
// durable journals; cmd/experiments regenerates the paper artifacts;
// cmd/tedemo shows objective-driven design selection; cmd/benchjson
// archives benchmark runs; cmd/doclint gates the documentation set.
// The runnable programs under examples/ are the guided tour — start
// with examples/quickstart. The benchmarks in bench_test.go regenerate
// one paper artifact each; see EXPERIMENTS.md for measured-vs-paper
// numbers and how to read them on this repository's 1-CPU reference
// hardware.
package compsynth
