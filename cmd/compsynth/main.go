// Command compsynth runs a comparative synthesis session for the SWAN
// traffic-engineering objective (the paper's case study).
//
// By default an oracle plays the user, answering from a hidden target
// function (the paper's evaluation methodology); pass -interactive to
// answer the preference queries yourself on the terminal.
//
// Usage:
//
//	compsynth [-seed N] [-init K] [-pairs P] [-interactive]
//	          [-target tp,l,s1,s2] [-sketch file] [-v]
//	          [-prune-workers N]
//	          [-save file] [-resume file] [-plot] [-dot file] [-explain]
//	          [-obs addr] [-trace file.jsonl]
//	          [-log DEST] [-log-level LVL] [-progress D]
//
// -prune-workers sizes the branch-and-prune engine's pool; its results
// are identical for any value, so the default (one worker per CPU) only
// ever needs lowering to keep the process off other tenants' cores.
//
// -obs serves live observability over HTTP while the session runs:
// Prometheus-text /metrics, expvar /debug/vars, pprof under
// /debug/pprof/, and the span trace at /trace. -trace writes the span
// trace as JSON Lines when the session ends. Neither affects the
// session's results: instrumentation reads clocks and counters only,
// never the random state.
//
// -log emits structured JSON session events (stderr, stdout, a file
// path, or "off"); -progress prints a live solver line to stderr every
// D (search/wave/frontier counts read from atomics). Like -obs and
// -trace, neither changes any result bit.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/expr"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
	"compsynth/internal/viz"
)

func main() {
	var (
		seed         = flag.Int64("seed", 1, "random seed (all randomness is derived from it)")
		initN        = flag.Int("init", 5, "number of initial random scenarios to rank (0 for none)")
		pairs        = flag.Int("pairs", 1, "scenario pairs ranked per iteration")
		interactive  = flag.Bool("interactive", false, "ask a human instead of the oracle")
		targetStr    = flag.String("target", "1,50,1,5", "oracle target: tp_thrsh,l_thrsh,slope1,slope2")
		verbose      = flag.Bool("v", false, "print per-iteration progress")
		save         = flag.String("save", "", "write the session transcript (JSON) to this file")
		resume       = flag.String("resume", "", "resume from a transcript written by -save")
		plot         = flag.Bool("plot", false, "render the learned objective as an ASCII heatmap")
		dot          = flag.String("dot", "", "write the preference graph (Graphviz DOT) to this file")
		sketchFile   = flag.String("sketch", "", "load a sketch spec file instead of the built-in SWAN sketch")
		explain      = flag.Bool("explain", false, "report how tightly each hole is pinned down")
		obsAddr      = flag.String("obs", "", "serve /metrics, /debug/vars, /debug/pprof and /trace on this address while running (e.g. 127.0.0.1:8090)")
		traceFile    = flag.String("trace", "", "write the synthesis span trace (JSON Lines) to this file")
		logDest      = flag.String("log", "", "structured JSON log destination: stderr, stdout, a file path, or off (default off)")
		logLevel     = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		progressTick = flag.Duration("progress", 0, "print a live solver progress line to stderr every D (e.g. 2s; 0 disables)")
		pruneWorkers = flag.Int("prune-workers", 0, "branch-and-prune worker count (0 means one per CPU; never changes results)")
		planner      = flag.String("planner", "on", "active query planner: on (default) plans rounds of maximally informative queries, off keeps the seed's first-distinguishing-pair behavior")
	)
	flag.Parse()

	opts := options{
		seed: *seed, initN: *initN, pairs: *pairs,
		interactive: *interactive, targetStr: *targetStr, verbose: *verbose,
		save: *save, resume: *resume, plot: *plot, dot: *dot,
		sketchFile: *sketchFile, explain: *explain,
		obsAddr: *obsAddr, traceFile: *traceFile,
		logDest: *logDest, logLevel: *logLevel, progressTick: *progressTick,
		pruneWorkers: *pruneWorkers, planner: *planner,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "compsynth:", err)
		os.Exit(1)
	}
}

// options carries every compsynth flag; one struct so run's signature
// survives new knobs.
type options struct {
	seed               int64
	initN, pairs       int
	interactive        bool
	targetStr          string
	verbose            bool
	save, resume       string
	plot               bool
	dot, sketchFile    string
	explain            bool
	obsAddr, traceFile string
	logDest, logLevel  string
	progressTick       time.Duration
	pruneWorkers       int
	planner            string
}

func run(o options) error {
	seed, initN, pairs := o.seed, o.initN, o.pairs
	plannerOff := false
	switch o.planner {
	case "", "on":
	case "off":
		plannerOff = true
	default:
		return fmt.Errorf("bad -planner %q (want on or off)", o.planner)
	}
	interactive, verbose := o.interactive, o.verbose
	targetStr, sketchFile := o.targetStr, o.sketchFile
	save, resume := o.save, o.resume
	plot, dot, explain := o.plot, o.dot, o.explain

	logger, closeLog, err := obs.OpenLogger(o.logDest, o.logLevel)
	if err != nil {
		return err
	}
	defer closeLog()

	// Observability edge: a registry when anything will scrape it, a
	// tracer when anyone will read spans (live /trace or a -trace dump),
	// a logger when -log asked for one.
	var observer *obs.Observer
	if o.obsAddr != "" || o.traceFile != "" || logger != nil {
		observer = &obs.Observer{Logger: logger}
		if o.obsAddr != "" || o.traceFile != "" {
			observer.Tracer = obs.NewTracer(0)
		}
		if o.obsAddr != "" {
			observer.Registry = obs.NewRegistry()
		}
	}
	if o.obsAddr != "" {
		srv, err := obs.ServeSidecar(o.obsAddr, observer, os.Stdout)
		if err != nil {
			return err
		}
		defer srv.Close()
	}
	if traceFile := o.traceFile; traceFile != "" {
		// Deferred so failed sessions dump their trace too — that is
		// when a trace is most useful.
		defer func() {
			f, err := os.Create(traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "compsynth: trace:", err)
				return
			}
			werr := observer.Tracer.WriteJSONL(f)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintln(os.Stderr, "compsynth: trace:", werr)
				return
			}
			fmt.Printf("span trace written to %s (%d spans, %d dropped)\n",
				traceFile, observer.Tracer.Len(), observer.Tracer.Dropped())
		}()
	}

	sk := sketch.SWAN()
	custom := false
	if sketchFile != "" {
		f, err := os.Open(sketchFile)
		if err != nil {
			return err
		}
		sk, err = sketch.ParseSpec(f)
		f.Close()
		if err != nil {
			return err
		}
		custom = true
		fmt.Printf("loaded sketch %q: metrics %v, holes %v\n", sk.Name(), sk.Space().Names(), sk.Holes())
	}

	var user oracle.Oracle
	var target *sketch.Candidate
	switch {
	case interactive:
		user = oracle.NewInteractive(sk.Space(), os.Stdin, os.Stdout)
		fmt.Println("You will be asked to compare pairs of outcomes.")
		fmt.Println("Answer 1, 2, or = per question.")
	case custom:
		// No named target parameters for arbitrary sketches: the oracle
		// plays a seeded random point of the hole box.
		rng := rand.New(rand.NewSource(seed + 1))
		holes := make([]float64, sk.NumHoles())
		for i := range holes {
			d := sk.Domain(i)
			holes[i] = d.Lo + rng.Float64()*d.Width()
		}
		var err error
		target, err = sk.Candidate(holes)
		if err != nil {
			return err
		}
		user = oracle.NewGroundTruth(target, 1e-9)
		fmt.Printf("oracle plays hidden random target %v\n", target)
	default:
		params, err := parseTarget(targetStr)
		if err != nil {
			return err
		}
		target, err = params.Candidate(sk)
		if err != nil {
			return err
		}
		user = oracle.NewGroundTruth(target, 1e-9)
		fmt.Printf("oracle plays hidden target %v\n", target)
	}

	if initN == 0 {
		initN = -1 // core convention: -1 means explicitly none
	}
	cfg := core.Config{
		Sketch:            sk,
		Oracle:            user,
		InitialScenarios:  initN,
		PairsPerIteration: pairs,
		Seed:              seed,
		Obs:               observer,
		DisablePlanner:    plannerOff,
	}
	if o.pruneWorkers > 0 {
		cfg.Solver = solver.DefaultOptions()
		cfg.Solver.PruneWorkers = o.pruneWorkers
	}
	if o.progressTick > 0 {
		prog := &solver.Progress{}
		cfg.Progress = prog
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			tick := time.NewTicker(o.progressTick)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					ps := prog.Snapshot()
					fmt.Fprintf(os.Stderr,
						"progress: searches=%d waves=%d depth=%d frontier=%d pruned=%d\n",
						ps.Searches, ps.Waves, ps.Depth, ps.Frontier, ps.BoxesPruned)
				}
			}
		}()
	}
	if interactive {
		// Humans deserve a progress pulse between questions.
		cfg.OnIteration = func(st core.IterationStat) {
			if st.Status == solver.StatusUnsat {
				fmt.Printf("  [iteration %d: candidates agree — confirming convergence]\n", st.Index)
			}
		}
	}
	synth, err := core.New(cfg)
	if err != nil {
		return err
	}
	if resume != "" {
		f, err := os.Open(resume)
		if err != nil {
			return err
		}
		tr, err := core.ReadTranscript(f)
		f.Close()
		if err != nil {
			return err
		}
		if err := synth.Preload(tr); err != nil {
			return err
		}
		fmt.Printf("resumed from %s: %d scenarios, %d preferences\n",
			resume, len(tr.Scenarios), len(tr.Preferences))
	}
	res, err := synth.Run()
	if err != nil {
		return err
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		if _, err := core.Export(res).WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("transcript written to %s\n", save)
	}

	if verbose {
		for _, st := range res.Stats {
			fmt.Printf("iteration %3d: status=%-8v queries=%d new-edges=%d synth=%v oracle=%v\n",
				st.Index, st.Status, st.Queries, st.NewEdges, st.SynthTime, st.OracleTime)
		}
		fmt.Println()
		fmt.Print(res.EffortReport())
	}
	fmt.Printf("\nconverged=%v after %d iterations (%d preference edges, %d scenarios)\n",
		res.Converged, res.Iterations, res.Graph.NumEdges(), res.Store.Len())
	fmt.Printf("total synthesis time: %v\n\n", res.TotalSynthTime)
	fmt.Println("synthesized objective function:")
	fmt.Print(expr.Pretty(res.Final.Concretize()))

	if target != nil {
		agree := core.Validate(res, oracle.NewGroundTruth(target, 1e-9),
			2000, rand.New(rand.NewSource(seed+99)))
		fmt.Printf("\nranking agreement with hidden target: %.1f%%\n", agree*100)
	}
	if plot {
		fmt.Println("\nlearned objective over the metric space:")
		fmt.Print(viz.CandidateHeatmap(res.Final, 64, 18))
		if target != nil {
			fmt.Println("\nbehavioral difference vs the hidden target:")
			fmt.Print(viz.DisagreementMap(res.Final.Eval, target.Eval, sk.Space(), 64, 18))
		}
	}
	if explain {
		ests, err := synth.Explain(16, rand.New(rand.NewSource(seed+7)))
		if err != nil {
			return err
		}
		fmt.Println("\nhow tightly each hole is pinned down:")
		fmt.Print(core.FormatEstimates(ests))
	}
	if dot != "" {
		label := func(id int) string {
			sc, ok := res.Store.Get(id)
			if !ok {
				return fmt.Sprintf("s%d", id)
			}
			return sk.Space().Format(sc)
		}
		if err := os.WriteFile(dot, []byte(res.Graph.DOT(label)), 0o644); err != nil {
			return err
		}
		fmt.Printf("preference graph written to %s\n", dot)
	}
	return nil
}

func parseTarget(s string) (sketch.SWANTargetParams, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return sketch.SWANTargetParams{}, fmt.Errorf("target needs 4 comma-separated values, got %q", s)
	}
	vals := make([]float64, 4)
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return sketch.SWANTargetParams{}, fmt.Errorf("bad target component %q: %v", p, err)
		}
		vals[i] = v
	}
	return sketch.SWANTargetParams{
		TpThrsh: vals[0], LThrsh: vals[1], Slope1: vals[2], Slope2: vals[3],
	}, nil
}
