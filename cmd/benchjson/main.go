// Command benchjson runs the repository's benchmarks and archives the
// results as JSON (ns/op, B/op, allocs/op per benchmark), so perf can
// be tracked and diffed across commits without scraping text logs.
//
// Usage:
//
//	benchjson [-out BENCH_solver.json] [-bench regex] [-benchtime d]
//	          [-count N] [-commit HASH] [pkg ...]
//
// The output file is a history: each invocation appends a run keyed by
// the git commit (taken from `git rev-parse --short HEAD` unless
// -commit overrides it), and re-running on the same commit replaces
// that commit's entry instead of duplicating it. Legacy single-run
// files from older benchjson versions are migrated in place.
//
// With -count N above 1, each benchmark's N results are folded into one
// entry: the median ns/op with its quartiles and N (and the medians of
// the other values), so an archived row carries its own spread. At
// -count 1 every entry is one run, exactly as go test printed it.
//
// Without package arguments it covers the solver-adjacent hot-path
// packages. Invoked by `make bench-json`.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"compsynth/internal/benchfmt"
)

// defaultPackages are the hot-path packages whose benchmarks gate perf,
// plus the experiments package whose queries-to-convergence benchmark
// records the oracle-effort baseline cmd/effortgate diffs against.
var defaultPackages = []string{
	"./internal/solver/",
	"./internal/sketch/",
	"./internal/expr/",
	"./internal/experiments/",
}

func main() {
	var (
		out       = flag.String("out", "BENCH_solver.json", "output history file (appended to, keyed by commit)")
		benchRE   = flag.String("bench", ".", "benchmark name regex (go test -bench)")
		benchtime = flag.String("benchtime", "", "per-benchmark time or iteration budget (go test -benchtime)")
		count     = flag.Int("count", 1, "runs per benchmark (go test -count)")
		commit    = flag.String("commit", "", "commit hash keying this run (default: git rev-parse --short HEAD)")
	)
	flag.Parse()
	pkgs := flag.Args()
	if len(pkgs) == 0 {
		pkgs = defaultPackages
	}
	if err := run(*out, *benchRE, *benchtime, *commit, *count, pkgs); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// hostCaveats flags host conditions that taint this run's numbers so
// later readers of the archive don't diff them at face value.
func hostCaveats() []string {
	var cav []string
	if runtime.NumCPU() == 1 {
		cav = append(cav, "single-CPU host: parallel-speedup benchmarks (worker pools, batched prune waves) measure overhead, not scaling")
	}
	return cav
}

// gitCommit best-effort resolves the current short commit hash; empty
// outside a git checkout (the run then appends un-keyed).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

func run(out, benchRE, benchtime, commit string, count int, pkgs []string) error {
	args := []string{"test", "-run", "^$", "-bench", benchRE, "-benchmem",
		"-count", fmt.Sprint(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, pkgs...)

	cmd := exec.Command("go", args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchjson: go %v\n", args)
	if err := cmd.Run(); err != nil {
		// Benchmark output collected so far still helps diagnose.
		os.Stderr.Write(stdout.Bytes())
		return fmt.Errorf("go test: %w", err)
	}

	results, err := benchfmt.Parse(bytes.NewReader(stdout.Bytes()))
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results parsed (regex %q over %v)", benchRE, pkgs)
	}
	if count > 1 {
		results = benchfmt.Fold(results)
	}

	if commit == "" {
		commit = gitCommit()
	}
	history := &benchfmt.History{}
	if raw, err := os.ReadFile(out); err == nil {
		history, err = benchfmt.ReadHistory(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("existing archive %s: %w", out, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	history.Upsert(benchfmt.Run{
		Commit:     commit,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Caveats:    hostCaveats(),
		Bench:      benchRE,
		Packages:   pkgs,
		Results:    results,
	})

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	_, werr := history.WriteTo(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("benchjson: %d benchmarks -> %s (commit %q, %d runs in history)\n",
		len(results), out, commit, len(history.Runs))
	return nil
}
