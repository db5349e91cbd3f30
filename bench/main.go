// Command bench is the end-to-end and per-layer benchmark of
// interactive synthesis sessions. It builds the system under test
// in-process (members, router, loopback listeners), drives sessions
// with closed-loop clients that judge every round with a hidden
// target, checks the outputs, and prints every metric with its unit.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME[,NAME...]] [-seed N] [-seconds S]
//	                  [-trace 0|1] [-spans FILE] [-runs N]
//
// With one workload and -runs 1 the workload runs in this process and
// the last line of output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. The metrics are the end-to-end ones, or with
// -trace 1 the per-layer ones from a traced run. Otherwise each
// workload runs in a fresh child process of its own; -runs N repeats
// every workload N times with seeds seed..seed+N-1, alternating the
// workload order, and prints each metric's median and quartiles. With
// -trace 1 the parent also runs each workload untraced and prints how
// far tracing moved every end-to-end metric. See README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workloads []string
	seed      int64
	seconds   float64
	trace     bool
	spans     string
	runs      int
	short     bool
}

func main() {
	var (
		workloadFlag = flag.String("workload", strings.Join(workloadNames, ","), "workloads to run, comma-separated")
		seed         = flag.Int64("seed", 1, "run seed: rotates the order clients take the session pool in")
		seconds      = flag.Float64("seconds", 20, "how long each run drives sessions (whole passes, so it may run over)")
		trace        = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		spans        = flag.String("spans", "", "span file for a traced run (default .bench_build/spans-WORKLOAD.jsonl)")
		runs         = flag.Int("runs", 1, "repeat every workload this many times in fresh processes")
		short        = flag.Bool("short", false, "tiny session pools (smoke test)")
	)
	flag.Parse()
	o := options{
		workloads: strings.Split(*workloadFlag, ","),
		seed:      *seed, seconds: *seconds, trace: *trace == 1,
		spans: *spans, runs: *runs, short: *short,
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if o.runs < 1 || o.seconds <= 0 {
		fail(fmt.Errorf("-runs must be ≥ 1 and -seconds > 0"))
	}
	for _, name := range o.workloads {
		if _, err := newWorkload(name, o.short); err != nil {
			fail(err)
		}
	}
	var ok bool
	var err error
	if len(o.workloads) == 1 && o.runs == 1 {
		ok, err = runInProcess(o, o.workloads[0], os.Stdout)
	} else {
		ok, err = runChildren(o)
	}
	if err != nil {
		fail(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// provenance describes the host and build a run measured.
func provenance(o options) string {
	commit := "unknown"
	git := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	// A directory that is not a repository must not borrow the commit of
	// one enclosing it.
	if wd, err := os.Getwd(); err == nil {
		git.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d seconds=%g trace=%v",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.seconds, o.trace)
}

// result is the final line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line a child prints for its parent just before the
// result: the transcript digest and the end-to-end metrics even in a
// traced run.
type summary struct {
	Workload string             `json:"workload"`
	Digest   string             `json:"digest"`
	EndToEnd map[string]float64 `json:"end_to_end"`
	// KernelMs is the reference kernel's time before the run.
	KernelMs float64 `json:"kernel_ms"`
}

const summaryPrefix = "summary: "

func runInProcess(o options, name string, out io.Writer) (bool, error) {
	w, err := newWorkload(name, o.short)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "bench: %s\n", provenance(o))
	fmt.Fprintf(out, "bench: workload %s: %s\n", w.name, w.size)
	fmt.Fprintf(out, "bench: why: %s\n", w.why)
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return false, err
	}
	defer removeAll(dir)
	env := &runEnv{seed: o.seed, seconds: o.seconds, dir: dir}
	if o.trace {
		env.rec = newRecorder()
	}
	kernel := hostSpeed(25)
	fmt.Fprintf(out, "bench: host speed: reference kernel %.4g ms\n", kernel*1e3)
	start := time.Now()
	d, err := w.run(w, env)
	if err != nil {
		return false, err
	}
	rss := maxRSSMB()
	fmt.Fprintf(out, "bench: %d sessions in %d passes, load %.1fs (run %.1fs)\n",
		len(d.sessions), passes(d), d.loadWall, time.Since(start).Seconds())
	printPasses(out, d)
	rep := check(w, d.sessions)
	e2e := endToEndValues(w, d, rep, rss)
	printEndToEnd(out, d, e2e)

	res := result{Correct: rep.failed == 0, Attempted: len(d.sessions), Failed: rep.failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	values := e2e
	if o.trace {
		spans := env.rec.snapshot()
		link(spans)
		printLayers(out, spans)
		values = perLayerValues(w, d, spans)
		defs = perLayer
		path := o.spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.name+".jsonl")
		}
		if err := writeSpans(path, spans); err != nil {
			return false, err
		}
		fmt.Fprintf(out, "bench: %d spans written to %s\n", len(spans), path)
		printValues(out, "per-layer", perLayer, values)
	}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	fmt.Fprintf(out, "checks: %d sessions, %d failed (failed_frac %.4g), %d unsolved as in their reference, digest %s\n",
		len(d.sessions), rep.failed, ratio(float64(rep.failed), float64(len(d.sessions))), rep.unsolved, rep.digest)
	for _, p := range rep.problems {
		fmt.Fprintln(out, "check FAILED:", p)
	}
	sum, _ := json.Marshal(summary{Workload: w.name, Digest: rep.digest, EndToEnd: e2e, KernelMs: kernel * 1e3})
	fmt.Fprintf(out, "%s%s\n", summaryPrefix, sum)
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res.Correct, nil
}

func passes(d *runData) int {
	n := 0
	for _, r := range d.sessions {
		n = max(n, r.pass+1)
	}
	return n
}

// printEndToEnd prints the end-to-end metrics, with each timing's
// highest reportable percentile and sample count next to its median.
func printEndToEnd(out io.Writer, d *runData, e2e map[string]float64) {
	t := collect(d)
	samples := map[string][]float64{
		"setup_s": d.setups, "round_ms.p50": t.rounds, "session_s.p50": t.sessions,
	}
	fmt.Fprintln(out, "end-to-end:")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-22s %14.6g %-6s%s\n", m.name, e2e[m.name], m.unit, tail(samples[m.name]))
	}
	// The judgment round trip is printed but not a bounded metric: it has
	// no serving layer to cross in-process, where it is a sub-microsecond
	// channel handoff dominated by scheduler noise.
	fmt.Fprintf(out, "  %-22s %14.6g %-6s%s\n", "(ack_ms.p50)", median(t.acks), "ms", tail(t.acks))
	if len(d.crash) > 0 {
		fmt.Fprintf(out, "  %-22s %14.6g %-6s  n=%d\n", "(recovery_s.crash)", median(d.crash), "s", len(d.crash))
		fmt.Fprintf(out, "  %-22s %14.6g %-6s  n=%d\n", "(recovery_s.graceful)", median(d.graceful), "s", len(d.graceful))
	}
}

// tail renders a sample's highest reportable percentile and its count.
func tail(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	s := ""
	if q := tailLevel(len(xs)); q > 0.5 {
		s = fmt.Sprintf("  %s %.6g", tailName(q), percentile(xs, q))
	}
	return s + fmt.Sprintf("  n=%d", len(xs))
}

// printPasses shows each pass's medians; passes run the same sessions,
// so their differences are the host's noise within the run.
func printPasses(out io.Writer, d *runData) {
	for p := 0; p < passes(d); p++ {
		pd := &runData{}
		for _, r := range d.sessions {
			if r.pass == p {
				pd.sessions = append(pd.sessions, r)
			}
		}
		t := collect(pd)
		fmt.Fprintf(out, "  pass %d: %d sessions, round_ms p50 %.4g, ack_ms p50 %.4g, session_s p50 %.4g\n",
			p, len(t.terminal), median(t.rounds), median(t.acks), median(t.sessions))
	}
}

func printValues(out io.Writer, title string, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(out, "%s:\n", title)
	for _, m := range defs {
		note := ""
		if strings.HasSuffix(m.name, ".p99") && values[m.name] == 0 {
			note = "  (not reported: layer not run, or under 1000 samples)"
		}
		fmt.Fprintf(out, "  %-38s %14.6g %s%s\n", m.name, values[m.name], m.unit, note)
	}
}

// printLayers prints every span kind's self time: the span minus the
// union of its children.
func printLayers(out io.Writer, spans []span) {
	type agg struct {
		self []float64
		dur  float64
	}
	kinds := map[string]*agg{}
	var total float64
	for i := range spans {
		s := &spans[i]
		k := s.Layer + " " + s.Name
		if kinds[k] == nil {
			kinds[k] = &agg{}
		}
		kinds[k].self = append(kinds[k].self, float64(s.Self)/1e6)
		kinds[k].dur += float64(s.dur()) / 1e6
		if s.Parent < 0 && (s.Layer == layerClient || s.Layer == layerCore) {
			total += float64(s.dur()) / 1e6
		}
	}
	keys := make([]string, 0, len(kinds))
	for k := range kinds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "self time by layer (ms; share of the client's %.0f ms wait):\n", total)
	fmt.Fprintf(out, "  %-52s %8s %10s %18s %12s %7s\n", "layer route", "n", "self p50", "self tail", "self total", "share")
	for _, k := range keys {
		a := kinds[k]
		tail := ""
		if q := tailLevel(len(a.self)); q > 0.5 {
			tail = fmt.Sprintf("%s %.4g", tailName(q), percentile(a.self, q))
		}
		fmt.Fprintf(out, "  %-52s %8d %10.4g %18s %12.1f %6.1f%%\n",
			k, len(a.self), median(a.self), tail, sum(a.self), 100*ratio(sum(a.self), total))
	}
}

// childResult is what the parent reads back from one child run.
type childResult struct {
	workload string
	seed     int64
	traced   bool
	result   result
	summary  summary
}

func runChildren(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	fmt.Printf("bench: %s runs=%d\n", provenance(o), o.runs)
	var all []childResult
	ok := true
	for r := 0; r < o.runs; r++ {
		order := append([]string(nil), o.workloads...)
		if r%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			modes := []bool{false}
			if o.trace {
				modes = []bool{false, true}
			}
			for _, traced := range modes {
				cr, err := runChild(self, o, name, o.seed+int64(r), traced)
				if err != nil {
					return false, err
				}
				ok = ok && cr.result.Correct
				all = append(all, cr)
			}
		}
	}
	report(o, all)
	attempted, failed := 0, 0
	for _, cr := range all {
		attempted += cr.result.Attempted
		failed += cr.result.Failed
	}
	line, _ := json.Marshal(map[string]any{"correct": ok, "attempted": attempted, "failed": failed})
	fmt.Println(string(line))
	return ok, nil
}

func runChild(self string, o options, name string, seed int64, traced bool) (childResult, error) {
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		if o.spans != "" {
			args = append(args, "-spans", o.spans)
		}
	}
	if o.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(self, args...)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	cr := childResult{workload: name, seed: seed, traced: traced}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var last string
	for sc.Scan() {
		line := sc.Text()
		if s, found := strings.CutPrefix(line, summaryPrefix); found {
			if err := json.Unmarshal([]byte(s), &cr.summary); err != nil {
				return cr, fmt.Errorf("%s: summary line: %w", name, err)
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.result); err != nil {
		return cr, fmt.Errorf("%s (seed %d): no result line (%v)", name, seed, runErr)
	}
	return cr, nil
}
