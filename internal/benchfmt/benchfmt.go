// Package benchfmt parses the standard `go test -bench` text output
// into structured records, so benchmark results can be archived as
// JSON and diffed across commits (see cmd/benchjson and the
// `make bench-json` target).
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark line. Fields beyond NsPerOp are present only
// when the corresponding unit appeared (B/op and allocs/op require
// -benchmem; MB/s requires SetBytes).
type Result struct {
	// Name is the full benchmark name including the -GOMAXPROCS suffix,
	// e.g. "BenchmarkFindCandidateSystem-8".
	Name string `json:"name"`
	// Iterations is b.N for the measured run.
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MBPerSec    float64 `json:"mb_per_sec,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric units (anything beyond the four
	// standard ones), keyed by unit string — e.g. "boxes-explored/op".
	Extra map[string]float64 `json:"extra,omitempty"`
	// Runs is set on an entry Fold made from several runs of one
	// benchmark (go test -count N): every value above is then the median
	// over the Runs runs, and NsPerOpQ1 and NsPerOpQ3 are the lower and
	// upper quartiles of their ns/op. All three are zero on a single run.
	Runs      int     `json:"runs,omitempty"`
	NsPerOpQ1 float64 `json:"ns_per_op_q1,omitempty"`
	NsPerOpQ3 float64 `json:"ns_per_op_q3,omitempty"`
}

// Parse reads `go test -bench` output and returns the benchmark lines
// in order of appearance. Non-benchmark lines (PASS, ok, pkg headers)
// are skipped. A line that starts with "Benchmark" but does not parse
// is an error — silent drops would make a regression gate vacuous.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		res, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	// Minimum shape: Name N value ns/op
	if len(fields) < 4 {
		return Result{}, fmt.Errorf("benchfmt: short benchmark line %q", line)
	}
	var res Result
	res.Name = fields[0]
	n, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("benchfmt: bad iteration count in %q: %v", line, err)
	}
	res.Iterations = n
	// The rest is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		unit := fields[i+1]
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			switch unit {
			case "ns/op", "MB/s", "B/op", "allocs/op":
				return Result{}, fmt.Errorf("benchfmt: bad value %q in %q: %v", fields[i], line, err)
			default:
				// Unknown units (custom b.ReportMetric) may carry values
				// this parser has no business rejecting.
				continue
			}
		}
		switch unit {
		case "ns/op":
			res.NsPerOp = v
		case "MB/s":
			res.MBPerSec = v
		case "B/op":
			res.BytesPerOp = int64(v)
		case "allocs/op":
			res.AllocsPerOp = int64(v)
		default:
			// Custom b.ReportMetric units — the interesting ones for
			// domain benchmarks (e.g. boxes-explored/op).
			if res.Extra == nil {
				res.Extra = make(map[string]float64)
			}
			res.Extra[unit] = v
		}
	}
	if res.NsPerOp == 0 && !strings.Contains(line, "ns/op") {
		return Result{}, fmt.Errorf("benchfmt: no ns/op in benchmark line %q", line)
	}
	return res, nil
}

// Fold merges each run of consecutive results with the same name — the
// N lines `go test -count N` prints for one benchmark — into one entry
// holding the medians, the ns/op quartiles and N (see Result.Runs). A
// benchmark that ran once is returned as it was, so the output of a
// -count 1 run is unchanged.
func Fold(results []Result) []Result {
	var out []Result
	for i := 0; i < len(results); {
		j := i + 1
		for j < len(results) && results[j].Name == results[i].Name {
			j++
		}
		if j-i == 1 {
			out = append(out, results[i])
		} else {
			out = append(out, fold(results[i:j]))
		}
		i = j
	}
	return out
}

// fold merges several runs of one benchmark.
func fold(runs []Result) Result {
	n := len(runs)
	iters, ns, mbs := make([]float64, n), make([]float64, n), make([]float64, n)
	bytes, allocs := make([]float64, n), make([]float64, n)
	extra := make(map[string][]float64)
	for i, r := range runs {
		iters[i], ns[i], mbs[i] = float64(r.Iterations), r.NsPerOp, r.MBPerSec
		bytes[i], allocs[i] = float64(r.BytesPerOp), float64(r.AllocsPerOp)
		for unit, v := range r.Extra {
			extra[unit] = append(extra[unit], v)
		}
	}
	f := Result{
		Name:        runs[0].Name,
		Iterations:  int64(math.Round(median(iters))),
		MBPerSec:    median(mbs),
		BytesPerOp:  int64(math.Round(median(bytes))),
		AllocsPerOp: int64(math.Round(median(allocs))),
		Runs:        n,
	}
	f.NsPerOpQ1, f.NsPerOp, f.NsPerOpQ3 = quartiles(ns)
	for unit, xs := range extra {
		if f.Extra == nil {
			f.Extra = make(map[string]float64, len(extra))
		}
		f.Extra[unit] = median(xs)
	}
	return f
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

// quartiles returns the lower quartile, median and upper quartile of
// xs by the "exclusive" method of Python's statistics.quantiles(xs,
// n=4), the convention the end-to-end benchmark (bench/) judges
// run-to-run spread by. The median is the middle value, or the mean of
// the two middle values; a single value is all three.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n, m := len(s), len(s)+1
	if n == 1 {
		return s[0], s[0], s[0]
	}
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
