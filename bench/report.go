package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory (the repository root).
func loadBounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	out := map[string]float64{}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// report prints, per workload, every metric's median and quartiles over
// the runs, flags end-to-end metrics whose spread exceeds their bound,
// and (traced runs) how much tracing moved the end-to-end metrics.
func report(o options, all []childResult) {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Printf("bench: no bounds to compare spreads with: %v\n", err)
	}
	for _, name := range o.workloads {
		var plain, traced []childResult
		for _, cr := range all {
			if cr.workload != name {
				continue
			}
			if cr.traced {
				traced = append(traced, cr)
			} else {
				plain = append(plain, cr)
			}
		}
		fmt.Printf("\n== %s: %d runs ==\n", name, len(plain))
		digests := map[string]bool{}
		for _, cr := range plain {
			digests[cr.summary.Digest] = true
		}
		fmt.Printf("transcript digests: %s\n", strings.Join(sortedKeys(digests), " "))
		var kernel []float64
		for _, cr := range plain {
			kernel = append(kernel, cr.summary.KernelMs)
		}
		if q1, q2, q3, ok := quartiles(kernel); ok {
			fmt.Printf("host speed (reference kernel, ms): median %.4g, q1 %.4g, q3 %.4g, spread %.1f%%\n",
				q2, q1, q3, 100*ratio(q3-q1, q2))
		}
		fmt.Printf("  %-38s %12s %12s %12s %8s %6s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range endToEnd {
			vals := values(plain, m.name, false)
			bound, has := bounds[m.name]
			printRow(m, vals, bound, has)
		}
		if len(traced) == 0 {
			continue
		}
		fmt.Printf("per-layer (%d traced runs):\n", len(traced))
		for _, m := range perLayer {
			printRow(m, values(traced, m.name, false), 0, false)
		}
		fmt.Printf("tracing overhead (traced median − untraced median):\n")
		for _, m := range endToEnd {
			u, t := median(values(plain, m.name, false)), median(values(traced, m.name, true))
			fmt.Printf("  %-22s untraced %12.6g traced %12.6g  %+7.1f%%\n", m.name, u, t, 100*ratio(t-u, u))
		}
	}
}

func printRow(m metricDef, vals []float64, bound float64, hasBound bool) {
	q1, q2, q3, ok := quartiles(vals)
	if !ok {
		if len(vals) == 1 {
			fmt.Printf("  %-38s %12.6g\n", m.name, vals[0])
		}
		return
	}
	spread := ratio(q3-q1, math.Abs(q2))
	flag, b := "", ""
	if hasBound {
		b = fmt.Sprintf("%.2f", bound)
		if spread > bound {
			flag = "  SPREAD EXCEEDS BOUND"
		}
	}
	fmt.Printf("  %-38s %12.6g %12.6g %12.6g %7.1f%% %6s%s\n", m.name, q2, q1, q3, 100*spread, b, flag)
}

// values gathers one metric across runs: from the result line, or with
// fromSummary from the end-to-end values a traced child reports aside.
func values(crs []childResult, name string, fromSummary bool) []float64 {
	var out []float64
	for _, cr := range crs {
		if fromSummary {
			if v, ok := cr.summary.EndToEnd[name]; ok {
				out = append(out, v)
			}
			continue
		}
		if v, ok := cr.result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
