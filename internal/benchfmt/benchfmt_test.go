package benchfmt

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: compsynth/internal/solver
cpu: Test CPU @ 3.00GHz
BenchmarkViolation/problem-8         	   10000	    113601 ns/op	   46k extra	  12 B/op	       1 allocs/op
BenchmarkFindCandidateSystem-8       	     514	   2304027 ns/op	    2048 B/op	       6 allocs/op
BenchmarkThroughput-8                	    1000	      1050 ns/op	 952.38 MB/s
PASS
ok  	compsynth/internal/solver	5.123s
`

func TestParse(t *testing.T) {
	results, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3: %+v", len(results), results)
	}
	r := results[0]
	if r.Name != "BenchmarkViolation/problem-8" ||
		r.Iterations != 10000 || r.NsPerOp != 113601 ||
		r.BytesPerOp != 12 || r.AllocsPerOp != 1 {
		t.Errorf("first line parsed wrong: %+v", r)
	}
	r = results[1]
	if r.Name != "BenchmarkFindCandidateSystem-8" || r.AllocsPerOp != 6 || r.BytesPerOp != 2048 {
		t.Errorf("second line parsed wrong: %+v", r)
	}
	if results[2].MBPerSec != 952.38 {
		t.Errorf("MB/s parsed wrong: %+v", results[2])
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX-8",                  // short
		"BenchmarkX-8 abc 100 ns/op",    // bad count
		"BenchmarkX-8 100 xyz ns/op",    // bad value
		"BenchmarkX-8 100 5 B/op extra", // no ns/op anywhere
	} {
		if _, err := Parse(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("Parse accepted malformed line %q", bad)
		}
	}
}

func TestParseSkipsNoise(t *testing.T) {
	results, err := Parse(strings.NewReader("PASS\nok x 1s\n\n--- BENCH: foo\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Errorf("got %d results from noise, want 0", len(results))
	}
}

func TestParseExtraMetrics(t *testing.T) {
	const line = `BenchmarkIncrementalSynthesis/cache=on-1 	       3	 403000000 ns/op	     68670 boxes-explored/op	    404413 boxes-total/op	  120 B/op	       2 allocs/op
`
	results, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	r := results[0]
	if r.NsPerOp != 403000000 || r.BytesPerOp != 120 || r.AllocsPerOp != 2 {
		t.Errorf("standard units parsed wrong: %+v", r)
	}
	want := map[string]float64{"boxes-explored/op": 68670, "boxes-total/op": 404413}
	if len(r.Extra) != len(want) {
		t.Fatalf("Extra = %v, want %v", r.Extra, want)
	}
	for unit, v := range want {
		if r.Extra[unit] != v {
			t.Errorf("Extra[%q] = %v, want %v", unit, r.Extra[unit], v)
		}
	}
	// A custom unit with a non-numeric value is skipped, not fatal, and
	// must not materialize an Extra entry.
	const odd = "BenchmarkOdd-1 	 100	 50 ns/op	 n/a widgets/op\n"
	results, err = Parse(strings.NewReader(odd))
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Extra) != 0 {
		t.Errorf("non-numeric custom value leaked into Extra: %v", results[0].Extra)
	}
}

// TestFold folds the lines `go test -count N` prints for each benchmark
// into one entry of medians with the ns/op quartiles and N, and leaves
// a benchmark that ran once exactly as parsed.
func TestFold(t *testing.T) {
	var in strings.Builder
	for i := 10; i >= 1; i-- { // out of order: folding sorts
		fmt.Fprintf(&in, "BenchmarkRepair-2 \t %d\t %d ns/op\t 26.00 repaired/op\t 84000 B/op\t %d allocs/op\n", 100+i, 1000*i, 2450+i%2)
	}
	in.WriteString("BenchmarkOnce-2 \t 7\t 333 ns/op\t 8 B/op\t 1 allocs/op\n")
	in.WriteString("BenchmarkPair-2 \t 5\t 100 ns/op\t 3 boxes/op\n")
	in.WriteString("BenchmarkPair-2 \t 5\t 200 ns/op\t 5 boxes/op\n")
	results, err := Parse(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	folded := Fold(results)
	if len(folded) != 3 {
		t.Fatalf("folded into %d entries, want 3: %+v", len(folded), folded)
	}
	// Quartiles of 1000..10000 by Python's statistics.quantiles(n=4).
	r := folded[0]
	if r.Name != "BenchmarkRepair-2" || r.Runs != 10 || r.NsPerOp != 5500 || r.NsPerOpQ1 != 2750 || r.NsPerOpQ3 != 8250 ||
		r.Iterations != 106 || r.BytesPerOp != 84000 || r.AllocsPerOp != 2451 || r.Extra["repaired/op"] != 26 {
		t.Errorf("folded -count 10 entry = %+v", r)
	}
	if once := folded[1]; !reflect.DeepEqual(once, results[10]) {
		t.Errorf("single run changed by folding: %+v, parsed %+v", once, results[10])
	}
	// The exclusive method extrapolates two runs' quartiles past them,
	// as Python does: [75, 150, 225].
	if p := folded[2]; p.Runs != 2 || p.NsPerOp != 150 || p.NsPerOpQ1 != 75 || p.NsPerOpQ3 != 225 || p.Extra["boxes/op"] != 4 {
		t.Errorf("folded -count 2 entry = %+v", p)
	}
	// A single run's JSON keeps the fields it had before folding existed.
	buf, err := json.Marshal(folded[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"runs", "ns_per_op_q1", "ns_per_op_q3"} {
		if strings.Contains(string(buf), key) {
			t.Errorf("single-run JSON %s carries %q", buf, key)
		}
	}
}
