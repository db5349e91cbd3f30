package solver

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// signedZeroSketch is a two-metric sketch whose value depends on the
// sign of a zero metric (??a / x), so a system that confused the
// scenarios (−0, y) and (+0, y) would score them identically and
// disagree with the reference.
func signedZeroSketch() *sketch.Sketch {
	space := scenario.MustNewSpace([]string{"x", "y"},
		[]interval.Interval{interval.New(-1, 1), interval.New(-1, 1)})
	body := expr.MustParse(`if y >= ??c then ??a / x + ??b * y else ??b - x * ??a`)
	return sketch.MustNew("signed-zero", body, space, map[string]interval.Interval{
		"a": interval.New(0.5, 2),
		"b": interval.New(-1, 1),
		"c": interval.New(-1, 1),
	})
}

// checkPointChecks compares the system's point checks on every hole
// vector with the Problem reference: Violation bit for bit against
// violation, Satisfies against Satisfies(Problem), and SatisfiedMask
// against one Sketch.Eval per constraint side. It reports through
// t.Errorf only, so several goroutines may run it at once.
func checkPointChecks(t *testing.T, step string, sys *System, p Problem, holes [][]float64) {
	var mask []bool
	for _, h := range holes {
		if got, want := sys.Violation(h), violation(p, h); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Violation(%v) = %v (%#x), reference %v (%#x)",
				step, h, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := sys.Satisfies(h), Satisfies(p, h); got != want {
			t.Errorf("%s: Satisfies(%v) = %v, reference %v", step, h, got, want)
		}
		mask = sys.SatisfiedMask(h, mask)
		if len(mask) != len(p.Prefs) {
			t.Errorf("%s: SatisfiedMask(%v) has %d entries, want %d", step, h, len(mask), len(p.Prefs))
			continue
		}
		for i, c := range p.Prefs {
			want := p.Sketch.Eval(c.Better, h)-p.Sketch.Eval(c.Worse, h) > p.Margin
			if mask[i] != want {
				t.Errorf("%s: SatisfiedMask(%v)[%d] = %v, reference %v", step, h, i, mask[i], want)
			}
		}
	}
}

// TestSystemPointChecks drives every constraint mutation over a
// constraint set where one scenario is shared by several edges and two
// scenarios differ only in the sign of a zero, checking the point
// checks against the Problem reference after each step — first from
// one goroutine, then from four at once.
func TestSystemPointChecks(t *testing.T) {
	sk := signedZeroSketch()
	negZero := math.Copysign(0, -1)
	var (
		shared = scenario.Scenario{0.25, 0.5}
		posZ   = scenario.Scenario{0, 0.75}
		negZ   = scenario.Scenario{negZero, 0.75}
		u      = scenario.Scenario{-0.5, 0.25}
		v      = scenario.Scenario{0.75, -0.5}
		w      = scenario.Scenario{-0.25, -0.75}
	)
	const margin = 0.01
	viable := func(h []float64) bool { return h[0] < 1.9 }
	sys := NewSystem(sk, margin, viable, nil)
	var prefs []Pref
	var ties []Tie
	add := func(c Pref) func() {
		return func() { sys.AddPref(c); prefs = append(prefs, c) }
	}
	insert := func(i int, c Pref) func() {
		return func() {
			sys.InsertPref(i, c)
			prefs = append(prefs[:i], append([]Pref{c}, prefs[i:]...)...)
		}
	}
	remove := func(i int) func() {
		return func() { sys.RemovePref(i); prefs = append(prefs[:i], prefs[i+1:]...) }
	}
	addTie := func(tie Tie) func() {
		return func() { sys.AddTie(tie); ties = append(ties, tie) }
	}
	steps := []struct {
		name string
		do   func()
	}{
		{"add shared>u", add(Pref{Better: shared, Worse: u})},
		{"add v>shared", add(Pref{Better: v, Worse: shared})},
		{"insert shared>w at 0", insert(0, Pref{Better: shared, Worse: w})},
		{"add +0>-0", add(Pref{Better: posZ, Worse: negZ})},
		{"tie -0~shared", addTie(Tie{A: negZ, B: shared, Band: 0.5})},
		{"insert -0>+0 at 1", insert(1, Pref{Better: negZ, Worse: posZ})},
		{"add shared>+0", add(Pref{Better: shared, Worse: posZ})},
		{"remove 0", remove(0)},
		{"remove last", func() { remove(len(prefs) - 1)() }},
		{"tie u~w", addTie(Tie{A: u, B: w, Band: 2})},
		{"remove +0>-0", remove(2)},
		{"reset", func() { sys.Reset(); prefs, ties = nil, nil }},
		{"add -0>u after reset", add(Pref{Better: negZ, Worse: u})},
		{"tie +0~-0 after reset", addTie(Tie{A: posZ, B: negZ, Band: 1})},
		{"insert shared>-0 at 0", insert(0, Pref{Better: shared, Worse: negZ})},
	}

	rng := rand.New(rand.NewSource(5))
	domains := sk.Domains()
	var holes [][]float64
	for i := 0; i < 24; i++ {
		holes = append(holes, randomVector(domains, rng))
	}
	lo, hi := make([]float64, len(domains)), make([]float64, len(domains))
	for i, d := range domains {
		lo[i], hi[i] = d.Lo, d.Hi
	}
	holes = append(holes, lo, hi)

	for _, st := range steps {
		st.do()
		p := Problem{
			Sketch: sk,
			Prefs:  append([]Pref(nil), prefs...),
			Ties:   append([]Tie(nil), ties...),
			Margin: margin,
			Viable: viable,
		}
		checkPointChecks(t, st.name, sys, p, holes)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				checkPointChecks(t, fmt.Sprintf("%s (goroutine %d)", st.name, g), sys, p, holes)
			}(g)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
	}
}

// TestScoreMatrixMatchesEval pins the score matrix bit for bit to two
// Sketch.Eval calls per entry, on sketches with and without branches
// and over a pair pool that holds a signed-zero pair.
func TestScoreMatrixMatchesEval(t *testing.T) {
	mr, err := sketch.MultiRegion(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range []*sketch.Sketch{sketch.SWAN(), mr, signedZeroSketch()} {
		rng := rand.New(rand.NewSource(9))
		var cands [][]float64
		for i := 0; i < 5; i++ {
			cands = append(cands, randomVector(sk.Domains(), rng))
		}
		x1s, x2s := sk.Space().RandomN(rng, 70), sk.Space().RandomN(rng, 70)
		x1s[3] = scenario.Scenario{0, 0.5}
		x2s[3] = scenario.Scenario{math.Copysign(0, -1), 0.5}
		scores, err := scoreMatrix(context.Background(), sk, cands, x1s, x2s)
		if err != nil {
			t.Fatal(err)
		}
		for c, h := range cands {
			for s := range x1s {
				want := sk.Eval(x1s[s], h) - sk.Eval(x2s[s], h)
				if got := scores[c][s]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: scores[%d][%d] = %v, Sketch.Eval gives %v", sk.Name(), c, s, got, want)
				}
			}
		}
	}
}
