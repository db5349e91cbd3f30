package sketch

import (
	"math"
	"sync"
	"testing"

	"compsynth/internal/interval"
	"compsynth/internal/scenario"
)

func TestSpecializeMatchesEval(t *testing.T) {
	sk := SWAN()
	scenarios := []scenario.Scenario{
		{1, 50},
		{0.5, 120},
		{9.5, 3},
		{0, 0},
		{4, 80},
	}
	holeVecs := [][]float64{
		{50, 1, 5, 1},
		{0, 0, 0, 0},
		{200, 10, 10, 10},
		{80, 2, 6, 4},
	}
	for _, sc := range scenarios {
		prog, hit := sk.Specialize(sc)
		if hit {
			t.Fatalf("first Specialize(%v) reported a cache hit", sc)
		}
		if n := prog.NumVars(); n != 0 {
			t.Fatalf("specialized program still has %d vars", n)
		}
		for _, h := range holeVecs {
			want := sk.Eval(sc, h)
			if got := prog.Eval(nil, h); got != want {
				t.Errorf("Specialize(%v).Eval(%v) = %v, want %v", sc, h, got, want)
			}
		}
		// Interval agreement over hole boxes, the branch-and-prune shape.
		box := make([]interval.Interval, sk.NumHoles())
		for i := range box {
			box[i] = sk.Domain(i)
		}
		scIv := make([]interval.Interval, len(sc))
		for i, v := range sc {
			scIv[i] = interval.Point(v)
		}
		want := evalBox(sk.prog, scIv, box)
		got := evalBox(prog, nil, box)
		if got != want {
			t.Errorf("Specialize(%v) interval = %v, want %v", sc, got, want)
		}
	}
}

func TestSpecializeCaching(t *testing.T) {
	sk := SWAN()
	a := scenario.Scenario{1, 50}
	b := scenario.Scenario{2, 60}

	p1, hit := sk.Specialize(a)
	if hit {
		t.Fatal("cold cache reported a hit")
	}
	p2, hit := sk.Specialize(a)
	if !hit || p1 != p2 {
		t.Fatalf("repeat Specialize: hit=%v, same=%v", hit, p1 == p2)
	}
	if _, hit := sk.Specialize(b); hit {
		t.Fatal("distinct scenario reported a hit")
	}
	// Copies with the same coordinates share a cache entry...
	if _, hit := sk.Specialize(scenario.Scenario{1, 50}); !hit {
		t.Fatal("bitwise-equal copy missed the cache")
	}
	// ...but the key is bitwise, so -0 and +0 are distinct scenarios.
	if _, hit := sk.Specialize(scenario.Scenario{math.Copysign(0, -1), 50}); hit {
		t.Fatal("-0 scenario hit the +0-keyed entry")
	}
	if n := sk.SpecializedCount(); n != 3 {
		t.Fatalf("SpecializedCount = %d, want 3", n)
	}
}

func TestSpecializeDiff(t *testing.T) {
	sk := SWAN()
	a := scenario.Scenario{1, 50}
	b := scenario.Scenario{2, 60}
	holeVecs := [][]float64{
		{50, 1, 5, 1},
		{0, 0, 0, 0},
		{200, 10, 10, 10},
		{80, 2, 6, 4},
	}

	diff, hit := sk.SpecializeDiff(a, b)
	if hit {
		t.Fatal("cold diff cache reported a hit")
	}
	// Bit-exact with evaluating the sides separately and subtracting.
	for _, h := range holeVecs {
		want := sk.Eval(a, h) - sk.Eval(b, h)
		if got := diff.Eval(nil, h); got != want {
			t.Errorf("SpecializeDiff(%v,%v).Eval(%v) = %v, want %v", a, b, h, got, want)
		}
	}
	// Interval agreement with per-side interval evaluation and Sub.
	box := make([]interval.Interval, sk.NumHoles())
	for i := range box {
		box[i] = sk.Domain(i)
	}
	pa, _ := sk.Specialize(a)
	pb, _ := sk.Specialize(b)
	want := evalBox(pa, nil, box).Sub(evalBox(pb, nil, box))
	if got := evalBox(diff, nil, box); got != want {
		t.Errorf("SpecializeDiff interval = %v, want %v", got, want)
	}
	// The pair is ordered: (a,b) and (b,a) are distinct programs.
	if d2, hit := sk.SpecializeDiff(a, b); !hit || d2 != diff {
		t.Fatalf("repeat SpecializeDiff: hit=%v, same=%v", hit, d2 == diff)
	}
	if _, hit := sk.SpecializeDiff(b, a); hit {
		t.Fatal("reversed pair hit the (a,b) entry")
	}
}

func TestSpecializeConcurrent(t *testing.T) {
	sk := SWAN()
	scenarios := []scenario.Scenario{{1, 50}, {2, 60}, {3, 70}, {4, 80}}
	holes := []float64{50, 1, 5, 1}
	want := make([]float64, len(scenarios))
	for i, sc := range scenarios {
		want[i] = sk.Eval(sc, holes)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 100; rep++ {
				for i, sc := range scenarios {
					prog, _ := sk.Specialize(sc)
					if got := prog.Eval(nil, holes); got != want[i] {
						t.Errorf("concurrent Specialize(%v) = %v, want %v", sc, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := sk.SpecializedCount(); n != len(scenarios) {
		t.Fatalf("SpecializedCount = %d, want %d", n, len(scenarios))
	}
}
