package sketch

import (
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
		prog := sk.Specialize(sc)
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

	diff := sk.SpecializeDiff(a, b)
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
	want := evalBox(sk.Specialize(a), nil, box).Sub(evalBox(sk.Specialize(b), nil, box))
	if got := evalBox(diff, nil, box); got != want {
		t.Errorf("SpecializeDiff interval = %v, want %v", got, want)
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
					prog := sk.Specialize(sc)
					if got := prog.Eval(nil, holes); got != want[i] {
						t.Errorf("concurrent Specialize(%v) = %v, want %v", sc, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
