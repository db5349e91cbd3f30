package solver

import (
	"context"
	"math/rand"
	"testing"
)

// Benchmarks comparing the reference path (violation / Satisfies over
// Problem: two single-point Sketch.Eval calls per constraint) against
// the System's point checks (one pass of the sketch body with the
// constraints' sides as lanes, holes broadcast). Same constraints, same
// hole vectors.

func benchHoles(p Problem, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	domains := p.Sketch.Domains()
	out := make([][]float64, 64)
	for i := range out {
		out[i] = randomVector(domains, rng)
	}
	return out
}

func BenchmarkViolation(b *testing.B) {
	p, _ := swanProblem(b, 30, 77)
	holes := benchHoles(p, 78)

	b.Run("problem", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += violation(p, holes[i%len(holes)])
		}
		_ = sink
	})
	b.Run("system", func(b *testing.B) {
		sys := compileSystem(p, nil)
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += sys.Violation(holes[i%len(holes)])
		}
		_ = sink
	})
}

func BenchmarkSatisfies(b *testing.B) {
	p, _ := swanProblem(b, 30, 79)
	holes := benchHoles(p, 80)

	b.Run("problem", func(b *testing.B) {
		b.ReportAllocs()
		var sink bool
		for i := 0; i < b.N; i++ {
			sink = Satisfies(p, holes[i%len(holes)])
		}
		_ = sink
	})
	b.Run("system", func(b *testing.B) {
		sys := compileSystem(p, nil)
		b.ReportAllocs()
		b.ResetTimer()
		var sink bool
		for i := 0; i < b.N; i++ {
			sink = sys.Satisfies(holes[i%len(holes)])
		}
		_ = sink
	})
}

// BenchmarkFindCandidateSystem measures a full candidate search through
// the compiled system, the solver-bound unit of the synthesis loop.
func BenchmarkFindCandidateSystem(b *testing.B) {
	p, _ := swanProblem(b, 30, 81)
	sys := compileSystem(p, nil)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(82))
		if _, st, _ := NewSearch(sys).FindCandidate(context.Background(), opts, rng); st != StatusSat {
			b.Fatalf("status = %v", st)
		}
	}
}

// BenchmarkScoreMatrix scores the default planning round's shape: 8
// candidates against 600 scenario pairs.
func BenchmarkScoreMatrix(b *testing.B) {
	p, _ := swanProblem(b, 1, 83)
	rng := rand.New(rand.NewSource(84))
	cands := benchHoles(p, 85)[:8]
	space := p.Sketch.Space()
	x1s, x2s := space.RandomN(rng, 600), space.RandomN(rng, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scoreMatrix(context.Background(), p.Sketch, cands, x1s, x2s); err != nil {
			b.Fatal(err)
		}
	}
}
