// The race detector makes sync.Pool drop items at random, so the
// allocation count below only holds without it.

//go:build !race

package solver

import "testing"

// TestSystemPointChecksAllocFree pins that a warm system's point checks
// allocate nothing.
func TestSystemPointChecksAllocFree(t *testing.T) {
	p, _ := swanProblem(t, 30, 77)
	sys := compileSystem(p, nil)
	holes := benchHoles(p, 78)
	mask := sys.SatisfiedMask(holes[0], nil)
	var sink float64
	i := 0
	for name, fn := range map[string]func(){
		"Violation":     func() { sink += sys.Violation(holes[i%len(holes)]) },
		"Satisfies":     func() { _ = sys.Satisfies(holes[i%len(holes)]) },
		"SatisfiedMask": func() { mask = sys.SatisfiedMask(holes[i%len(holes)], mask) },
	} {
		fn() // warm
		if a := testing.AllocsPerRun(200, func() { fn(); i++ }); a != 0 {
			t.Errorf("%s allocates %.0f times per call on a warm system", name, a)
		}
	}
	_ = sink
}
