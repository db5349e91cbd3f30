// The race detector makes sync.Pool drop items at random, so the
// allocation count below only holds without it.

//go:build !race

package solver

import "testing"

// TestSystemPointChecksAllocFree pins that a warm system's point checks
// and a warm sweep over hole-vector lanes allocate nothing.
func TestSystemPointChecksAllocFree(t *testing.T) {
	p, _ := swanProblem(t, 30, 77)
	sys := compileSystem(p, nil)
	holes := benchHoles(p, 78)
	mask := sys.SatisfiedMask(holes[0], nil)
	b := sys.NewBatch(batchLanes)
	dim := sys.sk.NumHoles()
	rows := make([]float64, 0, batchLanes*dim)
	lanes := make([]int, batchLanes)
	for l := range lanes {
		rows = append(rows, holes[l]...)
		lanes[l] = l
	}
	var sink float64
	i := 0
	for name, fn := range map[string]func(){
		"Violation":      func() { sink += sys.Violation(holes[i%len(holes)]) },
		"Satisfies":      func() { _ = sys.Satisfies(holes[i%len(holes)]) },
		"SatisfiedMask":  func() { mask = sys.SatisfiedMask(holes[i%len(holes)], mask) },
		"sweepSurvivors": func() { _ = sys.sweepSurvivors(b, rows, dim, lanes, nil) },
	} {
		fn() // warm
		if a := testing.AllocsPerRun(200, func() { fn(); i++ }); a != 0 {
			t.Errorf("%s allocates %.0f times per call on a warm system", name, a)
		}
	}
	_ = sink
}
