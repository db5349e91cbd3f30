package solver

// Tests for the learned-prune cache: differential parity of the cached
// evalPruneSpan path against cold evaluation across growing and
// shrinking constraint sets and lane widths, the invalidation protocol (refuter
// presence vs removal epoch), and the exported summary's
// export/verify-on-warm contract.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"compsynth/internal/interval"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// comparePruneResults fails unless the two results are bit-identical.
func comparePruneResults(t *testing.T, ctx string, cold, warm pruneResult) {
	t.Helper()
	if cold.kind != warm.kind {
		t.Fatalf("%s: kind mismatch: cold=%d warm=%d", ctx, cold.kind, warm.kind)
	}
	if !samePoint(cold.witness, warm.witness) {
		t.Fatalf("%s: witness mismatch: cold=%v warm=%v", ctx, cold.witness, warm.witness)
	}
	if !sameBox(cold.left, warm.left) || !sameBox(cold.right, warm.right) {
		t.Fatalf("%s: split children mismatch:\ncold: %v | %v\nwarm: %v | %v",
			ctx, cold.left, cold.right, warm.left, warm.right)
	}
}

// TestEvalPruneSpanCacheParity is the cache's core differential fuzz: a
// System with a Learned cache attached must decide every box exactly as
// a cache-free System does — across an empty, growing, shrinking, and
// rebuilt constraint set, and on repeated evaluation of the same boxes
// (the second pass is served from the cache). It is also the prune
// path's lane-width invariance test: both systems decide the boxes in
// spans of 1, 3, 16, and 64 lanes, and every width must reproduce the
// cache-free one-box spans bit for bit.
func TestEvalPruneSpanCacheParity(t *testing.T) {
	p, _ := swanProblem(t, 12, 7)
	sk := p.Sketch
	domains := sk.Domains()
	minWidths := make([]float64, len(domains))
	for i, d := range domains {
		minWidths[i] = math.Max(d.Width()/64, 1e-12)
	}

	cold := NewSystem(sk, 1e-9, nil, nil)
	warm := NewSystem(sk, 1e-9, nil, nil)
	warm.SetLearned(NewLearned(0))

	rng := rand.New(rand.NewSource(41))
	randBox := func(scale float64) []interval.Interval {
		box := make([]interval.Interval, len(domains))
		for i, d := range domains {
			w := d.Width() * scale * rng.Float64()
			lo := d.Lo + rng.Float64()*(d.Width()-w)
			box[i] = interval.New(lo, lo+w)
		}
		return box
	}
	var boxes [][]interval.Interval
	for i := 0; i < 60; i++ {
		boxes = append(boxes, randBox(1.0)) // large: mostly splits
	}
	for i := 0; i < 60; i++ {
		boxes = append(boxes, randBox(0.05)) // small: refutations/witnesses
	}
	for i := 0; i < 30; i++ {
		boxes = append(boxes, randBox(0.005)) // sub-floor: corner checks
	}

	check := func(stage string) {
		t.Helper()
		ref := evalSpans(cold, boxes, 1, minWidths)
		for pass := 0; pass < 2; pass++ { // pass 1 replays from the cache
			for _, lanes := range []int{1, 3, 16, 64} {
				for si, sys := range []*System{cold, warm} {
					got := evalSpans(sys, boxes, lanes, minWidths)
					for bi := range boxes {
						comparePruneResults(t, fmt.Sprintf("%s: pass %d lanes %d cached=%v box %d", stage, pass, lanes, si == 1, bi), ref[bi], got[bi])
					}
				}
			}
		}
	}

	check("empty")
	for i, c := range p.Prefs {
		cold.AddPref(c)
		warm.AddPref(c)
		if i%4 == 3 {
			check("grow") // exercises the delta-eval path on cached entries
		}
	}
	tie := Tie{A: scenario.Scenario{4, 40}, B: scenario.Scenario{6, 30}, Band: 0.5}
	cold.AddTie(tie)
	warm.AddTie(tie)
	check("tie")
	for i := 0; i < 4; i++ {
		idx := len(p.Prefs) - 1 - i
		cold.RemovePref(idx)
		warm.RemovePref(idx)
	}
	check("shrink") // epoch bumped: point/undecided facts must not leak
	// Rebuild (Reset + re-add), the transitive-reduction cycle in core:
	// refutations survive via presence counts, everything else lapses.
	cold.Reset()
	warm.Reset()
	for _, c := range p.Prefs[:6] {
		cold.AddPref(c)
		warm.AddPref(c)
	}
	check("rebuild")
	if hits := warm.Learned().Snapshot().BoxHits; hits == 0 {
		t.Error("cache never served a hit; the parity test exercised nothing")
	}
}

// TestLearnedInvalidationTable pins the invalidation protocol entry
// shape by entry shape: refutations are guarded by their refuter's
// presence (and so survive rebuilds), undecided-box and point facts by
// the removal epoch.
func TestLearnedInvalidationTable(t *testing.T) {
	box := []interval.Interval{interval.New(0, 1), interval.New(2, 3)}
	pt := []float64{0.5, 2.5}
	type probe func(l *Learned) bool
	hitBox := func(l *Learned) bool {
		_, ok := l.lookupBox(hashBox(box), box)
		return ok
	}
	hitPoint := func(l *Learned) bool { return l.pointKnownUnsat(pt) }
	cases := []struct {
		name  string
		setup func(l *Learned)
		probe probe
		want  bool
	}{
		{
			name: "refutation survives rebuild of its refuter",
			setup: func(l *Learned) {
				l.constraintAdded("k1")
				l.storeBox(hashBox(box), box, "k1", false)
				l.constraintRemoved("k1") // Reset...
				l.constraintAdded("k1")   // ...re-add
			},
			probe: hitBox, want: true,
		},
		{
			name: "refutation survives removal of an unrelated constraint",
			setup: func(l *Learned) {
				l.constraintAdded("k1")
				l.constraintAdded("k2")
				l.storeBox(hashBox(box), box, "k1", false)
				l.constraintRemoved("k2")
			},
			probe: hitBox, want: true,
		},
		{
			name: "refutation dies with its refuter",
			setup: func(l *Learned) {
				l.constraintAdded("k1")
				l.storeBox(hashBox(box), box, "k1", false)
				l.constraintRemoved("k1")
			},
			probe: hitBox, want: false,
		},
		{
			name: "undecided box survives constraint addition",
			setup: func(l *Learned) {
				l.constraintAdded("k1")
				l.storeBox(hashBox(box), box, "", false)
				l.constraintAdded("k2")
			},
			probe: hitBox, want: true,
		},
		{
			name: "undecided box dies on any removal",
			setup: func(l *Learned) {
				l.constraintAdded("k1")
				l.constraintAdded("k2")
				l.storeBox(hashBox(box), box, "", false)
				l.constraintRemoved("k2")
			},
			probe: hitBox, want: false,
		},
		{
			name: "point fact survives constraint addition",
			setup: func(l *Learned) {
				l.constraintAdded("k1")
				l.notePointUnsat(pt)
				l.constraintAdded("k2")
			},
			probe: hitPoint, want: true,
		},
		{
			name: "point fact dies on any removal",
			setup: func(l *Learned) {
				l.constraintAdded("k1")
				l.notePointUnsat(pt)
				l.constraintRemoved("k1")
			},
			probe: hitPoint, want: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLearned(0)
			tc.setup(l)
			if got := tc.probe(l); got != tc.want {
				t.Errorf("probe = %v, want %v", got, tc.want)
			}
		})
	}
}

// unsatSearch runs a prune-only FindCandidate expected to end Unsat.
func unsatSearch(t *testing.T, sys *System) {
	t.Helper()
	opts := pruneOnly(1)
	opts.MinBoxWidth = 1.0 / 64
	opts.MaxBoxes = 2_000_000
	_, st, err := NewSearch(sys).FindCandidate(context.Background(), opts, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusUnsat {
		t.Fatalf("status = %v, want Unsat", st)
	}
}

// TestLearnedSummaryRoundtrip exports the refutations accumulated while
// proving a contradictory system Unsat, warms a fresh System with the
// same constraints from them, and checks every faithful region installs
// and serves hits on the replayed search, while regions no constraint
// can re-prove are skipped.
func TestLearnedSummaryRoundtrip(t *testing.T) {
	p := contradictoryProblem()
	sys := compileSystem(p, nil)
	sys.SetLearned(NewLearned(0))
	unsatSearch(t, sys)
	sum := sys.ExportLearned()
	if sum == nil || len(sum.Refuted) == 0 {
		t.Fatal("no refutations exported after an Unsat proof")
	}

	domains := sketch.SWAN().Domains()
	full := make([][2]float64, len(domains))
	for i, d := range domains {
		full[i] = [2]float64{d.Lo, d.Hi}
	}
	nan := append([][2]float64(nil), sum.Refuted[0].Box...)
	nan[0][0] = math.NaN()
	warm := &LearnedSummary{Refuted: append(append([]RefutedRegion(nil), sum.Refuted...),
		// The whole hole box is not refuted by any single constraint
		// (the root box splits), and a NaN bound proves nothing.
		RefutedRegion{Box: full}, RefutedRegion{Box: nan})}

	sys2 := compileSystem(p, nil)
	l2 := NewLearned(0)
	sys2.SetLearned(l2)
	installed, skipped := sys2.WarmLearned(warm)
	if installed != len(sum.Refuted) || skipped != 2 {
		t.Fatalf("warm installed %d skipped %d; want %d and 2", installed, skipped, len(sum.Refuted))
	}
	unsatSearch(t, sys2)
	if hits := l2.Snapshot().BoxHits; hits == 0 {
		t.Error("warmed summary served no hits on the replayed search")
	}
}

// TestSystemLearnedWiring checks the System-side bookkeeping: removal
// flows into the cache as an invalidation, and SetLearned(nil) detaches
// cleanly (subsequent searches run cold without touching the old
// cache).
func TestSystemLearnedWiring(t *testing.T) {
	p, _ := swanProblem(t, 4, 9)
	sys := compileSystem(p, nil)
	l := NewLearned(0)
	sys.SetLearned(l)
	pt := []float64{1, 2, 3, 4}
	l.notePointUnsat(pt)
	sys.RemovePref(3)
	if snap := l.Snapshot(); snap.Invalidations != 1 {
		t.Errorf("invalidations = %d after one removal, want 1", snap.Invalidations)
	}
	if l.pointKnownUnsat(pt) {
		t.Error("point fact survived a constraint removal")
	}
	sys.SetLearned(nil)
	if sys.Learned() != nil {
		t.Fatal("SetLearned(nil) did not detach")
	}
	before := l.Snapshot()
	// A search on the detached system must not touch the old cache.
	opts := pruneOnly(1)
	opts.MinBoxWidth = 1.0 / 16
	if _, _, err := NewSearch(sys).FindCandidate(context.Background(), opts, rand.New(rand.NewSource(5))); err != nil {
		t.Fatal(err)
	}
	if after := l.Snapshot(); after != before {
		t.Errorf("detached cache was touched: before %+v, after %+v", before, after)
	}
}
