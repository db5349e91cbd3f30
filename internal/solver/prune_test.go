package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// pruneOnly returns options that skip the sampling/repair stages so a
// search exercises nothing but the branch-and-prune engine.
func pruneOnly(workers int) Options {
	opts := DefaultOptions()
	opts.Samples = 0
	opts.RepairRestarts = 0
	opts.RepairSteps = 0
	opts.PruneWorkers = workers
	return opts
}

// contradictoryProblem is UNSAT by construction (a > b and b > a), so
// the prune engine must exhaust the hole box to refute it.
func contradictoryProblem() Problem {
	return Problem{
		Sketch: sketch.SWAN(),
		Prefs: []Pref{
			{Better: scenario.Scenario{5, 10}, Worse: scenario.Scenario{2, 100}},
			{Better: scenario.Scenario{2, 100}, Worse: scenario.Scenario{5, 10}},
		},
		Margin: 1e-9,
	}
}

type pruneOutcome struct {
	holes  []float64
	status Status
	boxes  int64
	pruned int64
}

// runPrune executes a prune-only FindCandidate and captures everything
// that must be invariant under the worker count: the verdict, the
// witness bits, and the deterministic effort counters. Steals are the
// one scheduling-dependent counter and are deliberately excluded.
func runPrune(t *testing.T, p Problem, mod func(*Options), workers int) pruneOutcome {
	t.Helper()
	stats := &Stats{}
	opts := pruneOnly(workers)
	opts.Stats = stats
	if mod != nil {
		mod(&opts)
	}
	h, st, err := Compile(p, stats).FindCandidate(context.Background(), opts, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatalf("workers=%d: unexpected error: %v", workers, err)
	}
	return pruneOutcome{holes: h, status: st, boxes: stats.Boxes.Load(), pruned: stats.BoxesPruned.Load()}
}

// TestPruneWorkerCountInvariance is the engine's central property: for
// sat, unsat, and budget-truncated (unknown) instances, the verdict,
// the witness, and the deterministic counters are bit-identical for
// every PruneWorkers value.
func TestPruneWorkerCountInvariance(t *testing.T) {
	sat, _ := swanProblem(t, 20, 31)
	cases := []struct {
		name string
		p    Problem
		mod  func(*Options)
		want Status
	}{
		{"sat", sat, nil, StatusSat},
		{"unsat", contradictoryProblem(), func(o *Options) {
			o.MinBoxWidth = 1.0 / 32
			o.MaxBoxes = 2_000_000
		}, StatusUnsat},
		{"truncated", contradictoryProblem(), func(o *Options) {
			// Budget far below what refutation needs: the frontier is cut
			// at a deterministic index and the verdict degrades to unknown.
			o.MinBoxWidth = 1.0 / 1024
			o.MaxBoxes = 37
		}, StatusUnknown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runPrune(t, tc.p, tc.mod, 1)
			if base.status != tc.want {
				t.Fatalf("workers=1: status = %v, want %v", base.status, tc.want)
			}
			for _, workers := range []int{2, 8} {
				got := runPrune(t, tc.p, tc.mod, workers)
				if got.status != base.status {
					t.Errorf("workers=%d: status = %v, want %v", workers, got.status, base.status)
				}
				if len(got.holes) != len(base.holes) {
					t.Fatalf("workers=%d: witness length %d, want %d", workers, len(got.holes), len(base.holes))
				}
				for i := range got.holes {
					if got.holes[i] != base.holes[i] {
						t.Errorf("workers=%d: witness[%d] = %v, want %v (bit-identical)",
							workers, i, got.holes[i], base.holes[i])
					}
				}
				if got.boxes != base.boxes || got.pruned != base.pruned {
					t.Errorf("workers=%d: boxes/pruned = %d/%d, want %d/%d",
						workers, got.boxes, got.pruned, base.boxes, base.pruned)
				}
			}
		})
	}
}

// TestPruneWorkerCountInvarianceGOMAXPROCS pins the ≤0 convention:
// PruneWorkers unset follows the machine and still matches workers=1.
func TestPruneWorkerCountInvarianceGOMAXPROCS(t *testing.T) {
	p, _ := swanProblem(t, 12, 33)
	base := runPrune(t, p, nil, 1)
	got := runPrune(t, p, nil, 0)
	if got.status != base.status {
		t.Fatalf("default workers: status = %v, want %v", got.status, base.status)
	}
	for i := range got.holes {
		if got.holes[i] != base.holes[i] {
			t.Fatalf("default workers: witness diverges at dim %d", i)
		}
	}
}

// TestPruneStealHammer drives wide waves through a high worker count so
// the race detector can chew on the deque pop/steal paths and the
// slot-addressed results writes. Run via `make race`.
func TestPruneStealHammer(t *testing.T) {
	p := contradictoryProblem()
	mod := func(o *Options) {
		o.MinBoxWidth = 1.0 / 64
		o.MaxBoxes = 2_000_000
	}
	base := runPrune(t, p, mod, 1)
	if base.status != StatusUnsat {
		t.Fatalf("status = %v, want unsat", base.status)
	}
	for round := 0; round < 4; round++ {
		got := runPrune(t, p, mod, 16)
		if got.status != base.status || got.boxes != base.boxes || got.pruned != base.pruned {
			t.Fatalf("round %d: outcome (%v, %d, %d) diverged from sequential (%v, %d, %d)",
				round, got.status, got.boxes, got.pruned, base.status, base.boxes, base.pruned)
		}
	}
}

// TestPruneCancellation checks the v1 error contract on the prune path:
// a canceled context surfaces ctx.Err() with StatusUnknown and no
// witness, both pre-canceled and mid-run.
func TestPruneCancellation(t *testing.T) {
	p := contradictoryProblem()
	opts := pruneOnly(2)
	opts.MinBoxWidth = 1.0 / 1024
	opts.MaxBoxes = 2_000_000

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	h, st, err := Compile(p, nil).FindCandidate(ctx, opts, rand.New(rand.NewSource(5)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st != StatusUnknown || h != nil {
		t.Errorf("canceled search returned (%v, %v), want (nil, unknown)", h, st)
	}

	// Deadline in the past: same contract, DeadlineExceeded flavor.
	dctx, dcancel := context.WithTimeout(context.Background(), -1)
	defer dcancel()
	_, st, err = Compile(p, nil).FindCandidate(dctx, opts, rand.New(rand.NewSource(6)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if st != StatusUnknown {
		t.Errorf("status = %v, want unknown", st)
	}
}

// TestFindDiverseSingleCandidateFastPath pins the k ≤ 1 bugfix: the
// single-candidate case must not build the witness pool — it delegates
// to FindCandidate staging and returns that one witness (or nothing if
// the search fails).
func TestFindDiverseSingleCandidateFastPath(t *testing.T) {
	p, _ := swanProblem(t, 10, 91)
	for _, k := range []int{0, 1} {
		stats := &Stats{}
		opts := DefaultOptions()
		opts.Stats = stats
		cands, err := Compile(p, stats).FindDiverse(context.Background(), k, opts, rand.New(rand.NewSource(12)))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(cands) != 1 {
			t.Fatalf("k=%d: got %d candidates, want 1", k, len(cands))
		}
		if !Satisfies(p, cands[0]) {
			t.Errorf("k=%d: candidate violates constraints", k)
		}
		// The fast path runs one FindCandidate, which stops sampling at the
		// first witness — nowhere near the k>1 pool's exhaustive budget.
		if s := stats.Samples.Load(); s > int64(opts.Samples) {
			t.Errorf("k=%d: %d samples exceeds a single search budget %d — pool path taken?", k, s, opts.Samples)
		}
	}
}

// BenchmarkPruneEngineWorkers measures the wave engine alone on the
// refutation (UNSAT) workload that dominates convergence checks, across
// PruneWorkers values. On multi-core hosts the wave fan-out is the
// speedup; on a single-core host the rows document the engine's
// synchronization overhead instead.
func BenchmarkPruneEngineWorkers(b *testing.B) {
	p := contradictoryProblem()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := pruneOnly(workers)
			opts.MinBoxWidth = 1.0 / 64
			opts.MaxBoxes = 2_000_000
			sys := compileSystem(p, nil)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := NewSearch(sys).FindCandidate(context.Background(), opts, rng)
				if err != nil {
					b.Fatal(err)
				}
				if st != StatusUnsat {
					b.Fatalf("status %v", st)
				}
			}
		})
	}
}

// evalSpans decides a wave through evalPruneSpan in lane-width spans
// of one batch, the way pruneWave's single-worker loop does.
func evalSpans(sys *System, wave [][]interval.Interval, lanes int, minWidths []float64) []pruneResult {
	results := make([]pruneResult, len(wave))
	b := sys.NewBatch(lanes)
	for lo := 0; lo < len(wave); lo += lanes {
		sys.evalPruneSpan(wave, lo, min(lo+lanes, len(wave)), results, minWidths, b, nil)
	}
	return results
}

// samePoint reports whether two hole vectors are bitwise identical.
func samePoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBox reports whether two boxes have bitwise identical bounds.
func sameBox(a, b []interval.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
}

// TestEvalPruneSpanWidthInvariance is the prune path's lane-width
// invariance test: 150 random boxes, from root-sized to below the
// resolution floor, are decided in spans of 1, 3, 16 and 64 lanes, and
// every width must reproduce one-box spans bit for bit — across an
// empty, growing, shrinking and rebuilt constraint set.
func TestEvalPruneSpanWidthInvariance(t *testing.T) {
	p, _ := swanProblem(t, 12, 7)
	sk := p.Sketch
	domains := sk.Domains()
	minWidths := make([]float64, len(domains))
	for i, d := range domains {
		minWidths[i] = math.Max(d.Width()/64, 1e-12)
	}
	sys := NewSystem(sk, 1e-9, nil)

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
		ref := evalSpans(sys, boxes, 1, minWidths)
		for _, lanes := range []int{1, 3, 16, 64} {
			got := evalSpans(sys, boxes, lanes, minWidths)
			for bi := range boxes {
				want, got := ref[bi], got[bi]
				ctx := fmt.Sprintf("%s: lanes %d box %d", stage, lanes, bi)
				if want.kind != got.kind {
					t.Fatalf("%s: kind = %d, want %d", ctx, got.kind, want.kind)
				}
				if !samePoint(want.witness, got.witness) {
					t.Fatalf("%s: witness = %v, want %v", ctx, got.witness, want.witness)
				}
				if !sameBox(want.left, got.left) || !sameBox(want.right, got.right) {
					t.Fatalf("%s: split children = %v | %v, want %v | %v",
						ctx, got.left, got.right, want.left, want.right)
				}
			}
		}
	}

	check("empty")
	for i, c := range p.Prefs {
		sys.AddPref(c)
		if i%4 == 3 {
			check("grow")
		}
	}
	for i := 0; i < 4; i++ {
		sys.RemovePref(len(p.Prefs) - 1 - i)
	}
	check("shrink")
	sys.Reset()
	for _, c := range p.Prefs[:6] {
		sys.AddPref(c)
	}
	check("rebuild")
}

// refDecide decides one box from scratch, the way evalPruneSpan must:
// every constraint's fused difference expression through the AST
// interval interpreter, refuted when some upper bound is at most the
// margin; witnessed at the midpoint when every lower bound exceeds the
// margin or when the midpoint meets every fused program; else split or
// dropped at the floor (splitOrFloor).
func refDecide(t *testing.T, sys *System, box []interval.Interval, minWidths []float64, b *Batch) pruneResult {
	t.Helper()
	feasible := true
	for i := range sys.cps {
		iv := refConstraint(t, sys, i, box)
		if iv.Hi <= sys.margin {
			return pruneResult{kind: prunePruned}
		}
		feasible = feasible && iv.Lo > sys.margin
	}
	mid := make([]float64, len(box))
	fillMidpoint(mid, box)
	if !feasible {
		for _, cp := range sys.cps {
			if !(cp.diff.Eval(nil, mid) > sys.margin) {
				return sys.splitOrFloor(box, minWidths, b, nil)
			}
		}
	}
	return pruneResult{kind: pruneWitness, witness: mid}
}

// refConstraint bounds constraint i over the box with the AST interval
// interpreter on its fused difference expression.
func refConstraint(t *testing.T, sys *System, i int, box []interval.Interval) interval.Interval {
	t.Helper()
	env := expr.IntervalEnv{Holes: map[string]interval.Interval{}}
	for h, name := range sys.sk.Holes() {
		env.Holes[name] = box[h]
	}
	iv, err := expr.EvalInterval(sys.cps[i].diff.Expr(), env)
	if err != nil {
		t.Fatal(err)
	}
	return iv
}

// sameReal reports whether two bounds are equal as reals: the sign of
// zero aside, and NaN matching NaN.
func sameReal(a, b float64) bool { return a == b || a != a && b != b }

// TestEvalPruneSpanMatchesReference holds evalPruneSpan to refDecide on
// random constraint systems: preferences between random scenarios of
// SWAN and of the 2-region sketch, most of them oriented by a random
// hole vector, and a one-hole sketch whose sides sit at ±0, where the
// body's y*1 gives +0 and the fused program's folded constant keeps −0.
// The waves are a search's first waves from the root, each the split
// children of the one before in frontier order (cut at 150 boxes), down
// to floor-level boxes, and a wave of random floor-level boxes. Each is
// decided in spans of 1, 3 and 16 lanes, and the kinds, the witness
// bits and the children must match. Every constraint's interval, the
// Sub of the box batch's two output lanes, must also equal the fused
// expression's as reals; on the signed-zero sketch some must differ in
// the sign of a zero bound, so the test meets the case it allows.
func TestEvalPruneSpanMatchesReference(t *testing.T) {
	multi, err := sketch.MultiRegion(2)
	if err != nil {
		t.Fatal(err)
	}
	signed := sketch.MustNew("signed-zero", expr.MustParse(`y * 1 - ??h * x`),
		scenario.MustNewSpace([]string{"x", "y"}, []interval.Interval{interval.New(0, 1), interval.New(0, 1)}),
		map[string]interval.Interval{"h": interval.New(-1, 1)})
	negZero := math.Copysign(0, -1)
	type system struct {
		name   string
		sk     *sketch.Sketch
		margin float64
		prefs  []Pref
	}
	var systems []system
	for _, sk := range []*sketch.Sketch{sketch.SWAN(), multi} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			target := make([]float64, sk.NumHoles())
			fillRandomVector(target, sk.Domains(), rng)
			var prefs []Pref
			for n := 1 + rng.Intn(30); len(prefs) < n; {
				a, b := sk.Space().Random(rng), sk.Space().Random(rng)
				if rng.Intn(4) == 0 || sk.Eval(a, target) > sk.Eval(b, target) {
					prefs = append(prefs, Pref{Better: a, Worse: b})
				} else {
					prefs = append(prefs, Pref{Better: b, Worse: a})
				}
			}
			systems = append(systems, system{fmt.Sprintf("%s seed %d", sk.Name(), seed), sk, 1e-9, prefs})
		}
	}
	// Feasible for 0 < h < 0.25. Over h in [0, 1] the first constraint's
	// lower bound is −0 − (+0) through the fused program, which keeps
	// the folded −0*1, and +0 − (+0) through the body's y*1.
	systems = append(systems, system{"signed-zero", signed, 0, []Pref{
		{Better: scenario.Scenario{0, negZero}, Worse: scenario.Scenario{1, 0}},
		{Better: scenario.Scenario{1, 0.75}, Worse: scenario.Scenario{0, 0.5}},
		{Better: scenario.Scenario{negZero, 1}, Worse: scenario.Scenario{negZero, negZero}},
	}})

	for _, c := range systems {
		sys := compileSystem(Problem{Sketch: c.sk, Prefs: c.prefs, Margin: c.margin}, nil)
		domains := c.sk.Domains()
		minWidths := make([]float64, len(domains))
		for i, d := range domains {
			minWidths[i] = d.Width() / 4
		}
		ref, probe := sys.NewBatch(1), sys.NewBatch(1)
		signFlips := 0
		check := func(stage string, wave [][]interval.Interval) []pruneResult {
			t.Helper()
			want := make([]pruneResult, len(wave))
			for i, box := range wave {
				want[i] = refDecide(t, sys, box, minWidths, ref)
				lo, hi := sys.boxLanes(probe).Eval(box, sys.sides())
				for ci := range sys.cps {
					d := interval.Interval{Lo: lo[2*ci], Hi: hi[2*ci]}.Sub(interval.Interval{Lo: lo[2*ci+1], Hi: hi[2*ci+1]})
					r := refConstraint(t, sys, ci, box)
					if !sameReal(d.Lo, r.Lo) || !sameReal(d.Hi, r.Hi) {
						t.Fatalf("%s %s box %d %v: constraint %d = %v, fused expression %v", c.name, stage, i, box, ci, d, r)
					}
					if !samePoint([]float64{d.Lo, d.Hi}, []float64{r.Lo, r.Hi}) {
						signFlips++
					}
				}
			}
			for _, lanes := range []int{1, 3, 16} {
				got := evalSpans(sys, wave, lanes, minWidths)
				for i := range wave {
					at := fmt.Sprintf("%s %s lanes %d box %d", c.name, stage, lanes, i)
					if got[i].kind != want[i].kind {
						t.Fatalf("%s: kind = %d, want %d", at, got[i].kind, want[i].kind)
					}
					if !samePoint(got[i].witness, want[i].witness) {
						t.Fatalf("%s: witness = %v, want %v", at, got[i].witness, want[i].witness)
					}
					if !sameBox(got[i].left, want[i].left) || !sameBox(got[i].right, want[i].right) {
						t.Fatalf("%s: split children = %v | %v, want %v | %v", at, got[i].left, got[i].right, want[i].left, want[i].right)
					}
				}
			}
			return want
		}

		kinds := map[pruneKind]int{}
		wave := [][]interval.Interval{domains}
		for depth := 0; len(wave) > 0; depth++ {
			want := check(fmt.Sprintf("wave %d", depth), wave)
			var next [][]interval.Interval
			for _, r := range want {
				kinds[r.kind]++
				if r.kind == pruneSplit {
					next = append(next, r.left, r.right)
				}
			}
			wave = next[:min(len(next), 150)]
		}
		rng := rand.New(rand.NewSource(5))
		var floor [][]interval.Interval
		for i := 0; i < 40; i++ {
			box := make([]interval.Interval, len(domains))
			for h, d := range domains {
				w := minWidths[h] * rng.Float64()
				lo := d.Lo + rng.Float64()*(d.Width()-w)
				box[h] = interval.New(lo, lo+w)
			}
			floor = append(floor, box)
		}
		for _, r := range check("floor", floor) {
			kinds[r.kind]++
		}
		if kinds[pruneSplit] == 0 || kinds[prunePruned]+kinds[pruneWitness]+kinds[pruneFloor] == 0 {
			t.Errorf("%s: outcomes %v; the waves decided too little", c.name, kinds)
		}
		if c.name == "signed-zero" && signFlips == 0 {
			t.Errorf("%s: no constraint interval differed from the fused expression's in the sign of a zero bound", c.name)
		}
	}
}

// TestPruneColdLanesSurvivorAliasing pins the survivor-scratch copy in
// evalPruneSpan. A floor-level lane ordered ahead of a midpoint
// witness in the same span re-enters sweepSurvivors via splitOrFloor →
// cornerWitnessBatch, which rewrites b.act — the backing array of the
// midpoint-sweep survivor list. Without copying that list first, the
// later lane's survivor check compares against corner-sweep indices,
// dropping the true witness (or fabricating a false one). The 2-lane
// span must decide bit-identically to one-box spans.
func TestPruneColdLanesSurvivorAliasing(t *testing.T) {
	space := scenario.MustNewSpace([]string{"x", "y"},
		[]interval.Interval{interval.New(0, 1), interval.New(0, 1)})
	sk := sketch.MustNew("alias", expr.MustParse(`??h * x - y`), space,
		map[string]interval.Interval{"h": interval.New(0, 1)})
	// f(0,0) = 0 and f(1,y) = h - y, so the first preference holds iff
	// h < 0.51 and the second iff h > 0.49. The order matters: the
	// floor lane's corner sweep must leave b.act[0] naming lane 0 (the
	// corner h = 0.40 survives the first constraint, then fails the
	// second), so the uncopied survivor list would read lane 0 where
	// the midpoint sweep had kept lane 1.
	p := Problem{Sketch: sk, Prefs: []Pref{
		{Better: scenario.Scenario{0, 0}, Worse: scenario.Scenario{1, 0.51}},
		{Better: scenario.Scenario{1, 0.49}, Worse: scenario.Scenario{0, 0}},
	}}
	sys := compileSystem(p, nil)
	wave := [][]interval.Interval{
		// Floor-level (width 0.12 < 0.15): straddles the band, but the
		// midpoint 0.46 and both corners fail, so this lane takes the
		// re-entrant corner sweep and lands at the floor.
		{interval.New(0.40, 0.52)},
		// Midpoint h = 0.5 lies inside the band: must come back a
		// witness, not a split.
		{interval.New(0.30, 0.70)},
	}
	minWidths := []float64{0.15}

	single := evalSpans(sys, wave, 1, minWidths)
	if single[0].kind != pruneFloor || single[1].kind != pruneWitness {
		t.Fatalf("one-box spans: kinds = %v/%v, want %v/%v — scenario construction broke",
			single[0].kind, single[1].kind, pruneFloor, pruneWitness)
	}

	batched := make([]pruneResult, len(wave))
	sys.evalPruneSpan(wave, 0, len(wave), batched, minWidths, sys.NewBatch(4), nil)
	for i := range wave {
		if batched[i].kind != single[i].kind {
			t.Errorf("lane %d: batched kind = %v, want %v", i, batched[i].kind, single[i].kind)
		}
	}
	if w := batched[1].witness; len(w) != 1 || w[0] != single[1].witness[0] {
		t.Errorf("lane 1: batched witness = %v, want %v (bit-identical)", w, single[1].witness)
	}
}

// TestBatchLanesInvariance pins the prune engine's outcomes on sat,
// unsat, and budget-truncated instances as literals: the verdict, the
// witness bits, and the deterministic counters, recorded from the
// scalar engine (BatchLanes=1) before it was deleted, must hold for
// every PruneWorkers value. Lane-width invariance itself is tested one
// level down, through NewBatch(1|3|16|64), by
// TestEvalPruneSpanWidthInvariance and TestBatchLanesSamplingInvariance.
func TestBatchLanesInvariance(t *testing.T) {
	sat, _ := swanProblem(t, 20, 31)
	cases := []struct {
		name string
		p    Problem
		mod  func(*Options)
		want pruneOutcome
	}{
		{"sat", sat, nil, pruneOutcome{
			holes: []float64{50, 2.5, 2.5, 2.5}, status: StatusSat, boxes: 31, pruned: 0}},
		{"unsat", contradictoryProblem(), func(o *Options) {
			o.MinBoxWidth = 1.0 / 32
			o.MaxBoxes = 2_000_000
		}, pruneOutcome{status: StatusUnsat, boxes: 66239, pruned: 11904}},
		{"truncated", contradictoryProblem(), func(o *Options) {
			o.MinBoxWidth = 1.0 / 1024
			o.MaxBoxes = 37
		}, pruneOutcome{status: StatusUnknown, boxes: 37, pruned: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				got := runPrune(t, tc.p, tc.mod, workers)
				if got.status != tc.want.status {
					t.Errorf("workers=%d: status = %v, want %v", workers, got.status, tc.want.status)
				}
				if !samePoint(got.holes, tc.want.holes) {
					t.Errorf("workers=%d: witness = %v, want %v (bit-identical)", workers, got.holes, tc.want.holes)
				}
				if got.boxes != tc.want.boxes || got.pruned != tc.want.pruned {
					t.Errorf("workers=%d: boxes/pruned = %d/%d, want %d/%d",
						workers, got.boxes, got.pruned, tc.want.boxes, tc.want.pruned)
				}
			}
		})
	}
}

// TestBatchLanesSamplingInvariance pins the block-RNG contract of
// sampleSatisfying: the points it yields, where a stopping yield cuts
// the walk, the Samples counter, and the RNG state it leaves behind are
// identical for every lane width — the whole sample block is drawn
// before any row is evaluated, so neither the stream nor the
// rows-walked count can depend on lanes.
func TestBatchLanesSamplingInvariance(t *testing.T) {
	p, _ := swanProblem(t, 20, 47)
	sys := compileSystem(p, nil)
	domains := sys.sk.Domains()
	type walk struct {
		yielded [][]float64
		stopped bool
		samples int64
		next    int64 // first draw after the walk: the RNG position
	}
	run := func(lanes, stopAfter int) walk {
		stats := &Stats{}
		rng := rand.New(rand.NewSource(23))
		var w walk
		stopped, err := sys.sampleSatisfying(context.Background(), 400, lanes, domains, rng, stats, func(pt []float64) bool {
			w.yielded = append(w.yielded, append([]float64(nil), pt...))
			return len(w.yielded) < stopAfter
		})
		if err != nil {
			t.Fatalf("lanes=%d: %v", lanes, err)
		}
		w.stopped, w.samples, w.next = stopped, stats.Samples.Load(), rng.Int63()
		return w
	}
	for _, stopAfter := range []int{1, 3, 1 << 30} {
		base := run(1, stopAfter)
		if len(base.yielded) == 0 {
			t.Fatalf("stopAfter=%d: no satisfying samples; the walk exercised nothing", stopAfter)
		}
		for _, lanes := range []int{1, 3, 16, 64} {
			got := run(lanes, stopAfter)
			if got.stopped != base.stopped || got.samples != base.samples || got.next != base.next {
				t.Errorf("lanes=%d stopAfter=%d: (stopped, samples, rng) = (%v, %d, %d), want (%v, %d, %d)",
					lanes, stopAfter, got.stopped, got.samples, got.next, base.stopped, base.samples, base.next)
			}
			if len(got.yielded) != len(base.yielded) {
				t.Fatalf("lanes=%d stopAfter=%d: yielded %d points, want %d", lanes, stopAfter, len(got.yielded), len(base.yielded))
			}
			for i := range got.yielded {
				if !samePoint(got.yielded[i], base.yielded[i]) {
					t.Errorf("lanes=%d stopAfter=%d: point %d = %v, want %v", lanes, stopAfter, i, got.yielded[i], base.yielded[i])
				}
			}
		}
	}
}
