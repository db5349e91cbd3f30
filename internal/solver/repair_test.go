package solver

import (
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

// referenceRepair is the coordinate descent of System.repair as it ran
// before trials moved single holes: every trial sets the hole and runs
// a full Violation, and success is a fresh Satisfies. Both are
// test-only point checks through the AST interpreter: the sketch body
// at each constraint side, taken from the system's constraints, so no
// scenario lanes the system has pooled can leak into the reference.
func referenceRepair(s *System, start []float64, domains []interval.Interval, steps int, rng *rand.Rand) ([]float64, bool) {
	prefs := s.Prefs()
	n := 2 * len(prefs)
	// envs[2i] and envs[2i+1] bind preference i's better and worse
	// sides; they share one hole map.
	holeEnv := map[string]float64{}
	envs := make([]expr.Env, n)
	for i, c := range prefs {
		for j, sc := range []scenario.Scenario{c.Better, c.Worse} {
			envs[2*i+j] = expr.Env{Vars: map[string]float64{}, Holes: holeEnv}
			for v, name := range s.sk.Space().Names() {
				envs[2*i+j].Vars[name] = sc[v]
			}
		}
	}
	out, holeNames := make([]float64, n), s.sk.Holes()
	outs := func(h []float64) []float64 {
		for i, name := range holeNames {
			holeEnv[name] = h[i]
		}
		for l, env := range envs {
			v, err := expr.Eval(s.sk.Body(), env)
			if err != nil {
				panic(err)
			}
			out[l] = v
		}
		return out
	}
	violation := func(h []float64) float64 {
		out := outs(h)
		var loss float64
		for i := 0; i < n; i += 2 {
			if slack := s.margin - (out[i] - out[i+1]); slack > 0 {
				loss += slack
			}
		}
		return loss
	}
	satisfies := func(h []float64) bool {
		out := outs(h)
		for i := 0; i < n; i += 2 {
			if out[i]-out[i+1] <= s.margin {
				return false
			}
		}
		return true
	}

	h := append([]float64(nil), start...)
	loss := violation(h)
	if loss == 0 {
		return h, satisfies(h)
	}
	step := make([]float64, len(domains))
	for i, d := range domains {
		step[i] = d.Width() / 4
	}
	for it := 0; it < steps && loss > 0; it++ {
		improved := false
		for _, i := range rng.Perm(len(h)) {
			for _, dir := range []float64{+1, -1} {
				cand := h[i] + dir*step[i]
				if cand < domains[i].Lo || cand > domains[i].Hi {
					continue
				}
				old := h[i]
				h[i] = cand
				if l := violation(h); l < loss {
					loss = l
					improved = true
					break
				}
				h[i] = old
			}
		}
		if loss == 0 {
			return h, satisfies(h)
		}
		if !improved {
			for i := range step {
				step[i] /= 2
			}
			allTiny := true
			for i, st := range step {
				if st > domains[i].Width()*1e-12 {
					allTiny = false
					break
				}
			}
			if allTiny {
				break
			}
		}
	}
	return h, loss == 0 && satisfies(h)
}

// repairOutcome is what a repair leaves behind: the vector's bits,
// the verdict, and the next draw of its RNG.
type repairOutcome struct {
	bits []uint64
	ok   bool
	next int64
}

func (o repairOutcome) String() string {
	return fmt.Sprintf("{%x ok=%v next=%d}", o.bits, o.ok, o.next)
}

func (o repairOutcome) equal(p repairOutcome) bool {
	if o.ok != p.ok || o.next != p.next || len(o.bits) != len(p.bits) {
		return false
	}
	for i := range o.bits {
		if o.bits[i] != p.bits[i] {
			return false
		}
	}
	return true
}

// runRepair repairs start with an RNG seeded by seed through fn.
func runRepair(fn func(*System, []float64, []interval.Interval, int, *rand.Rand) ([]float64, bool), s *System, start []float64, seed int64) repairOutcome {
	rng := rand.New(rand.NewSource(seed))
	h, ok := fn(s, start, s.Sketch().Domains(), DefaultOptions().RepairSteps, rng)
	o := repairOutcome{ok: ok, next: rng.Int63()}
	for _, v := range h {
		o.bits = append(o.bits, math.Float64bits(v))
	}
	return o
}

// repairSystem builds a system over sk with nPrefs preferences that the
// hole vector target ranks, flipped with probability flip, so some
// systems are unsatisfiable and repairs fail.
func repairSystem(sk *sketch.Sketch, target []float64, nPrefs int, flip float64, seed int64) *System {
	rng := rand.New(rand.NewSource(seed))
	s := NewSystem(sk, 1e-3, nil)
	for s.NumPrefs() < nPrefs {
		a, b := sk.Space().Random(rng), sk.Space().Random(rng)
		fa, fb := sk.Eval(a, target), sk.Eval(b, target)
		if fa == fb {
			continue
		}
		if (fa < fb) != (rng.Float64() < flip) {
			a, b = b, a
		}
		s.AddPref(Pref{Better: a, Worse: b})
	}
	return s
}

// TestRepairMatchesReference holds System.repair, which moves one hole
// per trial, to referenceRepair's full Violation per trial: the same
// vector bits, verdict and next RNG draw from every start, on SWAN and
// 2-region systems, before and after InsertPref, RemovePref and AddPref
// mutate a system whose pooled batches have already loaded its lanes,
// and with two goroutines repairing on one shared system.
func TestRepairMatchesReference(t *testing.T) {
	swan := sketch.SWAN()
	mr, err := sketch.MultiRegion(2)
	if err != nil {
		t.Fatal(err)
	}
	swanTarget, err := sketch.DefaultSWANTarget.Candidate(swan)
	if err != nil {
		t.Fatal(err)
	}
	// l_thrsh_1, l_thrsh_2, slope_1, slope_2, slope_3, tp_thrsh_1, tp_thrsh_2
	mrTarget := []float64{40, 150, 1, 2, 3, 5, 2}
	if got := mr.NumHoles(); got != len(mrTarget) {
		t.Fatalf("2-region sketch has %d holes", got)
	}
	systems := []struct {
		name string
		s    *System
	}{
		{"swan", repairSystem(swan, swanTarget.Holes(), 20, 0, 1)},
		{"swan noisy", repairSystem(swan, swanTarget.Holes(), 12, 0.2, 2)},
		{"swan easy", repairSystem(swan, swanTarget.Holes(), 4, 0, 5)},
		{"2-region", repairSystem(mr, mrTarget, 26, 0, 3)},
		{"2-region noisy", repairSystem(mr, mrTarget, 16, 0.15, 4)},
		{"2-region easy", repairSystem(mr, mrTarget, 4, 0, 6)},
	}
	starts := 0
	// check repairs from n random starts on s both ways, returning the
	// outcomes.
	check := func(name string, s *System, n int, seed int64) []repairOutcome {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		var outs []repairOutcome
		for i := 0; i < n; i++ {
			start := randomVector(s.Sketch().Domains(), rng)
			seed := rng.Int63()
			got := runRepair((*System).repair, s, start, seed)
			want := runRepair(referenceRepair, s, start, seed)
			if !got.equal(want) {
				t.Fatalf("%s: start %d (%v): repair = %v, reference = %v", name, i, start, got, want)
			}
			outs = append(outs, got)
			starts++
		}
		return outs
	}
	for si, c := range systems {
		s := c.s
		check(c.name, s, 24, int64(100+si))
		// The pooled batches now hold s's lanes; each mutation must
		// reload them.
		sk := s.Sketch()
		rng := rand.New(rand.NewSource(int64(200 + si)))
		s.InsertPref(1, Pref{Better: sk.Space().Random(rng), Worse: sk.Space().Random(rng)})
		check(c.name+" after InsertPref", s, 6, int64(300+si))
		s.RemovePref(0)
		check(c.name+" after RemovePref", s, 6, int64(400+si))
		s.AddPref(Pref{Better: sk.Space().Random(rng), Worse: sk.Space().Random(rng)})
		seq := check(c.name+" after AddPref", s, 6, int64(500+si))

		// Two goroutines repair the same starts on the shared system;
		// each must reproduce the sequential outcomes.
		var wg sync.WaitGroup
		par := make([][]repairOutcome, 2)
		for g := range par {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(500 + si)))
				for range seq {
					start := randomVector(sk.Domains(), rng)
					par[g] = append(par[g], runRepair((*System).repair, s, start, rng.Int63()))
				}
			}(g)
		}
		wg.Wait()
		for g := range par {
			for i := range seq {
				if !par[g][i].equal(seq[i]) {
					t.Fatalf("%s: goroutine %d start %d: repair = %v, sequential %v", c.name, g, i, par[g][i], seq[i])
				}
			}
		}
	}
	if starts < 200 {
		t.Fatalf("checked %d starts, want at least 200", starts)
	}
}

// BenchmarkRepair repairs a SWAN system of 20 preferences (40
// constraint sides, about what a table1-batch session's repairs see)
// from 64 fixed starts per op. repaired/op counts the starts that
// reach a satisfying vector, a deterministic check that the descent is
// unchanged.
func BenchmarkRepair(b *testing.B) {
	p, _ := swanProblem(b, 20, 86)
	sys := compileSystem(p, nil)
	starts := benchHoles(p, 87)
	domains := p.Sketch.Domains()
	steps := DefaultOptions().RepairSteps
	repaired := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(88))
		for _, start := range starts {
			if _, ok := sys.repair(start, domains, steps, rng); ok {
				repaired++
			}
		}
	}
	b.ReportMetric(float64(repaired)/float64(b.N), "repaired/op")
}
