package solver

import (
	"context"
	"math/rand"
	"time"

	"compsynth/internal/expr"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// DistinguishPool is the raw material of an active query-planning
// round: a pool of consistent candidate objectives, a shared pool of
// random scenario pairs, and the full score matrix between them. Where
// FindDistinguishingMany collapses this material into witnesses with a
// fixed strategy, the pool hands it to an external planner (package
// planner) that can weigh every pair by expected information gain.
type DistinguishPool struct {
	// Cands are consistent hole vectors (diverse max-min subset of the
	// sampled version space).
	Cands [][]float64
	// X1s/X2s are the shared scenario pair pool; pair s is (X1s[s], X2s[s]).
	X1s, X2s []scenario.Scenario
	// Scores[c][s] = f_c(X1s[s]) − f_c(X2s[s]): positive means candidate
	// c ranks X1s[s] above X2s[s].
	Scores [][]float64
	// Gamma is the behavioral resolution the scores were taken at: a
	// candidate only "votes" on a pair when |score| exceeds Gamma.
	Gamma float64
	// Space is the sketch's metric space (for pair-distinctness tests).
	Space *scenario.Space
}

// Vote returns candidate c's vote on pair s at the pool's Gamma
// resolution: +1 (prefers X1s[s]), −1 (prefers X2s[s]), or 0
// (behaviorally indifferent).
func (p *DistinguishPool) Vote(c, s int) int {
	switch d := p.Scores[c][s]; {
	case d > p.Gamma:
		return 1
	case d < -p.Gamma:
		return -1
	}
	return 0
}

// SamePair reports whether two witnesses use (nearly) the same scenario
// pair in either orientation — the distinctness test
// FindDistinguishingMany applies when assembling a multi-pair round,
// exported for external planners composing their own rounds.
func SamePair(a, b *Distinguishing, space *scenario.Space) bool {
	return samePair(a, b, space)
}

// FindDistinguishPool builds the planning pool: up to dopts.Candidates
// diverse consistent candidates scored against dopts.PairSamples random
// scenario pairs.
//
// Verdicts mirror FindDistinguishingMany's first stage:
//   - StatusSat: pool built (≥ 2 candidates; disagreement not yet
//     established — that is the planner's judgment).
//   - StatusUnsat: exactly one consistent candidate could be found; no
//     disagreement is possible and the synthesis has converged.
//   - StatusUnknown: no consistent candidate at all.
func (s Search) FindDistinguishPool(ctx context.Context, opts Options, dopts DistinguishOptions, rng *rand.Rand) (*DistinguishPool, Status, error) {
	sys := s.sys
	sys.noteSearch()
	var start time.Time
	if sys.metrics != nil {
		start = time.Now()
	}
	pool, st, err := sys.findDistinguishPool(ctx, opts, dopts, rng)
	if sys.metrics != nil {
		sys.metrics.observe(sys.metrics.distinguishSearches, time.Since(start), st, true)
	}
	return pool, st, err
}

func (s *System) findDistinguishPool(ctx context.Context, opts Options, dopts DistinguishOptions, rng *rand.Rand) (*DistinguishPool, Status, error) {
	cands, err := s.findDiverse(ctx, dopts.Candidates, opts, rng)
	if err != nil {
		return nil, StatusUnknown, err
	}
	if len(cands) == 0 {
		return nil, StatusUnknown, nil
	}
	if len(cands) == 1 {
		return nil, StatusUnsat, nil
	}

	space := s.sk.Space()
	// Pre-draw the scenario pair pool once; all candidates are scored
	// against the same pool so that disagreements are comparable.
	x1s := space.RandomN(rng, dopts.PairSamples)
	x2s := space.RandomN(rng, dopts.PairSamples)
	scores, err := scoreMatrix(ctx, s.sk, cands, x1s, x2s)
	if err != nil {
		return nil, StatusUnknown, err
	}
	return &DistinguishPool{
		Cands:  cands,
		X1s:    x1s,
		X2s:    x2s,
		Scores: scores,
		Gamma:  dopts.Gamma,
		Space:  space,
	}, StatusSat, nil
}

// scoreMatrix returns scores[c][s] = f_c(x1s[s]) − f_c(x2s[s]) for
// every candidate hole vector c, bit-identical to two Sketch.Eval calls
// per entry. The pair pool is loaded into a scenario batch of the
// sketch body scoreLanes lanes at a time, pair s's two sides half a
// chunk apart, and each candidate is one pass per chunk with its holes
// broadcast. Cancellation is checked before each chunk.
func scoreMatrix(ctx context.Context, sk *sketch.Sketch, cands [][]float64, x1s, x2s []scenario.Scenario) ([][]float64, error) {
	n := len(x1s)
	scores := make([][]float64, len(cands))
	for ci := range scores {
		scores[ci] = make([]float64, n)
	}
	b := expr.NewScenarioBatch(sk.Program(), scoreLanes)
	for lo := 0; lo < n; lo += scoreLanes / 2 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		k := min(scoreLanes/2, n-lo)
		for i := 0; i < k; i++ {
			b.SetVars(i, x1s[lo+i])
			b.SetVars(k+i, x2s[lo+i])
		}
		for ci, c := range cands {
			out := b.Eval(c, 2*k)
			row := scores[ci][lo : lo+k]
			for i := range row {
				row[i] = out[i] - out[k+i]
			}
		}
	}
	return scores, nil
}
