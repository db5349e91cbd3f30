package solver

import (
	"context"
	"math"
	"math/rand"

	"compsynth/internal/scenario"
)

// Distinguishing is a witness of the paper's §4.2 query: two hole
// vectors A and B, both consistent with the preference constraints, and
// two scenarios X1, X2 they rank oppositely:
//
//	f_A(X1) > f_A(X2)   and   f_B(X2) > f_B(X1)
//
// Gap is the smaller of the two strict margins; it measures how
// decisively the candidates disagree.
type Distinguishing struct {
	A, B   []float64
	X1, X2 scenario.Scenario
	Gap    float64
}

// QueryStrategy selects which distinguishing pair to put in front of
// the user when several exist.
type QueryStrategy int

// Query strategies.
const (
	// SelectMaxGap picks the pair on which two candidates disagree most
	// decisively — it splits the version space along its widest
	// behavioral axis (the default).
	SelectMaxGap QueryStrategy = iota
	// SelectFirst takes the first disagreement found; cheapest per
	// iteration, typically needs more iterations.
	SelectFirst
	// SelectVoteSplit picks the pair whose ordering divides the whole
	// candidate pool most evenly (maximum disagreement entropy): the
	// answer eliminates close to half the sampled version space
	// regardless of which way the user votes, in the spirit of binary
	// search over behaviors.
	SelectVoteSplit
)

func (s QueryStrategy) String() string {
	switch s {
	case SelectMaxGap:
		return "max-gap"
	case SelectFirst:
		return "first-found"
	case SelectVoteSplit:
		return "vote-split"
	}
	return "QueryStrategy(?)"
}

// DistinguishOptions tune the distinguishing-query search.
type DistinguishOptions struct {
	// Candidates is the number of diverse consistent candidates to pit
	// against each other.
	Candidates int
	// PairSamples is the number of scenario pairs sampled per candidate
	// pair.
	PairSamples int
	// Gamma is the behavioral resolution: a disagreement only counts
	// when both candidates' score differences exceed Gamma in opposite
	// directions. This is the δ of the solver's δ-decision: once no
	// disagreement above Gamma exists, the objective is pinned down to
	// that resolution and the synthesis has converged.
	Gamma float64
	// MaximizeGap selects the most decisive disagreement found instead
	// of the first one. Deprecated shim: it maps to Strategy when
	// Strategy is unset — MaximizeGap=true means SelectMaxGap (also the
	// zero default), false means SelectFirst.
	MaximizeGap bool
	// Strategy selects among the disagreements found; see QueryStrategy.
	Strategy QueryStrategy
}

// DefaultDistinguishOptions returns the tuning used by the synthesizer.
func DefaultDistinguishOptions() DistinguishOptions {
	return DistinguishOptions{
		Candidates:  8,
		PairSamples: 600,
		Gamma:       0.5,
		MaximizeGap: true,
		Strategy:    SelectMaxGap,
	}
}

// effectiveStrategy resolves the Strategy/MaximizeGap pair.
func (d DistinguishOptions) effectiveStrategy() QueryStrategy {
	if d.Strategy != SelectMaxGap {
		return d.Strategy
	}
	if !d.MaximizeGap {
		return SelectFirst
	}
	return SelectMaxGap
}

func (s *System) findDistinguishingMany(ctx context.Context, k int, opts Options, dopts DistinguishOptions, rng *rand.Rand) ([]*Distinguishing, Status, error) {
	if k < 1 {
		k = 1
	}
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
	var found []*Distinguishing

	// Pre-draw the scenario pair pool once; all candidate pairs are
	// tested against the same pool so that disagreements are comparable.
	x1s := space.RandomN(rng, dopts.PairSamples)
	x2s := space.RandomN(rng, dopts.PairSamples)

	scores, err := scoreMatrix(ctx, s.sk, cands, x1s, x2s)
	if err != nil {
		return nil, StatusUnknown, err
	}

	strategy := dopts.effectiveStrategy()
	if strategy == SelectVoteSplit {
		found = voteSplitWitnesses(cands, scores, x1s, x2s, dopts)
	} else {
		for ai := 0; ai < len(cands); ai++ {
			for bi := ai + 1; bi < len(cands); bi++ {
				var best *Distinguishing
				for si := 0; si < dopts.PairSamples; si++ {
					da, db := scores[ai][si], scores[bi][si]
					var w *Distinguishing
					switch {
					case da > dopts.Gamma && db < -dopts.Gamma:
						w = &Distinguishing{
							A: cands[ai], B: cands[bi],
							X1: x1s[si], X2: x2s[si],
							Gap: math.Min(da, -db),
						}
					case db > dopts.Gamma && da < -dopts.Gamma:
						// Same disagreement with roles swapped.
						w = &Distinguishing{
							A: cands[bi], B: cands[ai],
							X1: x1s[si], X2: x2s[si],
							Gap: math.Min(db, -da),
						}
					default:
						continue
					}
					if strategy == SelectFirst {
						best = w
						break
					}
					if best == nil || w.Gap > best.Gap {
						best = w
					}
				}
				if best != nil {
					found = append(found, best)
				}
			}
		}
		sortByGap(found)
	}
	if len(found) == 0 {
		return nil, StatusUnsat, nil
	}

	// Greedily keep witnesses whose scenario pairs are distinct from
	// already-kept ones, so a multi-pair query gives the user genuinely
	// different comparisons.
	var out []*Distinguishing
	for _, w := range found {
		if len(out) == k {
			break
		}
		fresh := true
		for _, kept := range out {
			if samePair(w, kept, space) {
				fresh = false
				break
			}
		}
		if fresh {
			out = append(out, w)
		}
	}
	return out, StatusSat, nil
}

// voteSplitWitnesses ranks scenario pairs by how evenly the candidate
// pool splits over their ordering and returns one witness per usable
// pair, best split first. The witness uses the most decided candidate
// on each side of the split.
func voteSplitWitnesses(cands [][]float64, scores [][]float64, x1s, x2s []scenario.Scenario, dopts DistinguishOptions) []*Distinguishing {
	type scored struct {
		w     *Distinguishing
		split int // min(#prefer-X1, #prefer-X2): higher is more even
	}
	var all []scored
	for si := 0; si < dopts.PairSamples; si++ {
		bestA, bestB := -1, -1
		nA, nB := 0, 0
		for ci := range cands {
			s := scores[ci][si]
			switch {
			case s > dopts.Gamma:
				nA++
				if bestA < 0 || s > scores[bestA][si] {
					bestA = ci
				}
			case s < -dopts.Gamma:
				nB++
				if bestB < 0 || s < scores[bestB][si] {
					bestB = ci
				}
			}
		}
		if nA == 0 || nB == 0 {
			continue
		}
		split := nA
		if nB < split {
			split = nB
		}
		all = append(all, scored{
			w: &Distinguishing{
				A: cands[bestA], B: cands[bestB],
				X1: x1s[si], X2: x2s[si],
				Gap: math.Min(scores[bestA][si], -scores[bestB][si]),
			},
			split: split,
		})
	}
	// Sort by split desc, then gap desc (insertion sort; small lists in
	// practice after the split filter, and stability keeps pair-sample
	// order as the final tiebreak for determinism).
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && (all[j].split > all[j-1].split ||
			all[j].split == all[j-1].split && all[j].w.Gap > all[j-1].w.Gap); j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	out := make([]*Distinguishing, len(all))
	for i, s := range all {
		out[i] = s.w
	}
	return out
}

func sortByGap(ws []*Distinguishing) {
	// Insertion sort: the slice is small (≤ number of candidate pairs).
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Gap > ws[j-1].Gap; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// samePair reports whether two witnesses use (nearly) the same scenario
// pair in either orientation. The tolerance is relative to the space's
// metric ranges.
func samePair(a, b *Distinguishing, space *scenario.Space) bool {
	tol := 0.0
	for _, r := range space.Ranges() {
		tol += r.Width()
	}
	tol *= 1e-3 / float64(space.Dim())
	close := func(x, y scenario.Scenario) bool {
		return x.AlmostEqual(y, tol)
	}
	return close(a.X1, b.X1) && close(a.X2, b.X2) ||
		close(a.X1, b.X2) && close(a.X2, b.X1)
}
