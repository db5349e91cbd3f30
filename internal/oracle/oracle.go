// Package oracle models the user of the comparative synthesizer.
//
// The paper's preliminary evaluation replaces the human architect with
// an oracle that ranks scenarios by evaluating the hidden ground-truth
// objective (Figure 2b). This package provides that oracle plus the
// user models needed by the robustness extensions: noisy users who
// sometimes answer wrong, indecisive users who cannot separate close
// scenarios, a query counter, and an interactive oracle reading answers
// from an io.Reader (a human on a terminal).
package oracle

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"

	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// Preference is the answer to "compare scenario A with scenario B".
type Preference int

// Possible answers.
const (
	// Indifferent means the user cannot or will not order the pair.
	Indifferent Preference = iota
	// PrefersFirst means A is strictly preferred.
	PrefersFirst
	// PrefersSecond means B is strictly preferred.
	PrefersSecond
)

func (p Preference) String() string {
	switch p {
	case PrefersFirst:
		return "first"
	case PrefersSecond:
		return "second"
	case Indifferent:
		return "indifferent"
	}
	return fmt.Sprintf("Preference(%d)", int(p))
}

// Oracle answers preference queries over scenarios.
type Oracle interface {
	// Compare orders two scenarios by the user's (possibly hidden)
	// objective.
	Compare(a, b scenario.Scenario) Preference
}

// GroundTruth is the paper's evaluation oracle: it ranks scenarios by a
// known target objective function. TieEps treats score differences at
// or below the threshold as indistinguishable, modeling a user who
// cannot discriminate nearly-equal designs.
type GroundTruth struct {
	Target *sketch.Candidate
	TieEps float64
}

// NewGroundTruth returns a ground-truth oracle for the target candidate.
func NewGroundTruth(target *sketch.Candidate, tieEps float64) *GroundTruth {
	return &GroundTruth{Target: target, TieEps: tieEps}
}

// Compare implements Oracle.
func (g *GroundTruth) Compare(a, b scenario.Scenario) Preference {
	diff := g.Target.Eval(a) - g.Target.Eval(b)
	switch {
	case diff > g.TieEps:
		return PrefersFirst
	case diff < -g.TieEps:
		return PrefersSecond
	default:
		return Indifferent
	}
}

// Noisy wraps an oracle and flips strict answers with probability
// FlipProb — the inconsistent-user model of the paper's §6.1. Indifferent
// answers pass through unchanged.
//
// Rng is required and must be privately seeded (NewNoisy enforces it):
// drawing from shared package-level randomness would make the flip
// sequence depend on every other rand consumer in the process, so
// batched and sequential runs of the same queries could not be
// compared. With a private Rng the flips are a pure function of the
// seed and the answer order, and AnswerBatch answers in query order —
// a batch flips exactly like the same queries asked one by one.
type Noisy struct {
	Inner    Oracle
	FlipProb float64
	Rng      *rand.Rand
}

// NewNoisy builds the §6.1 inconsistent-user model. The caller must
// supply a privately seeded rng; NewNoisy panics on nil rather than
// falling back to package-level randomness, which would break
// batched-vs-sequential reproducibility.
func NewNoisy(inner Oracle, flipProb float64, rng *rand.Rand) *Noisy {
	if rng == nil {
		panic("oracle: NewNoisy requires a seeded *rand.Rand")
	}
	return &Noisy{Inner: inner, FlipProb: flipProb, Rng: rng}
}

// Compare implements Oracle.
func (n *Noisy) Compare(a, b scenario.Scenario) Preference {
	p := n.Inner.Compare(a, b)
	if p == Indifferent || n.Rng.Float64() >= n.FlipProb {
		return p
	}
	if p == PrefersFirst {
		return PrefersSecond
	}
	return PrefersFirst
}

// Fatigued models user fatigue: after Patience strict answers, each
// further query is answered Indifferent with a probability that grows
// linearly (reaching 1 at 2×Patience). Paper §4.3 notes ~30 queries is
// "a bit excessive if a human user were participating"; this model lets
// experiments quantify how partial engagement degrades the result.
type Fatigued struct {
	Inner    Oracle
	Patience int
	Rng      *rand.Rand
	answered int
}

// NewFatigued builds the fatigue model. Like NewNoisy it demands a
// privately seeded rng so the indifference sequence is a pure function
// of the seed and the answer order (batched-vs-sequential reproducible).
func NewFatigued(inner Oracle, patience int, rng *rand.Rand) *Fatigued {
	if rng == nil {
		panic("oracle: NewFatigued requires a seeded *rand.Rand")
	}
	return &Fatigued{Inner: inner, Patience: patience, Rng: rng}
}

// Compare implements Oracle.
func (f *Fatigued) Compare(a, b scenario.Scenario) Preference {
	if f.Patience > 0 && f.answered >= f.Patience {
		over := float64(f.answered-f.Patience) / float64(f.Patience)
		if over > 1 {
			over = 1
		}
		if f.Rng.Float64() < over {
			f.answered++
			return Indifferent
		}
	}
	f.answered++
	return f.Inner.Compare(a, b)
}

// Answered returns the number of queries the user has been shown.
func (f *Fatigued) Answered() int { return f.answered }

// Counting wraps an oracle and counts queries; the experiment harness
// uses it to report the number of interactions.
type Counting struct {
	Inner   Oracle
	Queries int
}

// Compare implements Oracle.
func (c *Counting) Compare(a, b scenario.Scenario) Preference {
	c.Queries++
	return c.Inner.Compare(a, b)
}

// Interactive prompts a human for every comparison. Answers are read
// line by line: "1"/"a" prefers the first scenario, "2"/"b" the second,
// anything starting with "=" or "s" (skip) is indifferent.
type Interactive struct {
	Space *scenario.Space
	In    *bufio.Reader
	Out   io.Writer
}

// NewInteractive builds an interactive oracle over the given streams.
func NewInteractive(space *scenario.Space, in io.Reader, out io.Writer) *Interactive {
	return &Interactive{Space: space, In: bufio.NewReader(in), Out: out}
}

// Compare implements Oracle.
func (ia *Interactive) Compare(a, b scenario.Scenario) Preference {
	for {
		fmt.Fprintf(ia.Out, "Which design is preferable?\n  [1] %s\n  [2] %s\n  [=] indifferent\n> ",
			ia.Space.Format(a), ia.Space.Format(b))
		line, err := ia.In.ReadString('\n')
		if err != nil && line == "" {
			// Stream closed: safest neutral answer.
			return Indifferent
		}
		switch strings.ToLower(strings.TrimSpace(line)) {
		case "1", "a", "first":
			return PrefersFirst
		case "2", "b", "second":
			return PrefersSecond
		case "=", "s", "skip", "indifferent", "":
			return Indifferent
		}
		fmt.Fprintln(ia.Out, "please answer 1, 2 or =")
		if err != nil {
			return Indifferent
		}
	}
}

// Rank orders scenarios best-first using pairwise oracle queries,
// grouping indistinguishable scenarios. It returns groups of indices
// into scs: every scenario in an earlier group is preferred over every
// scenario in later groups (per the oracle's answers during the sort).
//
// The sort is an insertion sort, so it needs O(n²) comparisons in the
// worst case but answers are safe even for inconsistent (noisy)
// oracles — it always terminates with some total preorder.
func Rank(o Oracle, scs []scenario.Scenario) [][]int {
	r := NewRanker(len(scs))
	for i, j, ok := r.Next(); ok; i, j, ok = r.Next() {
		r.Answer(o.Compare(scs[i], scs[j]))
	}
	return r.Groups()
}

// Ranker is Rank's insertion sort as explicit state, for a caller that
// cannot block on an oracle: Next names the next pair to compare and
// Answer takes the oracle's preference for it. Each scenario is
// compared with the representative (first member) of every group in
// turn, best group first. Preferred, it opens a new group before that
// one; indifferent, it joins it; beaten by every group, it opens a new
// last group.
type Ranker struct {
	n      int
	groups [][]int
	i, gi  int // the scenario being placed and the group it meets next
}

// NewRanker starts ranking n scenarios, identified by index.
func NewRanker(n int) *Ranker { return &Ranker{n: n} }

// Next returns the pair the sort asks about next: scenario i against
// scenario j, the representative of a group. ok is false once every
// scenario is placed. Ranking two or more scenarios asks at least one
// question. Next is idempotent until the next Answer.
func (r *Ranker) Next() (i, j int, ok bool) {
	for r.i < r.n && r.gi == len(r.groups) {
		r.groups = append(r.groups, []int{r.i})
		r.i, r.gi = r.i+1, 0
	}
	if r.i == r.n {
		return 0, 0, false
	}
	return r.i, r.groups[r.gi][0], true
}

// Answer applies the oracle's preference for the pair Next returned.
func (r *Ranker) Answer(p Preference) {
	switch p {
	case PrefersFirst:
		r.groups = slices.Insert(r.groups, r.gi, []int{r.i})
	case Indifferent:
		r.groups[r.gi] = append(r.groups[r.gi], r.i)
	default:
		r.gi++
		return
	}
	r.i, r.gi = r.i+1, 0
}

// Groups returns the ranking so far, best group first.
func (r *Ranker) Groups() [][]int { return r.groups }

// Agreement measures how often two oracles order scenario pairs the
// same way over a set of probe pairs, counting only pairs where both
// give a strict answer. It returns the fraction in [0,1] and the number
// of strict pairs considered; synthesis validation uses it to compare a
// synthesized objective with the ground truth.
func Agreement(a, b Oracle, pairs [][2]scenario.Scenario) (float64, int) {
	agree, strict := 0, 0
	for _, pr := range pairs {
		pa := a.Compare(pr[0], pr[1])
		pb := b.Compare(pr[0], pr[1])
		if pa == Indifferent || pb == Indifferent {
			continue
		}
		strict++
		if pa == pb {
			agree++
		}
	}
	if strict == 0 {
		return 1, 0
	}
	return float64(agree) / float64(strict), strict
}

// RandomPairs draws n random scenario pairs from the space, skipping
// pairs whose two scenarios are nearly identical.
func RandomPairs(space *scenario.Space, n int, rng *rand.Rand) [][2]scenario.Scenario {
	tol := 0.0
	for _, r := range space.Ranges() {
		tol = math.Max(tol, r.Width()*1e-6)
	}
	out := make([][2]scenario.Scenario, 0, n)
	for len(out) < n {
		a, b := space.Random(rng), space.Random(rng)
		if a.AlmostEqual(b, tol) {
			continue
		}
		out = append(out, [2]scenario.Scenario{a, b})
	}
	return out
}
