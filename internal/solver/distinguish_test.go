package solver

import (
	"context"
	"math/rand"
	"testing"
)

func TestQueryStrategyString(t *testing.T) {
	if SelectMaxGap.String() != "max-gap" || SelectFirst.String() != "first-found" ||
		SelectVoteSplit.String() != "vote-split" {
		t.Error("QueryStrategy strings wrong")
	}
	if QueryStrategy(9).String() == "" {
		t.Error("unknown strategy empty")
	}
}

func TestAllStrategiesFindValidWitnesses(t *testing.T) {
	p, _ := swanProblem(t, 3, 61)
	for _, strategy := range []QueryStrategy{SelectMaxGap, SelectFirst, SelectVoteSplit} {
		dopts := DefaultDistinguishOptions()
		dopts.Strategy = strategy
		w, st, _ := Compile(p, nil).FindDistinguishing(context.Background(), DefaultOptions(), dopts, rand.New(rand.NewSource(62)))
		if st != StatusSat {
			t.Fatalf("%v: status = %v", strategy, st)
		}
		validateWitness(t, p, w, dopts.Gamma)
	}
}

func TestVoteSplitPrefersEvenSplits(t *testing.T) {
	p, _ := swanProblem(t, 3, 63)
	dopts := DefaultDistinguishOptions()
	dopts.Strategy = SelectVoteSplit
	dopts.Candidates = 8
	rng := rand.New(rand.NewSource(64))
	ws, st, _ := Compile(p, nil).FindDistinguishingMany(context.Background(), 3, DefaultOptions(), dopts, rng)
	if st != StatusSat {
		t.Fatalf("status = %v", st)
	}
	for _, w := range ws {
		validateWitness(t, p, w, dopts.Gamma)
	}
}

func TestVoteSplitConvergesInSynthesisShape(t *testing.T) {
	// Vote-split must also reach UNSAT on a behaviorally pinned sketch.
	p, _ := swanProblem(t, 0, 65)
	dopts := DefaultDistinguishOptions()
	dopts.Strategy = SelectVoteSplit
	// Unconstrained SWAN sketch: plenty of disagreement exists.
	if _, st, _ := Compile(p, nil).FindDistinguishing(context.Background(), DefaultOptions(), dopts, rand.New(rand.NewSource(66))); st != StatusSat {
		t.Fatalf("unconstrained status = %v", st)
	}
}
