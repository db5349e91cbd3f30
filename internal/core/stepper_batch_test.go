package core_test

// Tests for the Stepper's batched query surface: planner rounds of
// k > 1 queries yield as one pending batch with per-query sequence
// numbers, answers are accepted in any order, and the result is
// bit-identical to driving the same config through the blocking
// in-process Run — the service layer's out-of-order judgment endpoint
// is built on exactly this contract.

import (
	"bytes"
	"context"
	"slices"
	"testing"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
)

// batchStepperConfig is stepperConfig with a multi-query planner round.
func batchStepperConfig(seed int64) core.Config {
	cfg := stepperConfig(seed)
	cfg.PairsPerIteration = 3
	return cfg
}

// driveStepperBatch answers whole rounds through NextBatch/AnswerSeq.
// pick reorders each round: given the number of open queries it returns
// the index (into the pending slice) to answer next.
func driveStepperBatch(t *testing.T, st *core.Stepper, user oracle.Oracle, pick func(n int) int) *core.Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for {
		qs, err := st.NextBatch(ctx)
		if err != nil {
			t.Fatalf("NextBatch: %v", err)
		}
		if qs == nil {
			break
		}
		for len(qs) > 0 {
			i := pick(len(qs))
			q := qs[i]
			j := oracle.Judgment{Pref: user.Compare(q.A, q.B), Confidence: 1}
			if err := st.AnswerSeq(q.Seq, j); err != nil {
				t.Fatalf("AnswerSeq(%d): %v", q.Seq, err)
			}
			qs = append(qs[:i], qs[i+1:]...)
		}
	}
	res, err := st.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return res
}

// TestStepperBatchMatchesRun pins the batched inversion guarantee: a
// session answered round-by-round through NextBatch/AnswerSeq — in
// order AND in reverse order — produces a transcript bit-identical to
// the blocking Run with the same config and seed. Answer order within a
// round must not matter because judgments are recorded positionally in
// round order, not arrival order.
func TestStepperBatchMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	target := swanTarget(t)

	ref := func() []byte {
		cfg := batchStepperConfig(21)
		cfg.Oracle = oracle.NewGroundTruth(target, 1e-9)
		s, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := core.Export(res).WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	for name, pick := range map[string]func(int) int{
		"in-order":      func(int) int { return 0 },
		"reverse-order": func(n int) int { return n - 1 },
	} {
		t.Run(name, func(t *testing.T) {
			st, err := core.NewStepper(batchStepperConfig(21))
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			res := driveStepperBatch(t, st, oracle.NewGroundTruth(target, 1e-9), pick)
			var buf bytes.Buffer
			if _, err := core.Export(res).WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), ref) {
				t.Errorf("%s stepper transcript diverged from batch run (%d vs %d bytes)",
					name, buf.Len(), len(ref))
			}
		})
	}
}

// TestStepperBatchSeqContract pins the batch bookkeeping: rounds carry
// consecutive sequence numbers, a partly answered round is served again
// as its open queries in sequence order, and stale and duplicate
// sequence numbers are rejected.
func TestStepperBatchSeqContract(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	target := swanTarget(t)
	user := oracle.NewGroundTruth(target, 1e-9)
	st, err := core.NewStepper(batchStepperConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The initial ranking arrives as rounds of one (the ranking is
	// sequential by construction); answer them until a multi-query
	// planner round shows up.
	var qs []core.Query
	for {
		qs, err = st.NextBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if qs == nil {
			t.Skip("session converged before a multi-query round; nothing to exercise")
		}
		if len(qs) > 1 {
			break
		}
		answer(t, st, user, qs[0])
	}

	for i := 1; i < len(qs); i++ {
		if qs[i].Seq != qs[i-1].Seq+1 {
			t.Fatalf("round seqs not consecutive: %d then %d", qs[i-1].Seq, qs[i].Seq)
		}
	}

	// Answer the LAST query of the round by seq; the round must still
	// lead with the first.
	last := qs[len(qs)-1]
	if err := st.AnswerSeq(last.Seq, oracle.Judgment{Pref: user.Compare(last.A, last.B)}); err != nil {
		t.Fatal(err)
	}
	if err := st.AnswerSeq(last.Seq, oracle.Judgment{}); err == nil {
		t.Error("duplicate AnswerSeq accepted")
	}
	if err := st.AnswerSeq(last.Seq+1000, oracle.Judgment{}); err == nil {
		t.Error("unknown seq accepted")
	}
	open, err := st.NextBatch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) != len(qs)-1 || open[0].Seq != qs[0].Seq {
		t.Errorf("NextBatch after out-of-order answer returned %v, want seqs %d..%d",
			open, qs[0].Seq, qs[len(qs)-2].Seq)
	}
	// With the round still open, NextBatch computes nothing: even an
	// expired context gets the same open queries.
	expired, cancelExpired := context.WithCancel(context.Background())
	cancelExpired()
	again, err := st.NextBatch(expired)
	seqs := func(qs []core.Query) (out []int) {
		for _, q := range qs {
			out = append(out, q.Seq)
		}
		return out
	}
	if err != nil || !slices.Equal(seqs(again), seqs(open)) {
		t.Errorf("NextBatch again with the round open: seqs %v, %v; want %v", seqs(again), err, seqs(open))
	}
	// Resolve the rest of the round, lowest seq first.
	for i := 0; i+1 < len(qs); i++ {
		answer(t, st, user, qs[i])
	}
	// The session must proceed to a fresh round (or finish) now.
	if _, err := st.NextBatch(ctx); err != nil {
		t.Fatalf("NextBatch after completed round: %v", err)
	}
	st.Close()
}
