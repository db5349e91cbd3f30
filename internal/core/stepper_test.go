package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// stepperConfig returns a fast synthesis config without an oracle (the
// stepper supplies its own).
func stepperConfig(seed int64) core.Config {
	opts := solver.DefaultOptions()
	opts.Samples = 150
	opts.RepairRestarts = 5
	opts.RepairSteps = 60
	dopts := solver.DefaultDistinguishOptions()
	dopts.Candidates = 6
	dopts.PairSamples = 250
	dopts.Gamma = 2
	return core.Config{
		Sketch:      sketch.SWAN(),
		Solver:      opts,
		Distinguish: dopts,
		Seed:        seed,
	}
}

func swanTarget(t *testing.T) *sketch.Candidate {
	t.Helper()
	cand, err := sketch.DefaultSWANTarget.Candidate(sketch.SWAN())
	if err != nil {
		t.Fatal(err)
	}
	return cand
}

// driveStepper answers every query from the given oracle, lowest seq
// first, until the session completes, returning the result.
func driveStepper(t *testing.T, st *core.Stepper, user oracle.Oracle) *core.Result {
	t.Helper()
	return driveStepperBatch(t, st, user, func(int) int { return 0 })
}

// answer judges q with the oracle's full-confidence preference.
func answer(t *testing.T, st *core.Stepper, user oracle.Oracle, q core.Query) {
	t.Helper()
	if err := st.AnswerSeq(q.Seq, oracle.Judgment{Pref: user.Compare(q.A, q.B), Confidence: 1}); err != nil {
		t.Fatalf("AnswerSeq(%d): %v", q.Seq, err)
	}
}

// TestStepperMatchesBatch is the inversion's core guarantee: a session
// driven round-by-round through the Stepper produces a transcript
// bit-identical to the batch Run with the same config, seed, and
// answers.
func TestStepperMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	target := swanTarget(t)
	user := oracle.NewGroundTruth(target, 1e-9)

	batchCfg := stepperConfig(21)
	batchCfg.Oracle = user
	batch, err := core.New(batchCfg)
	if err != nil {
		t.Fatal(err)
	}
	batchRes, err := batch.Run()
	if err != nil {
		t.Fatal(err)
	}
	var batchBuf bytes.Buffer
	if _, err := core.Export(batchRes).WriteTo(&batchBuf); err != nil {
		t.Fatal(err)
	}

	st, err := core.NewStepper(stepperConfig(21))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stepRes := driveStepper(t, st, user)
	var stepBuf bytes.Buffer
	if _, err := core.Export(stepRes).WriteTo(&stepBuf); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(batchBuf.Bytes(), stepBuf.Bytes()) {
		t.Errorf("stepper transcript diverged from batch run\nbatch %d bytes, stepper %d bytes",
			batchBuf.Len(), stepBuf.Len())
	}
	if !stepRes.Converged {
		t.Error("stepper session did not converge")
	}
}

// TestStepperSnapshotResume checkpoints a half-finished session and
// resumes it in a fresh stepper, the service layer's recovery shape.
func TestStepperSnapshotResume(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	target := swanTarget(t)
	user := oracle.NewGroundTruth(target, 1e-9)

	st, err := core.NewStepper(stepperConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Answer a prefix of the session, then abandon it.
	for i := 0; i < 12; i++ {
		qs, err := st.NextBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if qs == nil {
			t.Fatalf("session finished after only %d answers", i)
		}
		if len(qs) != 1 || qs[0].Seq != i {
			t.Fatalf("round %d is %v, want one query with Seq=%d", i, qs, i)
		}
		answer(t, st, user, qs[0])
	}
	// Immediately after an answer the loop is computing, so Snapshot
	// refuses; once the next query is parked the state is stable.
	if _, err := st.Snapshot(); err != core.ErrSessionBusy {
		t.Fatalf("Snapshot while computing: got %v, want ErrSessionBusy", err)
	}
	if qs, err := st.NextBatch(ctx); err != nil || qs == nil {
		t.Fatalf("NextBatch before snapshot: qs=%v err=%v", qs, err)
	}
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if len(snap.Preferences) == 0 {
		t.Fatal("snapshot has no preference edges")
	}
	st.Close()

	resumed, err := core.NewStepper(stepperConfig(22))
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	if err := resumed.Preload(snap); err != nil {
		t.Fatalf("Preload: %v", err)
	}
	res := driveStepper(t, resumed, user)
	if !res.Converged {
		t.Error("resumed session did not converge")
	}
	agree := core.Validate(res, user, 1500, rand.New(rand.NewSource(23)))
	if agree < 0.95 {
		t.Errorf("resumed session agreement %.3f, want >= 0.95", agree)
	}
}

func TestStepperAPIErrors(t *testing.T) {
	cfg := stepperConfig(7)
	cfg.Oracle = oracle.NewGroundTruth(swanTarget(t), 0)
	if _, err := core.NewStepper(cfg); err == nil {
		t.Error("NewStepper accepted a config with an Oracle")
	}

	st, err := core.NewStepper(stepperConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.AnswerSeq(0, oracle.Judgment{Pref: oracle.PrefersFirst}); !errors.Is(err, core.ErrNoPendingQuery) {
		t.Errorf("AnswerSeq before any query: got %v, want ErrNoPendingQuery", err)
	}
	if _, err := st.Result(); err != core.ErrSessionRunning {
		t.Errorf("Result before completion: got %v, want ErrSessionRunning", err)
	}
	// A fresh stepper snapshots to an empty transcript.
	snap, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Scenarios) != 0 || len(snap.Preferences) != 0 {
		t.Errorf("fresh snapshot not empty: %d scenarios, %d prefs",
			len(snap.Scenarios), len(snap.Preferences))
	}
	if st.Done() {
		t.Error("fresh stepper reports Done")
	}

	// Start the session, then verify Preload is rejected and a
	// NextBatch with an expired context still returns the pending round.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	qs, err := st.NextBatch(ctx)
	if err != nil || len(qs) != 1 {
		t.Fatalf("first NextBatch: qs=%v err=%v", qs, err)
	}
	if err := st.Preload(&core.Transcript{}); err == nil {
		t.Error("Preload after start succeeded")
	}
	if p := st.Pending(); len(p) != 1 || p[0].Seq != qs[0].Seq {
		t.Errorf("Pending() = %v, want one query with seq %d", p, qs[0].Seq)
	}
	// NextBatch with an expired context still returns the pending round
	// immediately (no blocking needed).
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	qs2, err := st.NextBatch(expired)
	if err != nil || len(qs2) != 1 || qs2[0].Seq != qs[0].Seq {
		t.Errorf("NextBatch with pending round: qs=%v err=%v", qs2, err)
	}
}

// TestStepperClose ensures Close terminates a mid-session loop without
// hanging, and Result reports the cancellation.
func TestStepperClose(t *testing.T) {
	st, err := core.NewStepper(stepperConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := st.NextBatch(ctx); err != nil {
		t.Fatal(err)
	}
	doneClose := make(chan struct{})
	go func() {
		st.Close()
		close(doneClose)
	}()
	select {
	case <-doneClose:
	case <-time.After(60 * time.Second):
		t.Fatal("Close did not return")
	}
	if !st.Done() {
		t.Error("stepper not Done after Close")
	}
	if _, err := st.Result(); err == nil {
		t.Error("Result after mid-session Close returned no error")
	}
}
