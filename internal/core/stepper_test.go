package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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

// hasEdge reports whether the transcript records the user's answer to
// q as a direct preference edge.
func hasEdge(tr *core.Transcript, q core.Query, pref oracle.Preference) bool {
	id := func(sc []float64) int {
		for i, s := range tr.Scenarios {
			if slices.Equal(s, sc) {
				return i
			}
		}
		return -1
	}
	edge := [2]int{id(q.A), id(q.B)}
	if pref == oracle.PrefersSecond {
		edge[0], edge[1] = edge[1], edge[0]
	}
	return slices.Contains(tr.Preferences, edge)
}

// TestStepperSnapshotResume checkpoints a half-finished session and
// resumes it in a fresh stepper, the service layer's recovery shape.
// AnswerSeq applies a completed round before it returns, so a Snapshot
// taken right after an answer, before any NextBatch, already holds the
// edge that answer recorded.
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
	// Answer a prefix of the session, then abandon it. Ranking the five
	// initial scenarios asks at most ten questions, so every answer
	// from the eleventh on is a query-loop answer that adds an edge.
	var snap *core.Transcript
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
		snap = st.Snapshot()
		if pref := user.Compare(qs[0].A, qs[0].B); i >= 10 && !hasEdge(snap, qs[0], pref) {
			t.Fatalf("snapshot right after answer %d lacks its edge", i)
		}
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
	snap := st.Snapshot()
	if len(snap.Scenarios) != 0 || len(snap.Preferences) != 0 {
		t.Errorf("fresh snapshot not empty: %d scenarios, %d prefs",
			len(snap.Scenarios), len(snap.Preferences))
	}

	// Start the session, then verify Preload is rejected, the session
	// is still running, and a NextBatch with an expired context returns
	// the pending round: with a round pending, NextBatch computes
	// nothing.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	qs, err := st.NextBatch(ctx)
	if err != nil || len(qs) != 1 {
		t.Fatalf("first NextBatch: qs=%v err=%v", qs, err)
	}
	if err := st.Preload(&core.Transcript{}); err == nil {
		t.Error("Preload after start succeeded")
	}
	if _, err := st.Result(); err != core.ErrSessionRunning {
		t.Errorf("Result with a round pending: got %v, want ErrSessionRunning", err)
	}
	expired, cancel2 := context.WithCancel(context.Background())
	cancel2()
	qs2, err := st.NextBatch(expired)
	if err != nil || len(qs2) != 1 || qs2[0].Seq != qs[0].Seq {
		t.Errorf("NextBatch with pending round: qs=%v err=%v", qs2, err)
	}
}

// TestStepperClose races Close against an in-flight NextBatch: Close
// returns at once, without waiting for the computation, the NextBatch
// fails, Result reports the failure, and every later call fails too.
// The first iteration finds no question (a huge Gamma makes it unsat),
// so its OnIteration hook runs inside NextBatch and holds it there
// until Close has returned.
func TestStepperClose(t *testing.T) {
	cfg := stepperConfig(9)
	cfg.InitialScenarios = -1
	cfg.Distinguish.Gamma = 1e9
	inHook, release := make(chan struct{}), make(chan struct{})
	cfg.OnIteration = func(core.IterationStat) {
		close(inHook)
		<-release
	}
	st, err := core.NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		qs, err := st.NextBatch(context.Background())
		if err == nil {
			err = fmt.Errorf("NextBatch returned round %v after Close", qs)
		}
		errc <- err
	}()
	select {
	case <-inHook:
	case <-time.After(time.Minute):
		t.Fatal("NextBatch never reached its first iteration")
	}
	closed := make(chan struct{})
	go func() {
		st.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited for the in-flight NextBatch")
	}
	close(release)
	var stepErr error
	select {
	case stepErr = <-errc:
	case <-time.After(time.Minute):
		t.Fatal("NextBatch did not return after Close")
	}
	if !errors.Is(stepErr, context.Canceled) {
		t.Errorf("NextBatch after Close: %v, want context.Canceled", stepErr)
	}
	if _, err := st.Result(); err == nil || err == core.ErrSessionRunning {
		t.Errorf("Result after Close during NextBatch: %v, want the failure", err)
	}
	if qs, err := st.NextBatch(context.Background()); err == nil {
		t.Errorf("NextBatch after Close returned %v, nil", qs)
	}
	if err := st.AnswerSeq(0, oracle.Judgment{Pref: oracle.PrefersFirst}); err == nil {
		t.Error("AnswerSeq after Close succeeded")
	}
}

// TestStepperParkedHoldsNoGoroutine parks sessions at their first round:
// a parked session is state, not a goroutine, so the process's
// goroutine count does not grow with the number of parked sessions.
func TestStepperParkedHoldsNoGoroutine(t *testing.T) {
	const n = 16
	before := runtime.NumGoroutine()
	var parked []*core.Stepper
	for i := range n {
		st, err := core.NewStepper(stepperConfig(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if qs, err := st.NextBatch(context.Background()); err != nil || len(qs) == 0 {
			t.Fatalf("session %d did not park: %v (round=%v)", i, err, qs)
		}
		parked = append(parked, st)
	}
	if grown := runtime.NumGoroutine() - before; grown >= n/4 {
		t.Errorf("%d parked sessions grew the goroutine count by %d", len(parked), grown)
	}
}
