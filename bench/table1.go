package main

// table1-batch drives sessions in-process through core.Stepper, the
// paper's unit of work with no serving layer around it.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// table1Config is the core.Config a default SWAN SessionSpec{Seed}
// materializes into inside the service; the output check compares the
// transcripts against service.BatchRun, so any drift shows up there.
func table1Config(seed int64, stats *solver.Stats) core.Config {
	opts := solver.DefaultOptions()
	opts.Stats = stats
	return core.Config{
		Sketch:      sketch.SWAN(),
		Seed:        seed,
		Solver:      opts,
		Distinguish: solver.DefaultDistinguishOptions(),
	}
}

// span times one in-process call for the traced run.
func span1(rec *recorder, layer, name, session string, fn func()) {
	if rec == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	rec.record(layer, name, "", session, start, time.Now(), 0)
}

// driveStepper runs one session to its end. It returns the set-up time:
// building the synthesizer up to a stepper ready for its first round.
func driveStepper(r *sessionRun, rec *recorder, user oracle.Oracle, checked bool) time.Duration {
	stats := &solver.Stats{}
	r.start = time.Now()
	st, err := core.NewStepper(table1Config(r.seed, stats))
	setup := time.Since(r.start)
	if err != nil {
		r.err = err
		return setup
	}
	defer st.Close()
	ctx := context.Background()
	phase := phaseTracker{limit: initialScenarios}
	roundStart := r.start
	first := true
	for {
		var qs []core.Query
		span1(rec, layerCore, "NextBatch", r.id, func() { qs, err = st.NextBatch(ctx) })
		read := time.Now()
		ms := float64(read.Sub(roundStart)) / 1e6
		if err != nil {
			r.err = fmt.Errorf("session %s: %w", r.id, err)
			return setup
		}
		if qs == nil {
			r.end = read
			r.rounds = append(r.rounds, ms)
			break
		}
		pairs := make([][2][]float64, len(qs))
		for i, q := range qs {
			pairs[i] = [2][]float64{q.A, q.B}
		}
		r.allRounds++
		if !phase.ranking(pairs) {
			r.solverRounds++
			r.solverQueries += len(qs)
			r.rounds = append(r.rounds, ms)
		} else if first {
			r.rounds = append(r.rounds, ms)
		}
		first = false
		for _, q := range qs {
			j := oracle.Judgment{Pref: judge(rec, user, q.A, q.B)}
			sent := time.Now()
			span1(rec, layerCore, "AnswerSeq", r.id, func() { err = st.AnswerSeq(q.Seq, j) })
			if err != nil {
				r.err = fmt.Errorf("session %s: %w", r.id, err)
				return setup
			}
			r.acks = append(r.acks, float64(time.Since(sent))/1e6)
			r.answers++
			r.posted++
			roundStart = sent
		}
	}
	snap := stats.Snapshot()
	r.effort = &snap
	res, err := st.Result()
	if err != nil {
		r.failed, r.failure = true, err.Error()
		return setup
	}
	r.iterations = res.Iterations
	if res.Final != nil {
		r.final = res.Final.Holes()
	}
	if checked {
		var buf bytes.Buffer
		if _, err := core.Export(res).WriteTo(&buf); err != nil {
			r.err = err
			return setup
		}
		r.transcript = buf.Bytes()
	}
	return setup
}
