package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/solver"
)

// State is a session's externally visible lifecycle state.
type State string

// Session states. The transitions form a small machine:
//
//	idle ──(first query poll)──► computing ──► awaiting_answer
//	  ▲                              │  ▲            │
//	  │ (recovery / import)          │  └─(answer)───┘
//	  │                              ├──► done   (converged / cap)
//	  │                              └──► failed (error / step timeout)
//	any non-computing state ──(TTL, shutdown, DELETE)──► evicted
//
// "computing" means an advance goroutine holds a worker-pool slot and
// the synthesis loop is searching for the next distinguishing pair;
// sessions parked in awaiting_answer hold no slot at all, which is what
// lets a small pool serve many architects who answer over minutes or
// days.
const (
	StateIdle      State = "idle"
	StateComputing State = "computing"
	StateAwaiting  State = "awaiting_answer"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateEvicted   State = "evicted"
)

// Service errors, mapped onto HTTP statuses by the handler layer.
var (
	// ErrSaturated means the worker pool had no free slot (HTTP 429).
	ErrSaturated = errors.New("service: worker pool saturated")
	// ErrTooManySessions means the session cap was reached (HTTP 429).
	ErrTooManySessions = errors.New("service: session limit reached")
	// ErrClosed means the manager is shutting down (HTTP 503).
	ErrClosed = errors.New("service: manager is shut down")
	// ErrNotFound means the session does not exist (HTTP 404).
	ErrNotFound = errors.New("service: no such session")
	// ErrNoPending means an answer arrived with no query outstanding
	// (HTTP 409).
	ErrNoPending = errors.New("service: no pending query")
	// ErrStaleAnswer means the answer's sequence number does not match
	// the pending query — a duplicate or a lost race (HTTP 409).
	ErrStaleAnswer = errors.New("service: answer does not match the pending query")
	// ErrBusy means the session is computing and the operation needs a
	// quiescent session (HTTP 409; retry shortly).
	ErrBusy = errors.New("service: session is computing")
	// ErrConflict means a transcript import hit a session that already
	// has history (HTTP 409).
	ErrConflict = errors.New("service: session already has recorded state")
	// ErrGone means the session was evicted while the caller waited; a
	// fresh lookup will transparently reload it from its journal.
	ErrGone = errors.New("service: session evicted")
)

// Session is one architect's synthesis campaign: a stepper plus the
// serving state around it (journal, pending query, idle clock). All
// fields behind mu; the iterations counter is written by the synthesis
// goroutine and therefore atomic.
type Session struct {
	ID string

	m      *Manager
	spec   SessionSpec
	skName string
	stats  *solver.Stats
	// log carries the session ID as a bound attribute; tracer carries it
	// as a bound label (plus the latest request_id); progress is the live
	// introspection sink the solver updates per prune wave. All three are
	// nil on recovered-finished sessions, which have no stepper.
	log      *obs.Logger
	tracer   *obs.Tracer
	progress *solver.Progress

	iterations atomic.Int64

	mu      sync.Mutex
	state   State
	stepper *core.Stepper
	// pending holds the current round's unanswered queries in sequence
	// order. Legacy single-query sessions are the k=1 special case: one
	// entry.
	pending  []core.Query
	answers  int // accepted answers over the session's whole life (journal count)
	imported bool
	jr       *journal
	// repl mirrors journal appends to the session's replica set; nil
	// for unreplicated sessions. Set once at build and immutable after.
	repl      *replicator
	lastTouch time.Time
	changed   chan struct{} // closed and replaced on every state change
	final     *core.Transcript
	result    *core.Result
	failure   string
	closing   bool
}

// SessionStatus is the status document (GET /v1/sessions/{id}).
type SessionStatus struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	Sketch     string `json:"sketch"`
	Seed       int64  `json:"seed"`
	Iterations int64  `json:"iterations"`
	Answers    int    `json:"answers"`
	// PendingSeqs lists every open query in the current round.
	PendingSeqs []int `json:"pending_seqs,omitempty"`
	Converged   bool  `json:"converged"`
	// Final is the synthesized hole vector, present once done.
	Final []float64 `json:"final,omitempty"`
	Error string    `json:"error,omitempty"`
	// SolverEffort is the session-scoped solver counter snapshot.
	SolverEffort *solver.StatsSnapshot `json:"solver_effort,omitempty"`
}

// touchLocked resets the idle clock.
func (s *Session) touchLocked() { s.lastTouch = s.m.now() }

// bumpLocked wakes every long-poll waiter.
func (s *Session) bumpLocked() {
	close(s.changed)
	s.changed = make(chan struct{})
}

// startAdvanceLocked transitions to computing and hands the slot to an
// advance goroutine.
func (s *Session) startAdvanceLocked(release func()) {
	s.state = StateComputing
	go s.advance(release)
}

// advance runs one synthesis step — from an accepted answer (or session
// start) to the next parked query or completion — while holding a
// worker-pool slot.
func (s *Session) advance(release func()) {
	// Registered first so it runs last, after release() and the normal
	// path's unlock: a panicking synthesis step must fail its own session
	// (with a flight dump) without taking the rest of the fleet down.
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		s.log.Error("session.panic",
			"panic", fmt.Sprint(r),
			"stack", string(debug.Stack()))
		s.mu.Lock()
		s.failWithReasonLocked(fmt.Errorf("panic in synthesis step: %v", r), "panic")
		s.bumpLocked()
		s.mu.Unlock()
	}()
	defer release()
	sp := s.m.span("advance")
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), s.m.cfg.StepTimeout)
	qs, err := s.stepper.NextBatch(ctx)
	cancel()
	s.m.met.stepSeconds.Observe(time.Since(start).Seconds())

	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.bumpLocked()
	if sp.Active() {
		sp.End(obs.Str("session", s.ID), obs.Num("answers", float64(s.answers)))
	}
	s.log.Debug("session.step",
		"answers", s.answers,
		"dur_ms", time.Since(start).Seconds()*1e3,
		"error", errAttr(err))
	if s.closing {
		// Shutdown owns the teardown. A completed session still records
		// its result; anything else parks as idle so shutdown stops
		// waiting.
		if err == nil && qs == nil {
			s.finishLocked()
		} else {
			s.state = StateIdle
		}
		return
	}
	if err != nil {
		s.failLocked(fmt.Errorf("synthesis step: %w", err))
		// The loop may still be computing; cut it loose without holding
		// the session lock for the duration.
		go s.stepper.Close()
		return
	}
	if qs != nil {
		s.pending = qs
		s.state = StateAwaiting
		s.m.met.queries.Add(int64(len(qs)))
		return
	}
	s.finishLocked()
}

// finishLocked records the completed session outcome and journals the
// final transcript.
func (s *Session) finishLocked() {
	res, err := s.stepper.Result()
	if err != nil {
		s.failLocked(err)
		return
	}
	t := core.Export(res)
	s.final = t
	s.result = res
	s.state = StateDone
	s.m.met.finished.Inc()
	s.log.Info("session.finish",
		"converged", t.Converged,
		"iterations", t.Iterations,
		"answers", s.answers)
	if s.jr != nil {
		if jerr := s.jr.append(journalRecord{Type: recFinal, Transcript: t}); jerr != nil {
			s.log.Error("session.journal.error", "record", "final", "error", jerr.Error())
		}
	}
}

// failLocked marks the session failed and journals the failure so it is
// not resumed into the same dead end on restart.
func (s *Session) failLocked(err error) {
	s.failWithReasonLocked(err, "failure")
}

// failWithReasonLocked is failLocked with the flight-dump reason made
// explicit ("failure" for synthesis errors, "panic" for contained
// panics). The dump is written before the journal record so a
// post-mortem exists even if the final append fails too.
func (s *Session) failWithReasonLocked(err error, reason string) {
	s.state = StateFailed
	s.failure = err.Error()
	s.pending = nil
	s.m.met.failed.Inc()
	s.log.Error("session.fail", "reason", reason, "error", s.failure)
	s.dumpFlightLocked(reason)
	if s.jr != nil {
		if jerr := s.jr.append(journalRecord{Type: recFinal, Err: s.failure}); jerr != nil {
			s.log.Error("session.journal.error", "record", "failure", "error", jerr.Error())
		}
	}
}

// dumpFlightLocked writes the session's post-mortem document —
// the flight-recorder records carrying this session's ID plus the tail
// of its span tracer — as <id>.flight.json next to the journal. Reports
// whether a file was written.
func (s *Session) dumpFlightLocked(reason string) bool {
	d := s.m.flight.Dump(s.ID, reason, s.tracer)
	if d == nil {
		return false
	}
	path := flightPath(s.m.cfg.DataDir, s.ID)
	if err := d.WriteFile(path); err != nil {
		s.log.Error("session.flight.error", "error", err.Error())
		return false
	}
	s.log.Info("session.flight.dump",
		"reason", reason,
		"path", path,
		"records", len(d.Records),
		"spans", len(d.Spans))
	return true
}

// errAttr renders an error for a log attribute; nil becomes "".
func errAttr(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// AwaitQueries long-polls for the session's pending query round. It
// kicks off the first synthesis step for idle sessions (which needs a
// worker slot — ErrSaturated when none frees up in time). Returns the
// round's open queries in sequence order, or (nil, state, nil) for
// finished sessions, or ctx's error when the poll deadline passes
// while the solver is still working.
func (s *Session) AwaitQueries(ctx context.Context) ([]core.Query, State, error) {
	for {
		s.mu.Lock()
		s.touchLocked()
		switch s.state {
		case StateAwaiting:
			qs := make([]core.Query, len(s.pending))
			copy(qs, s.pending)
			s.mu.Unlock()
			return qs, StateAwaiting, nil
		case StateDone, StateFailed:
			st := s.state
			s.mu.Unlock()
			return nil, st, nil
		case StateEvicted:
			s.mu.Unlock()
			return nil, StateEvicted, ErrGone
		case StateIdle:
			release, ok := s.m.acquireSlot()
			if !ok {
				s.mu.Unlock()
				s.log.Warn("pool.saturated",
					"op", "query", "request_id", RequestID(ctx))
				return nil, StateIdle, ErrSaturated
			}
			s.tracer.SetLabel("request_id", RequestID(ctx))
			s.startAdvanceLocked(release)
		case StateComputing:
			// fall through to wait
		}
		ch := s.changed
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, StateComputing, ctx.Err()
		}
	}
}

// Judge applies one judgment to an open query of the pending round.
// The sequence number must match an open query's, which makes answers
// idempotent under client retries and safe under racing clients: one
// wins, the rest get ErrStaleAnswer. Queries within a round may be
// judged in any order. The judgment is journaled (and fsynced) before
// the synthesis loop may consume it. While the round still has open
// queries the session stays awaiting (no compute slot is held); the
// round's last judgment hands a slot to the next synthesis step. ctx
// carries the request-correlation IDs; it is not used for
// cancellation.
func (s *Session) Judge(ctx context.Context, seq int, j oracle.Judgment) (State, error) {
	// Acquire the compute slot first: accepting the round's last answer
	// commits us to running the next step, and the pool is the
	// backpressure boundary. Mid-round judgments release it immediately
	// below — paying one acquire for slot-before-mutex ordering.
	release, ok := s.m.acquireSlot()
	if !ok {
		s.log.Warn("pool.saturated",
			"op", "answer", "request_id", RequestID(ctx))
		return StateAwaiting, ErrSaturated
	}
	sp := s.m.span("answer")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	if sp.Active() {
		defer sp.End(obs.Str("session", s.ID), obs.Num("seq", float64(seq)))
	}
	if s.state != StateAwaiting || len(s.pending) == 0 {
		release()
		s.m.met.rejected.Inc()
		return s.state, fmt.Errorf("%w (session is %s)", ErrNoPending, s.state)
	}
	idx := -1
	for i := range s.pending {
		if s.pending[i].Seq == seq {
			idx = i
			break
		}
	}
	if idx < 0 {
		release()
		s.m.met.rejected.Inc()
		return s.state, fmt.Errorf("%w: got seq %d, pending is %d", ErrStaleAnswer, seq, s.pending[0].Seq)
	}
	q := s.pending[idx]
	rec := journalRecord{
		Type: recAnswer,
		Seq:  seq,
		A:    q.A,
		B:    q.B,
		Pref: int(j.Pref),
		Conf: j.Confidence,
	}
	if err := s.jr.append(rec); err != nil {
		release()
		s.failLocked(fmt.Errorf("journal answer: %w", err))
		s.bumpLocked()
		return StateFailed, err
	}
	if err := s.stepper.AnswerSeq(seq, j); err != nil {
		release()
		s.m.met.rejected.Inc()
		return s.state, err
	}
	s.pending = append(s.pending[:idx], s.pending[idx+1:]...)
	s.answers++
	s.m.met.answers.Inc()
	s.log.Debug("session.answer",
		"seq", seq,
		"pref", int(j.Pref),
		"conf", j.Weight(),
		"open", len(s.pending),
		"request_id", RequestID(ctx))
	s.tracer.SetLabel("request_id", RequestID(ctx))
	if len(s.pending) > 0 {
		// The round is still open: no compute to run, give the slot back
		// and keep serving the remaining queries.
		release()
		s.bumpLocked()
		return StateAwaiting, nil
	}
	s.pending = nil
	s.startAdvanceLocked(release)
	s.bumpLocked()
	return StateComputing, nil
}

// Progress exposes the session's live solver-introspection sink (nil on
// recovered-finished sessions; solver.Progress is nil-safe to
// snapshot).
func (s *Session) Progress() *solver.Progress { return s.progress }

// Import preloads a recorded transcript into a fresh session (PUT
// transcript). Only valid before any query has been asked; the imported
// transcript is journaled as a checkpoint record — the one checkpoint a
// journal holds — so recovery replays on top of it.
func (s *Session) Import(t *core.Transcript) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	if s.state != StateIdle || s.answers > 0 || s.imported {
		return fmt.Errorf("%w (state %s, %d answers)", ErrConflict, s.state, s.answers)
	}
	if err := s.stepper.Preload(t); err != nil {
		return err
	}
	if err := s.jr.append(journalRecord{Type: recCheckpoint, Transcript: t}); err != nil {
		s.failLocked(fmt.Errorf("journal imported transcript: %w", err))
		s.bumpLocked()
		return err
	}
	s.imported = true
	return nil
}

// Transcript exports the session's current state (GET transcript): the
// full result for finished sessions, a partial transcript otherwise.
// While a step is computing the state is in flux — ErrBusy, retry.
func (s *Session) Transcript() (*core.Transcript, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	switch s.state {
	case StateDone:
		return s.final, nil
	case StateComputing:
		return nil, ErrBusy
	case StateEvicted:
		return nil, ErrGone
	case StateFailed:
		if s.final != nil {
			return s.final, nil
		}
	}
	if s.stepper == nil {
		return nil, fmt.Errorf("%w: no live state", ErrNotFound)
	}
	t, err := s.stepper.Snapshot()
	if errors.Is(err, core.ErrSessionBusy) {
		return nil, ErrBusy
	}
	return t, err
}

// MigrationBundle is the portable form of a live session: everything a
// new owner needs to adopt it — the original spec (re-keyed to the
// session's ID), the replayable journal of its history, and a snapshot
// transcript for inspection. The transcript carries the
// session ID (core.Transcript.SessionID) as tamper protection, and the
// journal's create record carries the same: the importing daemon
// refuses history addressed to a different session.
type MigrationBundle struct {
	ID      string      `json:"id"`
	Spec    SessionSpec `json:"spec"`
	State   State       `json:"state"`
	Answers int         `json:"answers"`
	// Journal is the session's replayable history, verbatim journal
	// records: the create record, the import checkpoint when the
	// session began from PUT transcript, and every accepted answer in
	// order. Restore rebuilds the session by deterministic replay of
	// these records, exactly as crash recovery does.
	Journal []json.RawMessage `json:"journal"`
	// Transcript is a quiescent snapshot of the preference graph for
	// inspection and backup tooling; nil for sessions with no committed
	// history yet. Restore does NOT use it.
	Transcript *core.Transcript `json:"transcript,omitempty"`
}

// Bundle exports the session for live migration. Only quiescent,
// unfinished sessions bundle: computing is ErrBusy (retry once the step
// parks), and finished sessions are ErrConflict — their transcript is
// the migratable artifact, a stepper replay is not.
//
// The journal is the authoritative payload. A quiescent snapshot
// (stepper.Snapshot) cannot be: answers inside the initial ranking
// phase are not yet committed to the preference graph, and resuming
// from a mid-session preload is convergent but not bit-identical to a
// single-process run. Deterministic replay of the raw answer records is
// (the crash-recovery invariant), so the bundle ships the records
// recovery replays (replayRecords).
func (s *Session) Bundle() (*MigrationBundle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked()
	switch s.state {
	case StateComputing:
		return nil, ErrBusy
	case StateEvicted:
		return nil, ErrGone
	case StateDone, StateFailed:
		return nil, fmt.Errorf("%w: session is %s; export the transcript instead of migrating", ErrConflict, s.state)
	}
	recs, err := readJournal(s.jr.path)
	if err != nil {
		return nil, fmt.Errorf("service: bundle journal: %w", err)
	}
	b := &MigrationBundle{ID: s.ID, Spec: s.spec, State: s.state, Answers: s.answers}
	b.Spec.ID = s.ID
	for i, rec := range replayRecords(recs) {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("service: bundle journal record %d: %w", i, err)
		}
		b.Journal = append(b.Journal, line)
	}
	if s.answers > 0 || s.imported {
		t, err := s.stepper.Snapshot()
		if err != nil {
			if errors.Is(err, core.ErrSessionBusy) {
				return nil, ErrBusy
			}
			return nil, err
		}
		t.SessionID = s.ID
		b.Transcript = t
	}
	return b, nil
}

// Status reports the session without touching its idle clock, so
// monitoring cannot keep a session alive forever.
func (s *Session) Status() SessionStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SessionStatus{
		ID:         s.ID,
		State:      s.state,
		Sketch:     s.skName,
		Seed:       s.spec.Seed,
		Iterations: s.iterations.Load(),
		Answers:    s.answers,
		Error:      s.failure,
	}
	if s.state == StateAwaiting && len(s.pending) > 0 {
		st.PendingSeqs = make([]int, len(s.pending))
		for i, q := range s.pending {
			st.PendingSeqs[i] = q.Seq
		}
	}
	if s.final != nil {
		st.Converged = s.final.Converged
		st.Final = s.final.Final
		st.Iterations = int64(s.final.Iterations)
	}
	if s.stats != nil {
		snap := s.stats.Snapshot()
		st.SolverEffort = &snap
	}
	return st
}

// evictIfIdle drops a session whose idle clock passed the TTL; its
// journal already holds every accepted answer, so a later Get replays
// it back. Computing sessions are never evicted (they hold a slot; the
// step timeout bounds them). Returns whether the session was evicted.
func (s *Session) evictIfIdle(now time.Time, ttl time.Duration) bool {
	s.mu.Lock()
	if s.state == StateComputing || s.state == StateEvicted || now.Sub(s.lastTouch) < ttl {
		s.mu.Unlock()
		return false
	}
	s.teardownLocked()
	return true
}

// shutdown is the graceful-stop path: wait (bounded by ctx) for an
// in-flight step to park, so a step that completes the session still
// journals its final record, cancel it at the deadline, then release
// everything. The journal already holds every accepted answer, so even
// the forced path loses nothing.
func (s *Session) shutdown(ctx context.Context) {
	s.mu.Lock()
	s.closing = true
	forced := false
	for s.state == StateComputing {
		ch := s.changed
		s.mu.Unlock()
		if forced {
			<-ch // the canceled advance is about to publish
		} else {
			select {
			case <-ch:
			case <-ctx.Done():
				forced = true
				s.stepper.Close() // cancels the loop; advance parks as idle
			}
		}
		s.mu.Lock()
	}
	s.teardownLocked()
}

// abort simulates a crash, and is DELETE's teardown: drop everything
// without waiting for an in-flight step.
func (s *Session) abort() {
	s.mu.Lock()
	s.teardownLocked()
}

// teardownLocked finalizes the session: journal close and stepper
// cancellation. Releases s.mu; runs the blocking stepper.Close outside
// the lock.
func (s *Session) teardownLocked() {
	s.closing = true
	s.state = StateEvicted
	s.pending = nil
	jr, stepper := s.jr, s.stepper
	s.bumpLocked()
	s.mu.Unlock()
	if jr != nil {
		jr.close()
	}
	if stepper != nil {
		stepper.Close()
	}
}
