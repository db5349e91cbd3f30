package core

// Stepper drives the synthesizer's round machine for a caller that
// cannot block on an oracle, which is what a serving layer needs: a
// network service must *yield* the pending question to an HTTP handler
// and pick the session back up when the answer arrives, possibly
// minutes or days later (the paper's interaction model has a human
// architect on the other end).
//
// The machine's next computes until the next round of questions or the
// end, its answer applies a completed round, and nothing computes
// between calls. NextBatch runs next on the caller's goroutine;
// AnswerSeq takes one judgment, and the round's last judgment runs
// answer. A single Compare (a step of the initial ranking, or one
// witness with the planner off) is a round of one; the planner's
// k-query rounds surface as k pending queries with distinct sequence
// numbers that may be answered in any order (crowdsourced oracles
// answer whichever architect responds first). RunContext drives the
// same machine, so a stepped session is bit-identical to a batch run
// with the same Config and answer sequence — the golden equivalence the
// service layer's tests pin.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
)

// Query is one pending preference question: "which of these two
// scenarios do you prefer?".
type Query struct {
	// Seq is the 0-based sequence number of the question within this
	// stepper's lifetime. Answer validation uses it to reject stale or
	// duplicate answers from concurrent clients, and out-of-order batch
	// answers are keyed by it.
	Seq int
	// A and B are the two scenarios to compare.
	A, B scenario.Scenario
}

// Stepper errors.
var (
	// ErrNoPendingQuery is returned by AnswerSeq when no outstanding
	// query has the given sequence number (none asked yet, or it was
	// already answered).
	ErrNoPendingQuery = errors.New("core: no pending query to answer")
	// ErrSessionRunning is returned by Result before the session ends.
	ErrSessionRunning = errors.New("core: session still running")

	errClosed = errors.New("core: session closed")
)

// Stepper drives a synthesis session one query round at a time.
// Typical use:
//
//	st, _ := core.NewStepper(cfg)           // cfg.Oracle must be nil
//	for {
//		qs, err := st.NextBatch(ctx)        // the solver works here
//		if err != nil || qs == nil {
//			break                           // error, or session finished
//		}
//		for _, q := range qs {
//			st.AnswerSeq(q.Seq, askTheUser(q.A, q.B))
//		}
//	}
//	res, err := st.Result()
//
// Every method is safe for concurrent use. The calls are serialized: a
// call made while a NextBatch searches waits for the search to end,
// except Close, which ends it.
type Stepper struct {
	// mu is held throughout every call but Close, a NextBatch's search
	// included.
	mu       sync.Mutex
	synth    *Synthesizer
	round    []Query           // the pending round (nil when none)
	judg     []oracle.Judgment // parallel to round
	answered []bool            // parallel to round
	left     int               // unanswered queries in the round
	seq      int               // next sequence number to assign
	res      *Result
	err      error

	// cmu guards closed and the in-flight NextBatch's cancel apart from
	// mu, so Close never waits for a search.
	cmu    sync.Mutex
	closed bool
	cancel context.CancelFunc
}

// NewStepper validates the config and creates a stepper. The config is
// the same as New's except that Oracle must be nil: the stepper's
// caller answers each comparison round.
func NewStepper(cfg Config) (*Stepper, error) {
	if cfg.Oracle != nil {
		return nil, errors.New("core: a Stepper's caller answers its rounds; Config.Oracle must be nil")
	}
	synth, err := newSynthesizer(cfg)
	if err != nil {
		return nil, err
	}
	return &Stepper{synth: synth}, nil
}

// Preload installs a transcript before the session starts; see
// Synthesizer.Preload. It must be called before the first NextBatch.
func (st *Stepper) Preload(t *Transcript) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.synth.Preload(t)
}

// NextBatch returns the full pending round — every not-yet-answered
// query, in sequence order — without computing. With no round pending
// it runs the synthesizer on the caller's goroutine, under ctx, until
// the next round or the end of the session. A nil slice with nil error
// means the session finished (check Result).
//
// Cancellation ends the session. A search that ctx or Close cuts short
// has already drawn from the session's random state, so it can be
// neither resumed nor rerun: NextBatch returns the error, Result
// reports it from then on, and later NextBatch calls return nil.
func (st *Stepper) NextBatch(ctx context.Context) ([]Query, error) {
	// Yield once per round. A caller that loops NextBatch and AnswerSeq
	// on one goroutine never blocks, so a GC mark worker started during
	// a search would wait for the scheduler's forced preemption while
	// the next search allocates: in-process sessions then peaked 20–30%
	// higher in resident memory (table1-batch's max_rss_mb).
	runtime.Gosched()
	st.mu.Lock()
	defer st.mu.Unlock()
	ctx, cancel, err := st.watch(ctx)
	if err != nil {
		return nil, err
	}
	defer cancel()
	if st.round == nil {
		if st.res != nil || st.err != nil {
			return nil, nil
		}
		r, res, err := st.synth.next(ctx)
		if r == nil {
			st.res, st.err = res, err
			return nil, err
		}
		st.round = make([]Query, len(r.qs))
		for i, q := range r.qs {
			st.round[i] = Query{Seq: st.seq + i, A: q.A.Clone(), B: q.B.Clone()}
		}
		st.seq += len(r.qs)
		st.judg = make([]oracle.Judgment, len(r.qs))
		st.answered = make([]bool, len(r.qs))
		st.left = len(r.qs)
	}
	out := make([]Query, 0, st.left)
	for i := range st.round {
		if !st.answered[i] {
			out = append(out, st.round[i])
		}
	}
	return out, nil
}

// watch derives the context a NextBatch searches under, which Close
// cancels. It fails once the stepper is closed.
func (st *Stepper) watch(ctx context.Context) (context.Context, context.CancelFunc, error) {
	st.cmu.Lock()
	defer st.cmu.Unlock()
	if st.closed {
		return nil, nil, errClosed
	}
	ctx, st.cancel = context.WithCancel(ctx)
	return ctx, st.cancel, nil
}

// isClosed reports whether Close was called.
func (st *Stepper) isClosed() bool {
	st.cmu.Lock()
	defer st.cmu.Unlock()
	return st.closed
}

// AnswerSeq resolves the pending query with the given sequence number —
// out-of-order answers within the round are accepted, duplicate or
// unknown sequence numbers are rejected with ErrNoPendingQuery. The
// judgment's confidence grades the answer's evidence weight in a
// planner round (zero means full confidence; see oracle.Judgment); a
// round of one Compare records the preference alone. The round's last
// judgment applies the whole round to the session before AnswerSeq
// returns, without solver work; a failure to apply it ends the session
// (see Result).
func (st *Stepper) AnswerSeq(seq int, j oracle.Judgment) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.isClosed() {
		return errClosed
	}
	for i := range st.round {
		if st.round[i].Seq != seq || st.answered[i] {
			continue
		}
		st.judg[i], st.answered[i] = j, true
		st.left--
		if st.left == 0 {
			js := st.judg
			st.round, st.judg, st.answered = nil, nil, nil
			st.err = st.synth.answer(js)
		}
		return nil
	}
	return fmt.Errorf("%w: seq %d", ErrNoPendingQuery, seq)
}

// Result returns the session outcome: ErrSessionRunning before the
// session ends, and the error that ended it otherwise. After Close it
// reports the close, unless the session had already ended.
func (st *Stepper) Result() (*Result, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case st.res != nil || st.err != nil:
		return st.res, st.err
	case st.isClosed():
		return nil, errClosed
	}
	return nil, ErrSessionRunning
}

// Snapshot exports the session's current state as a transcript: the
// scenarios shown so far, the preference edges recorded — every
// answered round included — and, once the session has finished
// successfully, the final hole vector. The service layer serves it as
// GET transcript and ships it in migration bundles for inspection; it
// never resumes a session from one.
func (st *Stepper) Snapshot() *Transcript {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.res != nil {
		return Export(st.res)
	}
	s := st.synth
	sk := s.cfg.Sketch
	t := &Transcript{
		SketchName: sk.Name(),
		Holes:      sk.Holes(),
		Metrics:    sk.Space().Names(),
	}
	for _, sc := range s.store.All() {
		t.Scenarios = append(t.Scenarios, sc)
	}
	for _, e := range s.graph.Edges() {
		t.Preferences = append(t.Preferences, [2]int{e.Better, e.Worse})
	}
	return t
}

// Close ends the session: it cancels an in-flight NextBatch's search,
// which then fails, and every later NextBatch and AnswerSeq fails.
// Close returns at once; no goroutine outlives a call.
func (st *Stepper) Close() {
	st.cmu.Lock()
	defer st.cmu.Unlock()
	st.closed = true
	if st.cancel != nil {
		st.cancel()
	}
}
