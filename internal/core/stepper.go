package core

// Stepper inverts the synthesizer's oracle-callback loop into a
// step-wise state machine, which is what a serving layer needs: the
// batch Synthesizer *calls into* an Oracle and blocks until it answers,
// but a network service must instead *yield* the pending question to an
// HTTP handler and pick the session back up when the answer arrives,
// possibly minutes or days later (the paper's interaction model has a
// human architect on the other end).
//
// The inversion runs the unmodified synthesis loop on its own goroutine
// behind a rendezvous oracle: the oracle publishes the round's queries
// on an unbuffered channel and blocks until every one of them has been
// answered. A single Compare (the initial ranking asks through it) is a
// round of one; the planner's k-query rounds surface as k pending
// queries with distinct sequence numbers that may be answered in any
// order (crowdsourced oracles answer whichever architect responds
// first). Because it is the same loop, a stepper-driven session is
// bit-identical to a batch run with the same Config and answer
// sequence — the golden equivalence the service layer's tests pin.

import (
	"context"
	"errors"
	"fmt"
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
	// ErrSessionBusy is returned by Snapshot while the synthesis
	// goroutine is computing (between a completed round and the next
	// round of queries).
	ErrSessionBusy = errors.New("core: session is computing")
	// ErrSessionRunning is returned by Result before the session ends.
	ErrSessionRunning = errors.New("core: session still running")
)

// Stepper drives a synthesis session one query round at a time.
// Typical use:
//
//	st, _ := core.NewStepper(cfg)           // cfg.Oracle must be nil
//	for {
//		qs, err := st.NextBatch(ctx)        // blocks while the solver works
//		if err != nil || qs == nil {
//			break                           // error, or session finished
//		}
//		for _, q := range qs {
//			st.AnswerSeq(q.Seq, askTheUser(q.A, q.B))
//		}
//	}
//	res, err := st.Result()
//
// NextBatch, Pending, AnswerSeq, Snapshot, and Close are safe for
// concurrent use.
type Stepper struct {
	synth  *Synthesizer
	ctx    context.Context
	cancel context.CancelFunc

	queries chan []Query
	answers chan []oracle.Judgment
	done    chan struct{}

	// nextMu serializes NextBatch so concurrent pollers agree on the
	// pending round instead of racing for the channel receive.
	nextMu sync.Mutex

	mu       sync.Mutex
	started  bool
	batch    []Query           // current round's queries (nil while computing)
	judg     []oracle.Judgment // parallel to batch
	answered []bool            // parallel to batch
	left     int               // unanswered queries in the round
	seq      int               // next sequence number to assign
	res      *Result
	err      error
}

// stepOracle is the rendezvous oracle installed into the synthesizer:
// every oracle round becomes a yielded batch of queries. On
// cancellation it answers Indifferent, which the loop treats as "no
// information" — the run goroutine then drains to the next context
// check and exits.
type stepOracle struct{ st *Stepper }

func (o stepOracle) Compare(a, b scenario.Scenario) oracle.Preference {
	return o.AnswerBatch([]oracle.Query{{A: a, B: b}})[0].Pref
}

// AnswerBatch implements oracle.BatchOracle: the whole round is
// published at once and the call blocks until every query is answered.
func (o stepOracle) AnswerBatch(qs []oracle.Query) []oracle.Judgment {
	batch := make([]Query, len(qs))
	for i, q := range qs {
		batch[i] = Query{A: q.A.Clone(), B: q.B.Clone()}
	}
	indifferent := func() []oracle.Judgment {
		js := make([]oracle.Judgment, len(qs))
		for i := range js {
			js[i] = oracle.Judgment{Pref: oracle.Indifferent, Confidence: 1}
		}
		return js
	}
	select {
	case o.st.queries <- batch:
	case <-o.st.ctx.Done():
		return indifferent()
	}
	select {
	case js := <-o.st.answers:
		return js
	case <-o.st.ctx.Done():
		return indifferent()
	}
}

// NewStepper validates the config and creates a stepper. The config is
// the same as New's except that Oracle must be nil: the stepper is the
// oracle, yielding each comparison round to the caller.
func NewStepper(cfg Config) (*Stepper, error) {
	if cfg.Oracle != nil {
		return nil, errors.New("core: Stepper supplies its own oracle; Config.Oracle must be nil")
	}
	st := &Stepper{
		queries: make(chan []Query),
		answers: make(chan []oracle.Judgment),
		done:    make(chan struct{}),
	}
	st.ctx, st.cancel = context.WithCancel(context.Background())
	cfg.Oracle = stepOracle{st}
	synth, err := New(cfg)
	if err != nil {
		st.cancel()
		return nil, err
	}
	st.synth = synth
	return st, nil
}

// Preload installs a transcript before the session starts; see
// Synthesizer.Preload. It must be called before the first NextBatch.
func (st *Stepper) Preload(t *Transcript) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.started {
		return errors.New("core: Preload after the session started")
	}
	return st.synth.Preload(t)
}

// run executes the synthesis loop; it is the only goroutine that
// mutates the synthesizer's state after start.
func (st *Stepper) run() {
	res, err := st.synth.RunContext(st.ctx)
	st.mu.Lock()
	st.res, st.err = res, err
	st.mu.Unlock()
	close(st.done)
}

// await blocks until a round of queries is pending, starting the
// synthesis loop on first call. It returns (false, nil) when the
// session finished. Callers hold nextMu.
func (st *Stepper) await(ctx context.Context) (bool, error) {
	st.mu.Lock()
	if st.batch != nil {
		st.mu.Unlock()
		return true, nil
	}
	if !st.started {
		st.started = true
		go st.run()
	}
	st.mu.Unlock()

	select {
	case batch := <-st.queries:
		st.mu.Lock()
		for i := range batch {
			batch[i].Seq = st.seq + i
		}
		st.seq += len(batch)
		st.batch = batch
		st.judg = make([]oracle.Judgment, len(batch))
		st.answered = make([]bool, len(batch))
		st.left = len(batch)
		st.mu.Unlock()
		return true, nil
	case <-st.done:
		return false, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// NextBatch returns the full pending round — every not-yet-answered
// query, in sequence order — starting the synthesis loop on first call.
// It blocks while the solver searches for the round's queries. A nil
// slice with nil error means the session finished (check Result). If
// ctx expires first, NextBatch returns ctx's error and the computation
// keeps running — a later NextBatch picks the round up.
func (st *Stepper) NextBatch(ctx context.Context) ([]Query, error) {
	st.nextMu.Lock()
	defer st.nextMu.Unlock()
	ok, err := st.await(ctx)
	if !ok || err != nil {
		return nil, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Query, 0, st.left)
	for i := range st.batch {
		if !st.answered[i] {
			out = append(out, st.batch[i])
		}
	}
	return out, nil
}

// Pending returns the outstanding unanswered queries, if any, without
// blocking. The slice is in sequence order; nil means no round is
// pending (computing, finished, or not started).
func (st *Stepper) Pending() []Query {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.batch == nil {
		return nil
	}
	out := make([]Query, 0, st.left)
	for i := range st.batch {
		if !st.answered[i] {
			out = append(out, st.batch[i])
		}
	}
	return out
}

// AnswerSeq resolves the pending query with the given sequence number —
// out-of-order answers within the round are accepted, duplicate or
// unknown sequence numbers are rejected with ErrNoPendingQuery. The
// judgment's confidence grades the answer's evidence weight (zero means
// full confidence; see oracle.Judgment).
func (st *Stepper) AnswerSeq(seq int, j oracle.Judgment) error {
	st.mu.Lock()
	for i := range st.batch {
		if st.batch[i].Seq == seq {
			if st.answered[i] {
				break
			}
			return st.resolveLocked(i, j)
		}
	}
	st.mu.Unlock()
	return fmt.Errorf("%w: seq %d", ErrNoPendingQuery, seq)
}

// resolveLocked records judgment j for batch index i and, when it was
// the round's last open query, hands the full round back to the run
// goroutine. Called with st.mu held; releases it.
func (st *Stepper) resolveLocked(i int, j oracle.Judgment) error {
	st.judg[i] = j
	st.answered[i] = true
	st.left--
	if st.left > 0 {
		st.mu.Unlock()
		return nil
	}
	js := st.judg
	st.batch, st.judg, st.answered = nil, nil, nil
	st.mu.Unlock()
	// The run goroutine is parked in AnswerBatch waiting for exactly
	// this send, so it cannot block — unless the session was closed,
	// which the ctx branch covers.
	select {
	case st.answers <- js:
		return nil
	case <-st.ctx.Done():
		return st.ctx.Err()
	}
}

// Done reports whether the session has finished (converged, failed, or
// closed).
func (st *Stepper) Done() bool {
	select {
	case <-st.done:
		return true
	default:
		return false
	}
}

// Result returns the session outcome. Before the session ends it
// returns ErrSessionRunning.
func (st *Stepper) Result() (*Result, error) {
	select {
	case <-st.done:
	default:
		return nil, ErrSessionRunning
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.res, st.err
}

// Snapshot exports the session's current state as a transcript: the
// scenarios shown so far, the preference edges recorded, and — once the
// session has finished successfully — the final hole vector. The service
// layer serves it as GET transcript and ships it in migration bundles
// for inspection; it never resumes a session from one. Snapshot fails with
// ErrSessionBusy while the synthesis goroutine is between a completed
// round and the next round's queries, because the underlying graph is
// being mutated then. A partially answered round is quiescent: the run
// goroutine stays parked until the whole round is resolved.
func (st *Stepper) Snapshot() (*Transcript, error) {
	select {
	case <-st.done:
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.err == nil && st.res != nil {
			return Export(st.res), nil
		}
		// Failed or canceled: the loop goroutine has exited, so reading
		// the partial state is safe.
		return st.partial(), nil
	default:
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.started && st.batch == nil {
		return nil, ErrSessionBusy
	}
	return st.partial(), nil
}

// partial renders the synthesizer's current graph and store as a
// transcript without a final candidate. Callers must ensure the run
// goroutine is quiescent (not started, parked on a pending round, or
// exited).
func (st *Stepper) partial() *Transcript {
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

// Close cancels the session and waits for the synthesis goroutine to
// exit, so no work leaks past it. After Close, Result reports the
// cancellation error (or the completed result, if the session had
// already finished).
func (st *Stepper) Close() {
	st.cancel()
	st.mu.Lock()
	started := st.started
	st.mu.Unlock()
	if started {
		<-st.done
	}
}
