package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"os"
	"strings"
	"testing"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/solver"
)

// answerN drives a session through exactly n judgments via the
// in-process API, lowest seq first.
func answerN(t *testing.T, s *Session, user oracle.Oracle, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for answered := 0; answered < n; {
		qs, state, err := s.AwaitQueries(ctx)
		if errors.Is(err, ErrSaturated) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("AwaitQueries: %v", err)
		}
		if len(qs) == 0 {
			t.Fatalf("session finished (state %s) after %d answers; wanted %d", state, answered, n)
		}
		q := qs[0]
		if _, err := s.Judge(context.Background(), q.Seq, oracle.Judgment{Pref: user.Compare(q.A, q.B)}); err != nil {
			t.Fatalf("Judge %d: %v", answered, err)
		}
		answered++
	}
}

// parkQuery waits until the session's next round is parked, so the
// session is quiescent, and returns its lowest open query.
func parkQuery(t *testing.T, s *Session) *core.Query {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	qs, _, err := s.AwaitQueries(ctx)
	if err != nil || len(qs) == 0 {
		t.Fatalf("park next query: %v (round=%v)", err, qs)
	}
	return &qs[0]
}

// evict ages a quiescent session past the TTL and sweeps it out.
func evict(t *testing.T, m *Manager, s *Session) {
	t.Helper()
	parkQuery(t, s)
	s.mu.Lock()
	s.lastTouch = time.Now().Add(-time.Hour)
	s.mu.Unlock()
	m.sweep()
	m.mu.Lock()
	_, resident := m.sessions[s.ID]
	m.mu.Unlock()
	if resident {
		t.Fatal("session still resident after sweep")
	}
}

// assertNoCheckpoint fails if the session's journal holds a checkpoint
// record: only PUT transcript writes one.
func assertNoCheckpoint(t *testing.T, dir, id string) {
	t.Helper()
	recs, err := readJournal(journalPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if rec.Type == recCheckpoint {
			t.Fatalf("journal record %d is a checkpoint; only a transcript import writes one", i)
		}
	}
}

// finishTranscript drives a session to its end and returns its
// serialized transcript.
func finishTranscript(t *testing.T, s *Session, user oracle.Oracle) []byte {
	t.Helper()
	if err := driveSession(s, user); err != nil {
		t.Fatal(err)
	}
	return sessionTranscript(t, s)
}

// TestEvictionReloadReplays walks a session through the idle-TTL
// eviction path: the sweep writes nothing to the journal, a later Get
// replays it transparently with its seqs continuing, and the finished
// transcript is byte-identical to the batch run.
func TestEvictionReloadReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(46)
	want := batchTranscript(t, spec, user)
	cfg := testConfig(t.TempDir())
	cfg.IdleTTL = time.Minute
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()

	s, err := m.Create(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	answerN(t, s, user, 10)
	evict(t, m, s)
	assertNoCheckpoint(t, cfg.DataDir, id)

	s2, err := m.Get(id)
	if err != nil {
		t.Fatalf("reload evicted session: %v", err)
	}
	if s2 == s {
		t.Fatal("Get returned the evicted session object")
	}
	if got := s2.Status().Answers; got != 10 {
		t.Fatalf("reloaded session has %d answers, want 10", got)
	}
	if q := parkQuery(t, s2); q.Seq != 10 {
		t.Errorf("reloaded session resumed at seq %d, want 10", q.Seq)
	}
	if got := finishTranscript(t, s2, user); !bytes.Equal(got, want) {
		t.Errorf("evicted-and-reloaded transcript diverged from batch run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestGracefulCloseWritesNoCheckpoint shuts a mid-session manager
// down: the journal gains no checkpoint, and a fresh manager replays
// the session to a transcript byte-identical to the batch run.
func TestGracefulCloseWritesNoCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(47)
	want := batchTranscript(t, spec, user)
	dir := t.TempDir()
	m, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Create(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	answerN(t, s, user, 10)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	assertNoCheckpoint(t, dir, id)

	m2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Abort()
	s2, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Status().Answers; got != 10 {
		t.Fatalf("recovered session has %d answers, want 10", got)
	}
	if got := finishTranscript(t, s2, user); !bytes.Equal(got, want) {
		t.Errorf("post-shutdown transcript diverged from batch run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestEvictThenMigrate evicts a session, reloads and answers it further,
// then migrates it: the bundle's journal must replay on a fresh manager,
// and the finished transcript must be byte-identical to the batch run.
func TestEvictThenMigrate(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(46)
	want := batchTranscript(t, spec, user)
	cfg := testConfig(t.TempDir())
	cfg.IdleTTL = time.Minute
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()

	s, err := m.Create(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	answerN(t, s, user, 10)
	evict(t, m, s)
	s2, err := m.Get(id)
	if err != nil {
		t.Fatalf("reload evicted session: %v", err)
	}
	answerN(t, s2, user, 3)
	parkQuery(t, s2)
	b, err := s2.Bundle()
	if err != nil {
		t.Fatal(err)
	}

	m2, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Abort()
	s3, err := m2.Restore(id, b.Journal)
	if err != nil {
		t.Fatalf("restore after eviction: %v", err)
	}
	if got := s3.Status().Answers; got != 13 {
		t.Fatalf("restored session has %d answers, want 13", got)
	}
	if got := finishTranscript(t, s3, user); !bytes.Equal(got, want) {
		t.Errorf("migrated transcript diverged from batch run (%d vs %d bytes)", len(got), len(want))
	}
}

// parentCheckpoint is a checkpoint record as older builds wrote it at
// eviction and shutdown: a snapshot transcript plus the learned-prune
// summary that has since left the journal format (kept as raw JSON).
type parentCheckpoint struct {
	journalRecord
	Learned json.RawMessage `json:"learned,omitempty"`
}

// appendRaw appends JSON records to a journal file.
func appendRaw(t *testing.T, path string, recs ...any) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
	}
}

// withParentBatchLanes rewrites a journal's create record the way
// builds with the solver's batch-lane knob wrote it when a client asked
// for scalar evaluation: "solver":{"batch_lanes":1}. The knob never
// changed results, and this build ignores the field when it decodes a
// journal.
func withParentBatchLanes(t *testing.T, path string) []json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lines []json.RawMessage
	for _, ln := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		lines = append(lines, json.RawMessage(ln))
	}
	var create map[string]any
	if err := json.Unmarshal(lines[0], &create); err != nil {
		t.Fatal(err)
	}
	create["spec"].(map[string]any)["solver"].(map[string]any)["batch_lanes"] = 1
	if lines[0], err = json.Marshal(create); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, ln := range lines {
		buf.Write(ln)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestParentFormatJournals recovers journals written by older builds.
// A journal ending in a checkpoint written at eviction or shutdown
// (learned summary included) replays its answers and finishes
// byte-identical to the batch run. A journal with answers after a
// mid-session checkpoint was answered by a checkpoint-resumed stepper,
// so replay from the start diverges: it is a stale journal for this
// build and is quarantined, while the daemon still starts. A journal
// whose spec carries the retired batch_lanes solver field recovers,
// and restores from a migration bundle, byte-identical to the batch
// run.
func TestParentFormatJournals(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(52)
	want := batchTranscript(t, spec, user)
	dir := t.TempDir()

	// Three identical sessions crashed after 10 answers.
	m, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	var ids [3]string
	var snap *core.Transcript
	for i := range ids {
		s, err := m.Create(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID
		answerN(t, s, user, 10)
		parkQuery(t, s)
		if snap, err = s.Transcript(); err != nil {
			t.Fatal(err)
		}
	}
	m.Abort()
	ck := parentCheckpoint{
		journalRecord: journalRecord{Type: recCheckpoint, Transcript: snap},
		Learned:       json.RawMessage(`{"refuted":[{"box":[[0,1],[0,1],[0,1],[0,1]],"index":3}]}`),
	}
	trailing, resumed, lanes := ids[0], ids[1], ids[2]
	appendRaw(t, journalPath(dir, trailing), ck)
	lanesJournal := withParentBatchLanes(t, journalPath(dir, lanes))

	// The resumed journal continues the way an older build resumed a
	// checkpoint: a fresh stepper preloads the snapshot and asks on.
	cfg, err := spec.config(nil, &solver.Stats{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Preload(snap); err != nil {
		t.Fatal(err)
	}
	tail := []any{ck}
	for len(tail) < 4 {
		qs, err := st.NextBatch(context.Background())
		if err != nil || len(qs) == 0 {
			t.Fatalf("checkpoint-resumed stepper: %v (round=%v)", err, qs)
		}
		q := qs[0]
		pref := user.Compare(q.A, q.B)
		if err := st.AnswerSeq(q.Seq, oracle.Judgment{Pref: pref, Confidence: 1}); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, journalRecord{Type: recAnswer, Seq: 10 + q.Seq, A: q.A, B: q.B, Pref: int(pref)})
	}
	appendRaw(t, journalPath(dir, resumed), tail...)

	var sink lockedBuffer
	cfg2 := testConfig(dir)
	cfg2.Log = obs.NewLogger(&sink, slog.LevelInfo)
	m2, err := New(cfg2)
	if err != nil {
		t.Fatalf("a stale journal must not fail startup: %v", err)
	}
	defer m2.Abort()

	s, err := m2.Get(trailing)
	if err != nil {
		t.Fatalf("journal ending in a checkpoint: %v", err)
	}
	if got := s.Status().Answers; got != 10 {
		t.Fatalf("recovered session has %d answers, want 10", got)
	}
	if got := finishTranscript(t, s, user); !bytes.Equal(got, want) {
		t.Errorf("transcript after a trailing checkpoint diverged from batch run (%d vs %d bytes)", len(got), len(want))
	}

	if _, err := m2.Get(resumed); !errors.Is(err, ErrNotFound) {
		t.Errorf("journal with answers after a checkpoint should be quarantined, got %v", err)
	}
	if _, err := os.Stat(journalPath(dir, resumed) + ".bad"); err != nil {
		t.Errorf("stale journal not quarantined: %v", err)
	}
	fails := findLines(sink.lines(t), "session.recover.fail", "session", resumed)
	if len(fails) != 1 {
		t.Fatalf("got %d session.recover.fail lines for the stale journal, want 1", len(fails))
	}
	if msg, _ := fails[0]["error"].(string); !strings.Contains(msg, "regenerated query diverged from journal") {
		t.Errorf("quarantine error %q is not the replay divergence", msg)
	}

	s, err = m2.Get(lanes)
	if err != nil {
		t.Fatalf("journal with batch_lanes in its spec: %v", err)
	}
	if got := s.Status().Answers; got != 10 {
		t.Fatalf("recovered batch_lanes session has %d answers, want 10", got)
	}
	if got := finishTranscript(t, s, user); !bytes.Equal(got, want) {
		t.Errorf("recovered batch_lanes transcript diverged from batch run (%d vs %d bytes)", len(got), len(want))
	}
	m3, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Abort()
	s, err = m3.Restore(lanes, lanesJournal)
	if err != nil {
		t.Fatalf("restore bundle with batch_lanes in its spec: %v", err)
	}
	if got := finishTranscript(t, s, user); !bytes.Equal(got, want) {
		t.Errorf("restored batch_lanes transcript diverged from batch run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestJournalTornLine pins crash-tolerant journal reading: a torn
// trailing line is dropped, garbage mid-file is an error.
func TestJournalTornLine(t *testing.T) {
	dir := t.TempDir()
	jr, err := createJournal(dir, "s000000", &SessionSpec{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.append(journalRecord{Type: recAnswer, Seq: 0, A: []float64{1, 2}, B: []float64{3, 4}, Pref: 1}); err != nil {
		t.Fatal(err)
	}
	if err := jr.close(); err != nil {
		t.Fatal(err)
	}
	path := journalPath(dir, "s000000")

	// Simulate a crash mid-append: a torn, unparseable tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"type":"answer","seq":1,"a":[5`)
	f.Close()

	recs, err := readJournal(path)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2 (create+answer)", len(recs))
	}

	// Garbage in the middle is corruption, not a crash artifact.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, []byte("\n{\"type\":\"answer\",\"seq\":2,\"a\":[1],\"b\":[2],\"pref\":2}\n")...)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readJournal(path); err == nil {
		t.Fatal("mid-file garbage should be rejected")
	}

	// A journal whose first record is not create is rejected.
	bad := journalPath(dir, "s000001")
	if err := os.WriteFile(bad, []byte(`{"type":"answer","seq":0,"a":[1],"b":[2],"pref":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readJournal(bad); err == nil {
		t.Fatal("journal without a create record should be rejected")
	}
}

// TestRecoverySkipsCorruptJournal checks a bad journal quarantines
// instead of failing daemon startup.
func TestRecoverySkipsCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(journalPath(dir, "s000000"), []byte("not json at all\nstill not\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := New(testConfig(dir))
	if err != nil {
		t.Fatalf("corrupt journal must not fail startup: %v", err)
	}
	defer m.Abort()
	if _, err := m.Get("s000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("corrupt session should be gone, got %v", err)
	}
	if _, err := os.Stat(journalPath(dir, "s000000") + ".bad"); err != nil {
		t.Errorf("corrupt journal not quarantined: %v", err)
	}
}

// TestDeterministicJournalReplay exercises rebuild's query-match check
// directly: replaying a journal against the same build regenerates the
// same queries, so recovery succeeds and the answer count holds.
func TestDeterministicJournalReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	dir := t.TempDir()
	m, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Create(context.Background(), testSpec(48))
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID
	answerN(t, s, user, 5)
	m.Abort() // crash: journal only

	m2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Abort()
	s2, err := m2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Status()
	if st.Answers != 5 {
		t.Errorf("replayed session has %d answers, want 5", st.Answers)
	}
	if st.State != StateIdle && st.State != StateAwaiting {
		t.Errorf("replayed session in state %s", st.State)
	}

	// Tampering with a journaled answer's scenario must be caught by
	// the divergence check, and the session quarantined, not resumed.
	m2.Abort()
	raw, err := os.ReadFile(journalPath(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(`"a":[`), []byte(`"a":[9999,`), 1)
	if bytes.Equal(raw, tampered) {
		t.Fatal("tamper patch did not apply")
	}
	if err := os.WriteFile(journalPath(dir, id), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	m3, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Abort()
	if _, err := m3.Get(id); !errors.Is(err, ErrNotFound) {
		t.Errorf("tampered journal should quarantine the session, got %v", err)
	}
}
