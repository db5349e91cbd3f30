//go:build linux || darwin

package service

// Lazy reloads replay journals off the manager lock. These tests hold a
// reload inside its journal read — the journal is swapped for a FIFO
// that the test feeds only later — and check what lands meanwhile: a
// Get and a Judge on another session, a Delete, a second Get, an Abort.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"compsynth/internal/obs"
	"compsynth/internal/oracle"
)

// recvWithin receives from ch, failing the test after a minute.
func recvWithin[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(time.Minute):
		t.Fatalf("timed out waiting for %s", what)
	}
	var zero T
	return zero
}

// evictedSession creates a session, answers n of its queries and
// evicts it, leaving only its journal.
func evictedSession(t *testing.T, m *Manager, spec SessionSpec, user oracle.Oracle, n int) string {
	t.Helper()
	s, err := m.Create(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	answerN(t, s, user, n)
	evict(t, m, s)
	return s.ID
}

// heldJournal is an evicted session's journal swapped for a FIFO, so a
// reload of the session blocks in its journal read until feed.
type heldJournal struct {
	t      *testing.T
	path   string
	staged string
	raw    []byte
	w      *os.File
	once   sync.Once
}

// holdJournal swaps id's journal for a FIFO, keeping the real file
// beside it.
func holdJournal(t *testing.T, dir, id string) *heldJournal {
	t.Helper()
	h := &heldJournal{t: t, path: journalPath(dir, id)}
	h.staged = h.path + ".staged"
	var err error
	if h.raw, err = os.ReadFile(h.path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(h.staged, h.raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(h.path); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(h.path, 0o644); err != nil {
		t.Fatal(err)
	}
	return h
}

// reading returns once a reload has opened the FIFO; the reload then
// waits in its read until feed.
func (h *heldJournal) reading() {
	h.t.Helper()
	w, err := os.OpenFile(h.path, os.O_WRONLY, 0)
	if err != nil {
		h.t.Fatal(err)
	}
	h.w = w
}

// feed writes the journal into the FIFO and ends it. With restore the
// real file goes back at the path first, so the reload reopens it for
// appends; without it the path stays as the test left it.
func (h *heldJournal) feed(restore bool) {
	h.once.Do(func() {
		if _, err := h.w.Write(h.raw); err != nil {
			h.t.Error(err)
		}
		if restore {
			if err := os.Rename(h.staged, h.path); err != nil {
				h.t.Error(err)
			}
		}
		h.w.Close()
	})
}

// TestReplayOffLock holds session B's lazy reload in its journal read
// and checks that session A serves a Get and a Judge meanwhile. A
// reload that replays under the manager lock stalls both until B's
// replay ends.
func TestReplayOffLock(t *testing.T) {
	user := swanUser(t)
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.IdleTTL = time.Minute
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	a, err := m.Create(context.Background(), testSpec(80))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Create(context.Background(), testSpec(81))
	if err != nil {
		t.Fatal(err)
	}
	answerN(t, a, user, 3)
	answerN(t, b, user, 5)
	evict(t, m, b)
	q := parkQuery(t, a)

	h := holdJournal(t, dir, b.ID)
	type result struct {
		s   *Session
		err error
	}
	gotB := make(chan result, 1)
	go func() {
		s, err := m.Get(b.ID)
		gotB <- result{s, err}
	}()
	h.reading()
	defer h.feed(true)

	doneA := make(chan error, 1)
	go func() {
		s, err := m.Get(a.ID)
		if err == nil {
			_, err = s.Judge(context.Background(), q.Seq, oracle.Judgment{Pref: user.Compare(q.A, q.B)})
		}
		doneA <- err
	}()
	select {
	case err := <-doneA:
		if err != nil {
			t.Fatalf("session A while B reloads: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session A's Get and Judge did not complete while session B's replay was held")
	}
	select {
	case r := <-gotB:
		t.Fatalf("B's reload returned before its journal was fed: %v", r.err)
	default:
	}

	h.feed(true)
	select {
	case r := <-gotB:
		if r.err != nil {
			t.Fatalf("reload B: %v", r.err)
		}
		if got := r.s.Status().Answers; got != 5 {
			t.Errorf("reloaded B has %d answers, want 5", got)
		}
	case <-time.After(time.Minute):
		t.Fatal("B's reload did not finish after its journal was fed")
	}
}

// TestDeleteDuringReplayWins deletes a session while its lazy reload is
// held. The delete wins: the waiting Get answers ErrNotFound, the
// session never becomes resident and its journal is gone. Once the
// load has ended, a new session may take the ID.
func TestDeleteDuringReplayWins(t *testing.T) {
	user := swanUser(t)
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.IdleTTL = time.Minute
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	id := evictedSession(t, m, testSpec(60), user, 4)

	h := holdJournal(t, dir, id)
	got := make(chan error, 1)
	go func() {
		_, err := m.Get(id)
		got <- err
	}()
	h.reading()
	defer h.feed(false)
	if err := m.Delete(id); err != nil {
		t.Fatalf("Delete during replay: %v", err)
	}
	h.feed(false)
	if err := recvWithin(t, got, "the reloading Get"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get overtaken by Delete = %v, want ErrNotFound", err)
	}
	if resident, loading := residency(m, id); resident || loading {
		t.Fatalf("deleted session resident=%v loading=%v", resident, loading)
	}
	if _, err := os.Stat(journalPath(dir, id)); !os.IsNotExist(err) {
		t.Fatalf("journal survives Delete during replay (stat err %v)", err)
	}
	if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}

	spec := testSpec(61)
	spec.ID = id
	if _, err := m.Create(context.Background(), spec); err != nil {
		t.Fatalf("create reusing the deleted ID: %v", err)
	}
	if _, err := os.Stat(journalPath(dir, id)); err != nil {
		t.Fatalf("new session's journal: %v", err)
	}
}

// waitJoined waits until n goroutines are parked in Get on a load
// another Get started.
func waitJoined(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	buf := make([]byte, 1<<20)
	for {
		joined := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, "service.(*Manager).Get(") {
				joined++
			}
		}
		if joined == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d Gets joined the load, want %d", joined, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConcurrentGetsShareReplay reloads an evicted session from two
// Gets, the second arriving while the first one's replay is held: both
// return the same *Session, which is the resident one, and the journal
// is replayed once.
func TestConcurrentGetsShareReplay(t *testing.T) {
	user := swanUser(t)
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.IdleTTL = time.Minute
	cfg.Obs = &obs.Observer{Registry: obs.NewRegistry()}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	id := evictedSession(t, m, testSpec(62), user, 6)

	h := holdJournal(t, dir, id)
	var got [2]*Session
	var errs [2]error
	done := make(chan struct{}, 2)
	get := func(i int) {
		got[i], errs[i] = m.Get(id)
		done <- struct{}{}
	}
	go get(0)
	h.reading()
	defer h.feed(true)
	go get(1)
	waitJoined(t, 1)
	h.feed(true)
	recvWithin(t, done, "the first Get")
	recvWithin(t, done, "the second Get")
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if got[0] != got[1] {
		t.Fatal("concurrent Gets returned different sessions")
	}
	s, err := m.Get(id)
	if err != nil || s != got[0] {
		t.Fatalf("resident session differs from the shared one (err %v)", err)
	}
	if n := m.met.replaySeconds.Count(); n != 1 {
		t.Errorf("compsynthd_replay_seconds observed %d replays, want 1", n)
	}
	if a := s.Status().Answers; a != 6 {
		t.Errorf("reloaded session has %d answers, want 6", a)
	}
}

// TestAbortDuringReplay aborts the manager while a lazy reload is held.
// Abort cancels the replay and waits for it: it returns only after the
// journal is fed and the canceled replay has ended. The waiting Get
// answers ErrClosed, nothing is registered, and no goroutine outlives
// the manager.
func TestAbortDuringReplay(t *testing.T) {
	user := swanUser(t)
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.IdleTTL = time.Minute
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	id := evictedSession(t, m, testSpec(63), user, 6)

	h := holdJournal(t, dir, id)
	got := make(chan error, 1)
	go func() {
		_, err := m.Get(id)
		got <- err
	}()
	h.reading()
	defer h.feed(true)
	m.mu.Lock()
	l := m.loads[id]
	m.mu.Unlock()
	aborted := make(chan struct{})
	go func() {
		m.Abort()
		close(aborted)
	}()
	recvWithin(t, l.ctx.Done(), "Abort to cancel the replay")
	select {
	case <-aborted:
		t.Fatal("Abort returned while a replay was still running")
	default:
	}
	h.feed(true)
	recvWithin(t, aborted, "Abort after the replay ended")
	if err := recvWithin(t, got, "the reloading Get"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get during Abort = %v, want ErrClosed", err)
	}
	if resident, loading := residency(m, id); resident || loading {
		t.Fatalf("aborted reload left the session resident=%v loading=%v", resident, loading)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			var buf bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Fatalf("%d goroutines after Abort, %d before New:\n%s", runtime.NumGoroutine(), base, buf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
