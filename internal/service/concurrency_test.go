package service

// Race-detector targets: one session hammered by many clients, and
// many sessions sharing a pool smaller than their number. Both assert
// determinism — with a fixed seed and scripted answers, the service
// must reproduce the in-process batch transcript bit for bit, which is
// the strongest possible "no lost or reordered answers" check.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
)

// driveSession judges a session's queries through the in-process API,
// lowest seq first, until done, tolerating backpressure.
// Error-returning (not Fatal) so it is safe to call from spawned
// goroutines.
func driveSession(s *Session, user oracle.Oracle) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for {
		qs, state, err := s.AwaitQueries(ctx)
		if errors.Is(err, ErrSaturated) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err != nil {
			return fmt.Errorf("AwaitQueries: %w", err)
		}
		if len(qs) == 0 {
			if state != StateDone {
				return fmt.Errorf("session ended in state %s: %s", state, s.Status().Error)
			}
			return nil
		}
		q := qs[0]
		if _, err := s.Judge(context.Background(), q.Seq, oracle.Judgment{Pref: user.Compare(q.A, q.B)}); err != nil {
			if errors.Is(err, ErrSaturated) {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return fmt.Errorf("Judge: %w", err)
		}
	}
}

func sessionTranscript(t *testing.T, s *Session) []byte {
	t.Helper()
	var tr *core.Transcript
	var err error
	for i := 0; i < 200; i++ {
		tr, err = s.Transcript()
		if err == nil {
			break
		}
		if !errors.Is(err, ErrBusy) {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if tr == nil {
		t.Fatal("transcript stayed busy")
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestConcurrentAnswerHammer drives one session while eight goroutines
// race to answer every query. Exactly one must win each round, the
// rest must get clean conflicts, and the final transcript must match
// the batch run — no answer lost, duplicated, or reordered.
func TestConcurrentAnswerHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(45)
	want := batchTranscript(t, spec, user)

	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	s, err := m.Create(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const hammers = 8
	for {
		qs, state, err := s.AwaitQueries(ctx)
		if errors.Is(err, ErrSaturated) {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatalf("AwaitQueries: %v", err)
		}
		if len(qs) == 0 {
			if state != StateDone {
				t.Fatalf("session ended in state %s: %s", state, s.Status().Error)
			}
			break
		}
		q := qs[0]
		j := oracle.Judgment{Pref: user.Compare(q.A, q.B)}
		var accepted atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < hammers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := s.Judge(context.Background(), q.Seq, j)
				switch {
				case err == nil:
					accepted.Add(1)
				case errors.Is(err, ErrNoPending), errors.Is(err, ErrStaleAnswer),
					errors.Is(err, ErrSaturated):
					// clean rejection
				default:
					t.Errorf("unexpected answer error: %v", err)
				}
			}()
		}
		wg.Wait()
		if got := accepted.Load(); got != 1 {
			t.Fatalf("seq %d: %d answers accepted, want exactly 1", q.Seq, got)
		}
	}

	if got := sessionTranscript(t, s); !bytes.Equal(want, got) {
		t.Error("hammered session transcript diverged from batch run")
	}
}

// TestManySessionsSmallPool pushes four concurrent sessions through a
// two-slot pool. Every session must converge to its own batch-run
// transcript: the pool may serialize work but must never cross wires.
func TestManySessionsSmallPool(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	seeds := []int64{51, 52, 53, 54}

	// Batch references, computed concurrently (independent synthesizers).
	want := make([][]byte, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want[i], errs[i] = batchTranscriptErr(testSpec(seed), user)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch reference (seed %d): %v", seeds[i], err)
		}
	}

	cfg := testConfig(t.TempDir())
	cfg.Workers = 2
	cfg.AcquireWait = 3 * time.Second
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()

	sessions := make([]*Session, len(seeds))
	for i, seed := range seeds {
		if sessions[i], err = m.Create(context.Background(), testSpec(seed)); err != nil {
			t.Fatal(err)
		}
	}
	driveErrs := make([]error, len(sessions))
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveErrs[i] = driveSession(s, user)
		}()
	}
	wg.Wait()
	for i, err := range driveErrs {
		if err != nil {
			t.Fatalf("session %s: %v", sessions[i].ID, err)
		}
	}

	for i, s := range sessions {
		if got := sessionTranscript(t, s); !bytes.Equal(want[i], got) {
			t.Errorf("session %s (seed %d) diverged from its batch run", s.ID, seeds[i])
		}
		if st := s.Status(); !st.Converged {
			t.Errorf("session %s did not converge", s.ID)
		}
	}
}

// TestGetRacesDelete races Get against Delete. Delete drops the session
// from the table and unlinks its journal; a Get that lands between the
// two must not rebuild the session from the journal it is about to
// lose. Once Delete returns, the session is gone for good: Get answers
// ErrNotFound and no journal is left. Resurrected sessions would also
// pile up until Create hits MaxSessions.
func TestGetRacesDelete(t *testing.T) {
	dir := t.TempDir()
	m, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	for i := 0; i < 40; i++ {
		s, err := m.Create(context.Background(), testSpec(int64(200+i)))
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
		id := s.ID
		// Start the first synthesis step, so Delete tears down a
		// computing session.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		s.AwaitQueries(ctx) //nolint:errcheck // the poll is meant to time out
		cancel()
		stop := make(chan struct{})
		var wg, spinning sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			spinning.Add(1)
			go func() {
				defer wg.Done()
				m.Get(id) //nolint:errcheck // resident: cannot fail
				spinning.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					m.Get(id) //nolint:errcheck // only the race matters here
				}
			}()
		}
		spinning.Wait()
		delErr := m.Delete(id)
		close(stop)
		wg.Wait()
		if delErr != nil {
			t.Fatalf("delete %s: %v", id, delErr)
		}
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(%s) after Delete = %v, want ErrNotFound", id, err)
		}
		if _, err := os.Stat(journalPath(dir, id)); !os.IsNotExist(err) {
			t.Fatalf("journal of %s survives Delete (stat err %v)", id, err)
		}
	}
}
