package service

// Restore and startup recovery replay journals off the manager lock. A
// restore whose replay fails must leave nothing behind, and startup
// recovery must give the same result with one replay worker and with
// four. replay_unix_test.go holds lazy reloads mid-replay.

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/solver"
)

// residency reports whether id is resident and whether a rebuild of it
// is in flight.
func residency(m *Manager, id string) (resident, loading bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, resident = m.sessions[id]
	_, loading = m.loads[id]
	return resident, loading
}

// TestFailedRestoreReplayLeavesNoTrace restores a migration bundle
// whose journal was tampered with: the replay diverges, Restore fails,
// and neither the journal it wrote nor the ID's claim survives, so the
// intact bundle then restores under the same ID.
func TestFailedRestoreReplayLeavesNoTrace(t *testing.T) {
	user := swanUser(t)
	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	s, err := m.Create(context.Background(), testSpec(64))
	if err != nil {
		t.Fatal(err)
	}
	answerN(t, s, user, 4)
	parkQuery(t, s)
	b, err := s.Bundle()
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]json.RawMessage(nil), b.Journal...)
	for i, ln := range tampered {
		if patched := bytes.Replace(ln, []byte(`"a":[`), []byte(`"a":[9999,`), 1); !bytes.Equal(patched, ln) {
			tampered[i] = patched
			break
		}
	}

	dir := t.TempDir()
	m2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Abort()
	if _, err := m2.Restore(s.ID, tampered); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("restore of a tampered journal = %v, want a divergence", err)
	}
	if _, err := os.Stat(journalPath(dir, s.ID)); !os.IsNotExist(err) {
		t.Fatalf("failed restore left its journal behind (stat err %v)", err)
	}
	if resident, loading := residency(m2, s.ID); resident || loading {
		t.Fatalf("failed restore left the session resident=%v loading=%v", resident, loading)
	}
	r, err := m2.Restore(s.ID, b.Journal)
	if err != nil {
		t.Fatalf("restore after a failed one: %v", err)
	}
	if got := r.Status().Answers; got != 4 {
		t.Errorf("restored session has %d answers, want 4", got)
	}
}

// copyDataDir copies a data directory's files into a fresh one.
func copyDataDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryParallel recovers one data dir with one replay worker and
// with four. The dir holds three live journals, a finished one, a
// corrupt one and a diverged one (a tampered answer) whose ID sorts
// highest. Both runs must register the same statuses, quarantine the
// same two journals as .bad, log and time every replay, and generate
// the next ID above the diverged journal's: its ID still counts because
// the journal parsed. Without -short each live session then finishes
// byte-identical to its batch run.
func TestRecoveryParallel(t *testing.T) {
	user := swanUser(t)
	src := t.TempDir()
	m, err := New(testConfig(src))
	if err != nil {
		t.Fatal(err)
	}
	specs := map[string]SessionSpec{}
	create := func(seed int64) *Session {
		t.Helper()
		s, err := m.Create(context.Background(), testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		specs[s.ID] = testSpec(seed)
		return s
	}
	live := []*Session{create(70), create(71)}
	finished := create(72)
	live = append(live, create(73))
	corrupt := create(74)
	diverged := create(75)
	for i, s := range live {
		answerN(t, s, user, 3*(i+1))
		parkQuery(t, s)
	}
	if err := driveSession(finished, user); err != nil {
		t.Fatal(err)
	}
	answerN(t, diverged, user, 5)
	parkQuery(t, diverged)
	m.Abort()

	if err := os.WriteFile(journalPath(src, corrupt.ID), []byte("not json at all\nstill not\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journalPath(src, diverged.ID))
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(`"a":[`), []byte(`"a":[9999,`), 1)
	if bytes.Equal(raw, tampered) {
		t.Fatal("tamper patch did not apply")
	}
	if err := os.WriteFile(journalPath(src, diverged.ID), tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	wantIDs := []string{live[0].ID, live[1].ID, finished.ID, live[2].ID}
	wantBad := []string{corrupt.ID + ".journal.bad", diverged.ID + ".journal.bad"}
	var statuses [][]SessionStatus
	for _, workers := range []int{1, 4} {
		dir := copyDataDir(t, src)
		var sink lockedBuffer
		cfg := testConfig(dir)
		cfg.Workers = workers
		cfg.Log = obs.NewLogger(&sink, slog.LevelInfo)
		cfg.Obs = &obs.Observer{Registry: obs.NewRegistry()}
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		defer m.Abort()

		st := m.List()
		statuses = append(statuses, st)
		var ids []string
		for _, s := range st {
			ids = append(ids, s.ID)
		}
		if !reflect.DeepEqual(ids, wantIDs) {
			t.Errorf("workers=%d: recovered %v, want %v", workers, ids, wantIDs)
		}
		bad, err := filepath.Glob(filepath.Join(dir, "*.bad"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range bad {
			bad[i] = filepath.Base(bad[i])
		}
		sort.Strings(bad)
		if !reflect.DeepEqual(bad, wantBad) {
			t.Errorf("workers=%d: quarantined %v, want %v", workers, bad, wantBad)
		}
		if n := m.met.replaySeconds.Count(); n != int64(len(wantIDs)) {
			t.Errorf("workers=%d: compsynthd_replay_seconds observed %d rebuilds, want %d", workers, n, len(wantIDs))
		}
		lines := sink.lines(t)
		for _, s := range st {
			rec := findLines(lines, "session.recover", "session", s.ID)
			if len(rec) != 1 || rec[0]["answers"] != float64(s.Answers) || rec[0]["dur_ms"] == nil {
				t.Errorf("workers=%d: session.recover lines for %s: %v", workers, s.ID, rec)
			}
		}
		done := findLines(lines, "session.recover.done")
		if len(done) != 1 || done[0]["sessions"] != float64(len(wantIDs)) || done[0]["failed"] != float64(2) ||
			done[0]["workers"] != float64(workers) || done[0]["dur_ms"] == nil {
			t.Errorf("workers=%d: session.recover.done lines: %v", workers, done)
		}

		next, err := m.Create(context.Background(), testSpec(76))
		if err != nil {
			t.Fatal(err)
		}
		if next.ID <= diverged.ID {
			t.Errorf("workers=%d: next generated ID %s does not sort above the diverged journal's %s", workers, next.ID, diverged.ID)
		}

		if testing.Short() {
			continue
		}
		for _, l := range live {
			s, err := m.Get(l.ID)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := finishTranscript(t, s, user), batchTranscript(t, specs[l.ID], user); !bytes.Equal(got, want) {
				t.Errorf("workers=%d: session %s diverged from its batch run (%d vs %d bytes)", workers, l.ID, len(got), len(want))
			}
		}
	}
	if !reflect.DeepEqual(statuses[0], statuses[1]) {
		t.Errorf("recovered statuses differ between 1 and 4 workers:\n%+v\n%+v", statuses[0], statuses[1])
	}
	for _, s := range statuses[0] {
		want := StateIdle
		if s.ID == finished.ID {
			want = StateDone
		}
		if s.State != want {
			t.Errorf("recovered %s is %s, want %s", s.ID, s.State, want)
		}
	}
}

// steppedEffort drives a fresh stepper for spec through the first n
// answers of user, lowest seq first as answerN answers, with no
// NextBatch after the last, and returns its solver counters and
// completed iterations.
func steppedEffort(t *testing.T, spec SessionSpec, user oracle.Oracle, n int) (solver.StatsSnapshot, int64) {
	t.Helper()
	stats := &solver.Stats{}
	cfg, err := spec.config(nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	var iterations int64
	cfg.OnIteration = func(core.IterationStat) { iterations++ }
	st, err := core.NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for answered := 0; answered < n; {
		qs, err := st.NextBatch(context.Background())
		if err != nil || len(qs) == 0 {
			t.Fatalf("reference stepper after %d answers: %v (round=%v)", answered, err, qs)
		}
		for _, q := range qs[:min(len(qs), n-answered)] {
			if err := st.AnswerSeq(q.Seq, oracle.Judgment{Pref: user.Compare(q.A, q.B)}); err != nil {
				t.Fatal(err)
			}
			answered++
		}
	}
	return stats.Snapshot(), iterations
}

// TestRecoveryIdleUntilPolled recovers idle journals with one replay
// worker. A replay searches only for the rounds its journaled answers
// need: each recovered session's solver counters and iterations equal
// those of a fresh stepper driven through the same answers with no
// NextBatch after the last, and they stay there until the session's
// own poll computes its next round under a worker slot.
func TestRecoveryIdleUntilPolled(t *testing.T) {
	user := swanUser(t)
	dir := t.TempDir()
	m, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	type journaled struct {
		id      string
		spec    SessionSpec
		answers int
	}
	var sessions []journaled
	for i, seed := range []int64{80, 81, 82} {
		s, err := m.Create(context.Background(), testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		n := 11 + 2*i // past the initial ranking, which asks at most ten questions
		answerN(t, s, user, n)
		parkQuery(t, s)
		sessions = append(sessions, journaled{s.ID, testSpec(seed), n})
	}
	m.Abort()

	cfg := testConfig(dir)
	cfg.Workers = 1
	m2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Abort()
	type effort struct {
		solver     solver.StatsSnapshot
		iterations int64
	}
	want := make([]effort, len(sessions))
	for i, j := range sessions {
		want[i].solver, want[i].iterations = steppedEffort(t, j.spec, user, j.answers)
	}
	current := func(j journaled) effort {
		s, err := m2.Get(j.id)
		if err != nil {
			t.Fatal(err)
		}
		st := s.Status()
		return effort{*st.SolverEffort, st.Iterations}
	}
	for polled, j := range sessions {
		for i, other := range sessions[polled:] {
			if got := current(other); got != want[polled+i] {
				t.Errorf("before polling %s: recovered %s has effort %+v, want the replayed answers' %+v",
					j.id, other.id, got, want[polled+i])
			}
		}
		s, err := m2.Get(j.id)
		if err != nil {
			t.Fatal(err)
		}
		parkQuery(t, s)
		if got := current(j); got.solver.Samples <= want[polled].solver.Samples {
			t.Errorf("polling %s ran no search: %d samples, %d before", j.id, got.solver.Samples, want[polled].solver.Samples)
		}
	}
}
