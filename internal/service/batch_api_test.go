package service

// Tests for the rounds surface (GET /v1/sessions/{id}/queries, POST
// /v1/sessions/{id}/judgments): whole rounds judged in one POST and
// rounds judged one POST per judgment must both reproduce the
// in-process batch run bit-identically — the repo-wide invariant every
// serving path obeys.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
)

// batchSpec is testSpec with multi-query planner rounds, so the batch
// endpoints carry real batches instead of rounds of one.
func batchSpec(seed int64) SessionSpec {
	spec := testSpec(seed)
	spec.PairsPerIteration = 3
	return spec
}

type batchQueriesResp struct {
	State   string `json:"state"`
	Queries []struct {
		Seq int       `json:"seq"`
		A   []float64 `json:"a"`
		B   []float64 `json:"b"`
	} `json:"queries"`
	Final []float64 `json:"final"`
	Error string    `json:"error"`
}

func getQueries(t *testing.T, base, id string) batchQueriesResp {
	t.Helper()
	client := &http.Client{Timeout: 60 * time.Second}
	for tries := 0; tries < 2000; tries++ {
		resp, err := client.Get(base + "/v1/sessions/" + id + "/queries?wait=20s")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var qr batchQueriesResp
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatalf("decode queries %q: %v", raw, err)
			}
			return qr
		case http.StatusRequestTimeout, http.StatusTooManyRequests:
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("queries: %d %s", resp.StatusCode, raw)
		}
	}
	t.Fatal("queries long-poll did not settle")
	return batchQueriesResp{}
}

func postJudgments(t *testing.T, base, id string, body any) (*http.Response, []byte) {
	t.Helper()
	jb, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions/"+id+"/judgments", "application/json", bytes.NewReader(jb))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, raw
}

// driveHTTPBatch answers whole rounds through the batch surface, each
// round judged back-to-front in a single POST, until the session
// finishes or maxRounds rounds were answered (-1 for no limit).
// Returns total judgments sent and whether the session finished.
func driveHTTPBatch(t *testing.T, base, id string, user oracle.Oracle, maxRounds int) (int, bool) {
	t.Helper()
	answered, rounds := 0, 0
	for tries := 0; tries < 2000; tries++ {
		qr := getQueries(t, base, id)
		switch State(qr.State) {
		case StateAwaiting:
			if maxRounds >= 0 && rounds >= maxRounds {
				return answered, false
			}
			items := make([]map[string]any, 0, len(qr.Queries))
			for i := len(qr.Queries) - 1; i >= 0; i-- {
				q := qr.Queries[i]
				item := map[string]any{
					"seq":  q.Seq,
					"pref": prefWord(user.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))),
				}
				if i%2 == 0 {
					item["confidence"] = 1.0
				}
				items = append(items, item)
			}
			resp, raw := postJudgments(t, base, id, map[string]any{"judgments": items})
			switch resp.StatusCode {
			case http.StatusAccepted:
				var jr struct {
					Accepted int `json:"accepted"`
				}
				if err := json.Unmarshal(raw, &jr); err != nil {
					t.Fatalf("decode judgments response %q: %v", raw, err)
				}
				if jr.Accepted != len(items) {
					t.Fatalf("judgments accepted %d of %d", jr.Accepted, len(items))
				}
				answered += jr.Accepted
				rounds++
			case http.StatusConflict, http.StatusTooManyRequests:
				time.Sleep(20 * time.Millisecond)
			default:
				t.Fatalf("judgments: %d %s", resp.StatusCode, raw)
			}
		case StateDone:
			return answered, true
		case StateFailed:
			t.Fatalf("session failed: %s", qr.Error)
		}
	}
	t.Fatal("session did not finish within the retry budget")
	return answered, false
}

// TestHTTPBatchGolden is the batch surface's acceptance core: a
// session whose rounds are fetched with GET queries and judged
// out-of-order with POST judgments must reproduce the in-process run
// bit for bit — and so must a client in the shape of the retired
// single-query one ("legacy-client"), posting the very same multi-query
// rounds one judgment at a time, lowest seq first.
func TestHTTPBatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := batchSpec(45)
	want := batchTranscript(t, spec, user)

	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	defer m.Abort()

	t.Run("batch-client", func(t *testing.T) {
		id := createSession(t, srv.URL, spec)
		if _, done := driveHTTPBatch(t, srv.URL, id, user, -1); !done {
			t.Fatal("session did not complete")
		}
		if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(want, got) {
			t.Errorf("batch-surface transcript diverged from in-process run (%d vs %d bytes)", len(got), len(want))
		}
	})
	t.Run("legacy-client", func(t *testing.T) {
		spec2 := spec
		spec2.ID = "legacy-on-rounds"
		id := createSession(t, srv.URL, spec2)
		if _, done := driveHTTP(t, srv.URL, id, user, -1); !done {
			t.Fatal("session did not complete")
		}
		if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(want, got) {
			t.Errorf("per-judgment transcript diverged from in-process run (%d vs %d bytes)", len(got), len(want))
		}
	})
}

// TestHTTPBatchStatusAndValidation pins the round bookkeeping visible
// through the API: pending_seqs lists the whole open round (shrinking
// as judgments land), and the judgments route rejects malformed
// batches atomically while reporting partial acceptance for stale
// sequence numbers.
func TestHTTPBatchStatusAndValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	defer m.Abort()
	id := createSession(t, srv.URL, batchSpec(46))

	// Walk to the first multi-query round.
	var qr batchQueriesResp
	for {
		qr = getQueries(t, srv.URL, id)
		if State(qr.State) != StateAwaiting {
			t.Fatalf("session reached %s before a multi-query round", qr.State)
		}
		if len(qr.Queries) > 1 {
			break
		}
		q := qr.Queries[0]
		resp, raw := postJudgments(t, srv.URL, id, map[string]any{"judgments": []map[string]any{{
			"seq":  q.Seq,
			"pref": prefWord(user.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))),
		}}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("judgment: %d %s", resp.StatusCode, raw)
		}
	}

	var st SessionStatus
	resp, err := http.Get(srv.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.PendingSeqs) != len(qr.Queries) || st.PendingSeqs[0] != qr.Queries[0].Seq {
		t.Errorf("status pending_seqs = %v, want the round's %d seqs from %d",
			st.PendingSeqs, len(qr.Queries), qr.Queries[0].Seq)
	}

	// Malformed batches are rejected before anything applies.
	for name, body := range map[string]any{
		"empty":          map[string]any{"judgments": []map[string]any{}},
		"bad-pref":       map[string]any{"judgments": []map[string]any{{"seq": qr.Queries[0].Seq, "pref": "maybe"}}},
		"bad-confidence": map[string]any{"judgments": []map[string]any{{"seq": qr.Queries[0].Seq, "pref": "first", "confidence": 1.5}}},
	} {
		if resp, raw := postJudgments(t, srv.URL, id, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s batch: %d %s, want 400", name, resp.StatusCode, raw)
		}
	}

	// A batch whose second judgment is stale applies its first and
	// reports accepted=1 with a conflict, marking the retry point.
	q0, q1 := qr.Queries[0], qr.Queries[1]
	judge := func(q struct {
		Seq int       `json:"seq"`
		A   []float64 `json:"a"`
		B   []float64 `json:"b"`
	}) map[string]any {
		return map[string]any{
			"seq":  q.Seq,
			"pref": prefWord(user.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))),
		}
	}
	stale := judge(q1)
	stale["seq"] = q1.Seq + 1000
	resp2, raw := postJudgments(t, srv.URL, id, map[string]any{"judgments": []map[string]any{judge(q0), stale}})
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("partial batch: %d %s, want 409", resp2.StatusCode, raw)
	}
	var jr struct {
		Accepted int    `json:"accepted"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Accepted != 1 || !strings.Contains(jr.Error, "does not match") {
		t.Errorf("partial batch response = %s, want accepted 1 + stale-answer error", raw)
	}

	// The remainder of the round is still live: finish it and the rest
	// of the session through the batch surface.
	if _, done := driveHTTPBatch(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not complete after partial batch")
	}
}

// TestHTTPBatchRestartRecovery crashes the daemon mid-round — after an
// out-of-order partial batch (the round's LAST query judged, the rest
// open) — and restarts over the same data dir. Replay must land the
// session exactly where it was: same open queries, same answer count,
// and a final transcript bit-identical to the in-process run.
func TestHTTPBatchRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := batchSpec(47)
	want := batchTranscript(t, spec, user)
	dir := t.TempDir()

	m1, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(Handler(m1))
	id := createSession(t, srv1.URL, spec)

	// Walk to the first multi-query round, then judge only its last
	// query so the crash point is a partially answered, out-of-order
	// round.
	answered := 0
	var round batchQueriesResp
	for {
		round = getQueries(t, srv1.URL, id)
		if State(round.State) != StateAwaiting {
			t.Fatalf("session reached %s before a multi-query round", round.State)
		}
		if len(round.Queries) > 1 {
			break
		}
		q := round.Queries[0]
		resp, raw := postJudgments(t, srv1.URL, id, map[string]any{"judgments": []map[string]any{{
			"seq":  q.Seq,
			"pref": prefWord(user.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))),
		}}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("judgment: %d %s", resp.StatusCode, raw)
		}
		answered++
	}
	last := round.Queries[len(round.Queries)-1]
	resp, raw := postJudgments(t, srv1.URL, id, map[string]any{"judgments": []map[string]any{{
		"seq":  last.Seq,
		"pref": prefWord(user.Compare(scenario.Scenario(last.A), scenario.Scenario(last.B))),
	}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("out-of-order judgment: %d %s", resp.StatusCode, raw)
	}
	answered++
	srv1.Close()
	m1.Abort() // crash: no checkpoint, only the fsynced judgment journal

	m2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(m2))
	defer srv2.Close()
	defer m2.Abort()

	s, err := m2.Get(id)
	if err != nil {
		t.Fatalf("recovered session: %v", err)
	}
	if got := s.Status().Answers; got != answered {
		t.Errorf("recovered session has %d answers, journal had %d", got, answered)
	}
	reopened := getQueries(t, srv2.URL, id)
	if State(reopened.State) != StateAwaiting || len(reopened.Queries) != len(round.Queries)-1 {
		t.Fatalf("recovered round: state %s with %d open queries, want awaiting_answer with %d",
			reopened.State, len(reopened.Queries), len(round.Queries)-1)
	}
	for i, q := range reopened.Queries {
		if q.Seq != round.Queries[i].Seq {
			t.Errorf("recovered open query %d has seq %d, want %d", i, q.Seq, round.Queries[i].Seq)
		}
	}

	if _, done := driveHTTPBatch(t, srv2.URL, id, user, -1); !done {
		t.Fatal("recovered session did not complete")
	}
	if got := fetchTranscript(t, srv2.URL, id); !bytes.Equal(want, got) {
		t.Errorf("post-restart transcript diverged from in-process run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestHTTPBatchGracefulShutdownMidRound pins recovery of a partially
// answered round. Judgments accepted mid-round live only inside the
// stepper until the round completes, so only the journaled answer
// records carry them: a graceful shutdown (Manager.Close, the daemon's
// SIGTERM path) landing on such a round writes no checkpoint, and
// replay must reopen the round with exactly its unanswered queries.
func TestHTTPBatchGracefulShutdownMidRound(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := batchSpec(48)
	want := batchTranscript(t, spec, user)
	dir := t.TempDir()
	cfg := testConfig(dir)

	m1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(Handler(m1))
	id := createSession(t, srv1.URL, spec)

	// Walk to the first multi-query round, then judge only its last
	// query — out of order and hedged — so the shutdown lands on a
	// partially answered round.
	answered := 0
	var round batchQueriesResp
	for {
		round = getQueries(t, srv1.URL, id)
		if State(round.State) != StateAwaiting {
			t.Fatalf("session reached %s before a multi-query round", round.State)
		}
		if len(round.Queries) > 1 {
			break
		}
		q := round.Queries[0]
		resp, raw := postJudgments(t, srv1.URL, id, map[string]any{"judgments": []map[string]any{{
			"seq":  q.Seq,
			"pref": prefWord(user.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))),
		}}})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("judgment: %d %s", resp.StatusCode, raw)
		}
		answered++
	}
	last := round.Queries[len(round.Queries)-1]
	resp, raw := postJudgments(t, srv1.URL, id, map[string]any{"judgments": []map[string]any{{
		"seq":        last.Seq,
		"pref":       prefWord(user.Compare(scenario.Scenario(last.A), scenario.Scenario(last.B))),
		"confidence": 0.6,
	}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mid-round judgment: %d %s", resp.StatusCode, raw)
	}
	answered++
	srv1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m1.Close(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	assertNoCheckpoint(t, cfg.DataDir, id)

	m2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(m2))
	defer srv2.Close()
	defer m2.Abort()

	s, err := m2.Get(id)
	if err != nil {
		t.Fatalf("recovered session: %v", err)
	}
	if got := s.Status().Answers; got != answered {
		t.Errorf("recovered session has %d answers, journal had %d", got, answered)
	}
	reopened := getQueries(t, srv2.URL, id)
	if State(reopened.State) != StateAwaiting || len(reopened.Queries) != len(round.Queries)-1 {
		t.Fatalf("recovered round: state %s with %d open queries, want awaiting_answer with %d",
			reopened.State, len(reopened.Queries), len(round.Queries)-1)
	}
	for i, q := range reopened.Queries {
		if q.Seq != round.Queries[i].Seq {
			t.Errorf("recovered open query %d has seq %d, want %d", i, q.Seq, round.Queries[i].Seq)
		}
	}

	if _, done := driveHTTPBatch(t, srv2.URL, id, user, -1); !done {
		t.Fatal("recovered session did not complete")
	}
	if got := fetchTranscript(t, srv2.URL, id); !bytes.Equal(want, got) {
		t.Errorf("post-shutdown transcript diverged from in-process run (%d vs %d bytes)", len(got), len(want))
	}
}
