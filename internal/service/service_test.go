package service

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

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// testSpec mirrors the fast config the core stepper tests use, so
// sessions finish in well under a second per step.
func testSpec(seed int64) SessionSpec {
	return SessionSpec{
		Seed:        seed,
		Solver:      &SolverSpec{Samples: 150, RepairRestarts: 5, RepairSteps: 60, Workers: 1},
		Distinguish: &DistinguishSpec{Candidates: 6, PairSamples: 250, Gamma: 2},
	}
}

func testConfig(dir string) Config {
	return Config{
		DataDir:         dir,
		Workers:         2,
		MaxSessions:     16,
		JanitorInterval: time.Hour, // sweeps are driven manually in tests
		StepTimeout:     time.Minute,
		AcquireWait:     2 * time.Second,
		LongPollMax:     25 * time.Second,
	}
}

func swanUser(t *testing.T) oracle.Oracle {
	t.Helper()
	cand, err := sketch.DefaultSWANTarget.Candidate(sketch.SWAN())
	if err != nil {
		t.Fatal(err)
	}
	return oracle.NewGroundTruth(cand, 1e-9)
}

// batchTranscriptErr runs the in-process batch synthesizer on the same
// spec — the reference every service path must reproduce exactly.
// Error-returning so concurrent tests can call it off the test
// goroutine.
func batchTranscriptErr(spec SessionSpec, user oracle.Oracle) ([]byte, error) {
	cfg, err := spec.config(nil, &solver.Stats{})
	if err != nil {
		return nil, err
	}
	cfg.Oracle = user
	synth, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := synth.Run()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := core.Export(res).WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func batchTranscript(t *testing.T, spec SessionSpec, user oracle.Oracle) []byte {
	t.Helper()
	b, err := batchTranscriptErr(spec, user)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func prefWord(p oracle.Preference) string {
	switch p {
	case oracle.PrefersFirst:
		return "first"
	case oracle.PrefersSecond:
		return "second"
	}
	return "tie"
}

func createSession(t *testing.T, base string, spec SessionSpec) string {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: %d %s", resp.StatusCode, raw)
	}
	var st SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// driveHTTP judges the session's queries through the round surface
// (the scripted architect): one judgment per POST, lowest seq first,
// stopping after maxAnswers judgments (-1 for no limit). Returns the
// number of judgments sent and whether the session finished.
func driveHTTP(t *testing.T, base, id string, user oracle.Oracle, maxAnswers int) (int, bool) {
	t.Helper()
	answered := 0
	for tries := 0; tries < 2000; tries++ {
		qr := getQueries(t, base, id)
		switch State(qr.State) {
		case StateAwaiting:
			if maxAnswers >= 0 && answered >= maxAnswers {
				return answered, false
			}
			q := qr.Queries[0]
			pref := user.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))
			item := map[string]any{"seq": q.Seq, "pref": prefWord(pref)}
			resp, raw := postJudgments(t, base, id, map[string]any{"judgments": []any{item}})
			switch resp.StatusCode {
			case http.StatusAccepted:
				answered++
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

func fetchTranscript(t *testing.T, base, id string) []byte {
	t.Helper()
	client := &http.Client{Timeout: 30 * time.Second}
	for i := 0; i < 200; i++ {
		resp, err := client.Get(base + "/v1/sessions/" + id + "/transcript")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return raw
		case http.StatusConflict: // still computing; settle and retry
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("transcript: %d %s", resp.StatusCode, raw)
		}
	}
	t.Fatal("transcript stayed busy")
	return nil
}

// TestHTTPGolden is the service acceptance core: a session driven over
// HTTP by the scripted oracle must produce a transcript bit-identical
// to the in-process batch run on the same spec and seed.
func TestHTTPGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(41)
	want := batchTranscript(t, spec, user)

	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	defer m.Abort()

	id := createSession(t, srv.URL, spec)
	if _, done := driveHTTP(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not complete")
	}
	got := fetchTranscript(t, srv.URL, id)
	if !bytes.Equal(want, got) {
		t.Errorf("HTTP transcript diverged from batch run (%d vs %d bytes)", len(got), len(want))
	}

	// The queries endpoint reports the final hole vector inline.
	if qr := getQueries(t, srv.URL, id); State(qr.State) != StateDone || len(qr.Final) == 0 {
		t.Errorf("final queries poll: state %q, final %v", qr.State, qr.Final)
	}
}

// TestHTTPRestartRecovery kills the daemon mid-session (no checkpoint,
// simulating a crash) and restarts it over the same data dir. The
// journal replay must land the session exactly where it was, and the
// finished transcript must still match the batch run bit for bit.
func TestHTTPRestartRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(42)
	want := batchTranscript(t, spec, user)
	dir := t.TempDir()

	m1, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(Handler(m1))
	id := createSession(t, srv1.URL, spec)
	answered, done := driveHTTP(t, srv1.URL, id, user, 4)
	if done {
		t.Fatalf("session finished after only %d answers; crash point never reached", answered)
	}
	srv1.Close()
	m1.Abort() // crash: no checkpoints, only the fsynced answer journal

	m2, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(m2))
	defer srv2.Close()

	// The session must already be resident (startup recovery).
	s, err := m2.Get(id)
	if err != nil {
		t.Fatalf("recovered session: %v", err)
	}
	if got := s.Status().Answers; got != answered {
		t.Errorf("recovered session has %d answers, journal had %d", got, answered)
	}

	if _, done := driveHTTP(t, srv2.URL, id, user, -1); !done {
		t.Fatal("recovered session did not complete")
	}
	got := fetchTranscript(t, srv2.URL, id)
	if !bytes.Equal(want, got) {
		t.Errorf("post-restart transcript diverged from batch run (%d vs %d bytes)", len(got), len(want))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m2.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}

	// Third incarnation: the finished session reloads from its final
	// journal record without a stepper.
	m3, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Abort()
	s3, err := m3.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st := s3.Status(); st.State != StateDone || !st.Converged {
		t.Errorf("reloaded finished session: state %s converged %v", st.State, st.Converged)
	}
	tr, err := s3.Transcript()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Error("transcript reloaded from the final journal record diverged")
	}
}

// TestHTTPErrors pins the API's error contract: status codes for
// missing sessions, bad specs, removed routes, stale judgments, and
// pool saturation.
func TestHTTPErrors(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.Workers = 1
	cfg.MaxSessions = 1
	cfg.AcquireWait = 0 // reject immediately when saturated
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	client := srv.Client()

	status := func(method, path, body string) (int, string) {
		t.Helper()
		var rdr io.Reader
		if body != "" {
			rdr = bytes.NewReader([]byte(body))
		}
		req, err := http.NewRequest(method, srv.URL+path, rdr)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	if code, _ := status("GET", "/v1/sessions/s999999", ""); code != http.StatusNotFound {
		t.Errorf("unknown session: got %d, want 404", code)
	}
	if code, body := status("POST", "/v1/sessions", `{"sketch":"bogus"}`); code != http.StatusBadRequest {
		t.Errorf("bad sketch: got %d %s, want 400", code, body)
	}
	if code, body := status("POST", "/v1/sessions", `{"not_a_field":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: got %d %s, want 400", code, body)
	}
	// The solver's batch-lane knob is gone: clients that still send it
	// are told which field to drop.
	if code, body := status("POST", "/v1/sessions", `{"seed":2,"solver":{"batch_lanes":16}}`); code != http.StatusBadRequest || !strings.Contains(body, "batch_lanes") {
		t.Errorf("retired batch_lanes field: got %d %s, want 400 naming the field", code, body)
	}
	// Sampling and repair are sequential: a parallel worker count is
	// refused by name (testSpec's "workers":1 creates below).
	if code, body := status("POST", "/v1/sessions", `{"seed":2,"solver":{"workers":2}}`); code != http.StatusBadRequest || !strings.Contains(body, "workers") {
		t.Errorf("solver workers 2: got %d %s, want 400 naming the field", code, body)
	}

	id := createSession(t, srv.URL, testSpec(1))
	if code, body := status("POST", "/v1/sessions", `{"seed":2}`); code != http.StatusTooManyRequests {
		t.Errorf("session cap: got %d %s, want 429", code, body)
	}
	// The single-query and unversioned routes are gone.
	for _, rt := range []struct{ method, path, body string }{
		{"GET", "/v1/sessions/" + id + "/query", ""},
		{"POST", "/v1/sessions/" + id + "/answer", `{"seq":0,"pref":"first"}`},
		{"POST", "/sessions", `{"seed":3}`},
		{"GET", "/sessions/" + id, ""},
	} {
		if code, body := status(rt.method, rt.path, rt.body); code != http.StatusNotFound {
			t.Errorf("removed route %s %s: got %d %s, want 404", rt.method, rt.path, code, body)
		}
	}
	judge := func(pref string) string {
		return `{"judgments":[{"seq":0,"pref":"` + pref + `"}]}`
	}
	if code, _ := status("POST", "/v1/sessions/"+id+"/judgments", judge("maybe")); code != http.StatusBadRequest {
		t.Errorf("bad pref: got %d, want 400", code)
	}
	if code, _ := status("POST", "/v1/sessions/"+id+"/judgments", judge("first")); code != http.StatusConflict {
		t.Errorf("judgment with no pending query: got %d, want 409", code)
	}

	// Saturate the single-slot pool by hand: the idle session cannot
	// start its first step, so the queries poll reports backpressure.
	m.slots <- struct{}{}
	if code, body := status("GET", "/v1/sessions/"+id+"/queries?wait=10ms", ""); code != http.StatusTooManyRequests {
		t.Errorf("saturated queries: got %d %s, want 429", code, body)
	}
	<-m.slots

	if code, _ := status("GET", "/healthz", ""); code != http.StatusOK {
		t.Error("healthz not OK")
	}
	if code, _ := status("DELETE", "/v1/sessions/"+id, ""); code != http.StatusNoContent {
		t.Error("delete failed")
	}
	if code, _ := status("GET", "/v1/sessions/"+id, ""); code != http.StatusNotFound {
		t.Error("deleted session still resolvable")
	}
	if code, _ := status("DELETE", "/v1/sessions/"+id, ""); code != http.StatusNotFound {
		t.Error("double delete should 404")
	}
}

// TestHandlerMountsObs checks the telemetry endpoints share the API
// listener and that service metrics flow into the registry.
func TestHandlerMountsObs(t *testing.T) {
	observer := &obs.Observer{Registry: obs.NewRegistry()}
	cfg := testConfig(t.TempDir())
	cfg.Obs = observer
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	if _, err := m.Create(context.Background(), testSpec(1)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{"compsynthd_sessions_active 1", "compsynthd_sessions_created_total 1"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if resp, err := http.Get(srv.URL + "/debug/pprof/cmdline"); err == nil {
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/debug/pprof/cmdline: %d", resp.StatusCode)
		}
		resp.Body.Close()
	} else {
		t.Error(err)
	}
}
