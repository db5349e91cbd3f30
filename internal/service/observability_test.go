package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"compsynth/internal/obs"
)

// lockedBuffer is a goroutine-safe log sink for tests.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("log line is not JSON: %v: %s", err, sc.Text())
		}
		out = append(out, m)
	}
	return out
}

// findLine returns log lines whose msg and attribute pairs all match.
func findLines(lines []map[string]any, msg string, kv ...string) []map[string]any {
	var out []map[string]any
outer:
	for _, m := range lines {
		if m["msg"] != msg {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if m[kv[i]] != kv[i+1] {
				continue outer
			}
		}
		out = append(out, m)
	}
	return out
}

// TestReadyz pins the readiness contract: /healthz is liveness and
// stays 200, /readyz flips to 503 during drain, and the boot-window
// NotReadyHandler serves 503 everywhere but /healthz.
func TestReadyz(t *testing.T) {
	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("readyz while serving = %d, want 200", got)
	}
	m.Abort()
	if got := get("/healthz"); got != http.StatusOK {
		t.Errorf("healthz after drain = %d, want 200 (liveness, not readiness)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain = %d, want 503", got)
	}

	boot := httptest.NewServer(NotReadyHandler("recovering"))
	defer boot.Close()
	for path, want := range map[string]int{
		"/healthz":     http.StatusOK,
		"/readyz":      http.StatusServiceUnavailable,
		"/v1/sessions": http.StatusServiceUnavailable,
	} {
		resp, err := http.Get(boot.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("boot %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestCorrelationEndToEnd is the acceptance-pinned correlation walk: a
// client-supplied X-Request-Id on the create and first query requests
// must be findable in (1) the HTTP access log, (2) the session
// lifecycle events, (3) at least one recorded solver span, and (4) the
// flight-recorder dump written when the session is forced to fail.
func TestCorrelationEndToEnd(t *testing.T) {
	const reqID = "req-e2e-0001"
	var sink lockedBuffer
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Log = obs.NewLogger(&sink, slog.LevelDebug)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	do := func(method, path, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", reqID)
		req.Header.Set("Traceparent", "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, raw
	}

	// initial_scenarios < 0 skips the initial ranking, so the very first
	// query already requires a solver search — the spans the dump must
	// carry.
	resp, raw := do("POST", "/v1/sessions", `{"seed": 5, "initial_scenarios": -1,
		"solver": {"samples": 150, "repair_restarts": 5, "repair_steps": 60, "workers": 1},
		"distinguish": {"candidates": 6, "pair_samples": 250, "gamma": 2}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Errorf("create response X-Request-Id = %q, want %q (client IDs are honored)", got, reqID)
	}
	if tp := resp.Header.Get("Traceparent"); !strings.Contains(tp, "0af7651916cd43dd8448eb211c80319c") {
		t.Errorf("create response Traceparent = %q, want incoming trace-id preserved", tp)
	}
	var st SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	id := st.ID

	// First queries poll (same request ID): kicks the synthesis step
	// whose solver spans must carry the ID.
	resp, raw = do("GET", "/v1/sessions/"+id+"/queries?wait=20s", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queries: %d %s", resp.StatusCode, raw)
	}

	// Force a failure so the flight dump is written.
	s, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.failLocked(errors.New("forced failure for test"))
	s.bumpLocked()
	s.mu.Unlock()

	lines := sink.lines(t)
	if got := findLines(lines, "http.access", "request_id", reqID, "method", "POST"); len(got) == 0 {
		t.Error("no http.access line carries the request ID")
	}
	if got := findLines(lines, "session.create", "request_id", reqID, "session", id); len(got) == 0 {
		t.Error("session.create event does not carry the request ID")
	}
	if got := findLines(lines, "session.fail", "session", id); len(got) == 0 {
		t.Error("session.fail event missing")
	}

	// Solver spans live on the per-session tracer; the dump carries them.
	dump, err := obs.ReadFlightDump(flightPath(dir, id))
	if err != nil {
		t.Fatalf("flight dump: %v", err)
	}
	if dump.Session != id || dump.Reason != "failure" {
		t.Fatalf("dump header = session %q reason %q", dump.Session, dump.Reason)
	}
	if len(dump.Records) == 0 {
		t.Fatal("flight dump carries no log records")
	}
	for _, rec := range dump.Records {
		if rec.Attrs["session"] != id {
			t.Fatalf("dump record for foreign session: %+v", rec)
		}
	}
	spanWithID := 0
	for _, sp := range dump.Spans {
		if sp.Labels["session"] != id {
			t.Fatalf("dump span without session label: %+v", sp)
		}
		if sp.Labels["request_id"] == reqID {
			spanWithID++
		}
	}
	if len(dump.Spans) == 0 {
		t.Fatal("flight dump carries no solver spans")
	}
	if spanWithID == 0 {
		t.Error("no solver span carries the request ID")
	}
}

// TestProgressEndpoint drives one step and reads the live progress
// document.
func TestProgressEndpoint(t *testing.T) {
	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	spec := testSpec(9)
	spec.InitialScenarios = -1 // first query requires a solver search
	s, err := m.Create(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, _, err := s.AwaitQueries(ctx); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/sessions/" + s.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progress: %d %s", resp.StatusCode, raw)
	}
	var doc progressResponse
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != s.ID {
		t.Errorf("progress id = %q", doc.ID)
	}
	if doc.Progress.Searches == 0 {
		t.Errorf("progress.searches = 0 after a completed step: %+v", doc.Progress)
	}
	if doc.SolverEffort == nil {
		t.Error("progress response missing solver_effort (batched/scalar eval split)")
	}

	// The route exists under /v1 only: the unversioned path must 404.
	resp2, err := http.Get(srv.URL + "/sessions/" + s.ID + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unversioned progress = %d, want 404", resp2.StatusCode)
	}
}

// TestPanicContainment pins the flight-recorder panic path: a synthesis
// step that panics fails its own session (reason "panic", dump written)
// and the manager keeps serving other sessions.
func TestPanicContainment(t *testing.T) {
	var sink lockedBuffer
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.Log = obs.NewLogger(&sink, slog.LevelDebug)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()

	s, err := m.Create(context.Background(), testSpec(21))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.stepper.Close() // release the real stepper before sabotaging
	s.stepper = nil   // the next advance will panic in stepper.NextBatch
	s.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, state, err := s.AwaitQueries(ctx)
	if err != nil || state != StateFailed {
		t.Fatalf("AwaitQueries after panic: state %v err %v, want failed", state, err)
	}
	if !strings.Contains(s.Status().Error, "panic in synthesis step") {
		t.Errorf("failure = %q, want panic message", s.Status().Error)
	}

	dump, err := obs.ReadFlightDump(flightPath(dir, s.ID))
	if err != nil {
		t.Fatalf("panic flight dump: %v", err)
	}
	if dump.Reason != "panic" {
		t.Errorf("dump reason = %q, want panic", dump.Reason)
	}
	if len(findLines(sink.lines(t), "session.panic")) == 0 {
		t.Error("no session.panic log event")
	}

	// The fleet survives: a fresh session still runs to its first query.
	s2, err := m.Create(context.Background(), testSpec(22))
	if err != nil {
		t.Fatal(err)
	}
	if qs, _, err := s2.AwaitQueries(ctx); err != nil || len(qs) == 0 {
		t.Fatalf("sibling session after panic: round=%v err=%v", qs, err)
	}
}

// TestDumpAll covers the SIGQUIT whole-fleet dump.
func TestDumpAll(t *testing.T) {
	dir := t.TempDir()
	m, err := New(testConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Abort()
	s, err := m.Create(context.Background(), testSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	if n := m.DumpAll("sigquit"); n != 1 {
		t.Fatalf("DumpAll wrote %d dumps, want 1", n)
	}
	dump, err := obs.ReadFlightDump(flightPath(dir, s.ID))
	if err != nil {
		t.Fatal(err)
	}
	if dump.Reason != "sigquit" || dump.Session != s.ID {
		t.Errorf("dump = session %q reason %q", dump.Session, dump.Reason)
	}
	// DELETE removes the dump alongside the journal.
	if err := m.Delete(s.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(flightPath(dir, s.ID)); !os.IsNotExist(err) {
		t.Errorf("flight dump survived DELETE: %v", err)
	}
}

// TestTraceparent covers the header parse/format pair.
func TestTraceparent(t *testing.T) {
	if id, ok := parseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"); !ok || id != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("valid traceparent rejected: %q %v", id, ok)
	}
	for _, bad := range []string{
		"",
		"00-zzf7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // non-hex
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // forbidden version
		"00-0af765-b7ad6b7169203331-01",                           // short
	} {
		if _, ok := parseTraceparent(bad); ok {
			t.Errorf("parseTraceparent(%q) accepted", bad)
		}
	}
	if got := formatTraceparent("aaaa", "bbbb"); got != "00-aaaa-bbbb-01" {
		t.Errorf("formatTraceparent = %q", got)
	}
	for path, want := range map[string]string{
		"/v1/sessions/s000001/queries": "s000001",
		"/v1/sessions/s000002":         "s000002",
		"/sessions/s000003":            "",
		"/v1/sessions":                 "",
		"/healthz":                     "",
	} {
		if got := sessionFromPath(path); got != want {
			t.Errorf("sessionFromPath(%q) = %q, want %q", path, got, want)
		}
	}
}
