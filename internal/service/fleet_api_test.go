package service

// Tests for the fleet-era API surface added alongside internal/fleet:
// client-assigned session IDs, the migration bundle and restore
// endpoints, the derived Retry-After backpressure header, and the
// transcript session_id conflict check.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestCreateWithClientID pins the fleet router's create contract: a
// spec may carry its own session ID, duplicates are 409, and IDs that
// would be unsafe as journal filenames are 400.
func TestCreateWithClientID(t *testing.T) {
	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	defer m.Abort()

	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	code, raw := post(`{"id": "fleet-abc123", "seed": 1}`)
	if code != http.StatusCreated {
		t.Fatalf("create with id: %d %s", code, raw)
	}
	var st SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "fleet-abc123" {
		t.Errorf("created session ID = %q, want fleet-abc123", st.ID)
	}

	if code, raw = post(`{"id": "fleet-abc123", "seed": 2}`); code != http.StatusConflict {
		t.Errorf("duplicate id create = %d %s, want 409", code, raw)
	}
	if code, raw = post(`{"id": "../evil", "seed": 3}`); code != http.StatusBadRequest {
		t.Errorf("bad-charset id create = %d %s, want 400", code, raw)
	}
	if code, raw = post(`{"id": ".hidden", "seed": 4}`); code != http.StatusBadRequest {
		t.Errorf("dot-leading id create = %d %s, want 400", code, raw)
	}

	// Adopting an "sNNNNNN" name must push the generator past it so the
	// next generated ID cannot collide.
	if code, raw = post(`{"id": "s000007", "seed": 5}`); code != http.StatusCreated {
		t.Fatalf("create with sNNN id: %d %s", code, raw)
	}
	if code, raw = post(`{"seed": 6}`); code != http.StatusCreated {
		t.Fatalf("generated-id create: %d %s", code, raw)
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "s000008" {
		t.Errorf("generated ID after adopting s000007 = %q, want s000008", st.ID)
	}
}

// TestImportSessionIDConflict pins the 409 contract (status AND body)
// for a transcript import whose embedded session_id names a different
// session — the tamper/misroute guard the migration protocol relies on.
func TestImportSessionIDConflict(t *testing.T) {
	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	defer m.Abort()

	id := createSession(t, srv.URL, testSpec(11))
	transcript := `{"session_id": "someone-else", "sketch": "", "holes": null, "metrics": null,
		"scenarios": null, "preferences": null, "converged": false, "iterations": 0}`
	req, err := http.NewRequest(http.MethodPut, srv.URL+"/v1/sessions/"+id+"/transcript",
		strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("import with conflicting session_id = %d %s, want 409", resp.StatusCode, raw)
	}
	want := fmt.Sprintf("{\n  \"error\": \"service: transcript session_id \\\"someone-else\\\" conflicts with session \\\"%s\\\"\"\n}\n", id)
	if string(raw) != want {
		t.Errorf("conflict body =\n%s\nwant\n%s", raw, want)
	}

	// A transcript that names the session it is sent to imports fine.
	ok := fmt.Sprintf(`{"session_id": %q}`, id)
	req, err = http.NewRequest(http.MethodPut, srv.URL+"/v1/sessions/"+id+"/transcript",
		strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ = io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import with matching session_id = %d %s, want 200", resp.StatusCode, raw)
	}
}

// TestRetryAfterOn429 pins the backpressure contract: 429 responses
// carry a Retry-After derived from the configured acquire wait
// (rounded up to whole seconds), so the router and well-behaved
// clients back off instead of hot-looping.
func TestRetryAfterOn429(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxSessions = 1
	cfg.AcquireWait = 1500 * time.Millisecond // rounds up to 2
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	defer m.Abort()

	createSession(t, srv.URL, testSpec(21))
	body, _ := json.Marshal(testSpec(22))
	resp, err := http.Post(srv.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create beyond session cap = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After on 429 = %q, want %q (ceil of 1.5s acquire wait)", ra, "2")
	}
}

// TestBundleFresh smokes the migration-bundle endpoint on a fresh
// (history-less) session: the bundle carries the spec re-keyed to the
// session ID and no transcript. The bundle, with the "learned" summary
// older daemons added to it, then restores on a second daemon — the
// shape a rolling upgrade migrates.
func TestBundleFresh(t *testing.T) {
	m, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()
	defer m.Abort()

	id := createSession(t, srv.URL, testSpec(31))
	resp, err := http.Get(srv.URL + "/v1/sessions/" + id + "/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle = %d %s", resp.StatusCode, raw)
	}
	var b MigrationBundle
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.ID != id || b.Spec.ID != id {
		t.Errorf("bundle ID = %q, spec.ID = %q, want both %q", b.ID, b.Spec.ID, id)
	}
	if b.Transcript != nil {
		t.Errorf("fresh session bundle carries a transcript: %+v", b.Transcript)
	}

	var legacy map[string]json.RawMessage
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	legacy["learned"] = json.RawMessage(`{"refuted":[{"box":[[0,1],[0,1],[0,1],[0,1]],"index":3}]}`)
	if raw, err = json.Marshal(legacy); err != nil {
		t.Fatal(err)
	}
	m2, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(m2))
	defer srv2.Close()
	defer m2.Abort()
	req, err := http.NewRequest(http.MethodPut, srv2.URL+"/v1/sessions/"+id+"/restore", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("restore of a bundle with a legacy learned summary = %d %s, want 200", resp.StatusCode, body)
	}
}
