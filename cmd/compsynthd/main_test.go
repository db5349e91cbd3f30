package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestLogSmoke is the `make log-smoke` gate: boot a real daemon, create
// a session and poll its first query round over HTTP, and assert the log
// stream is line-delimited JSON with the correlation attributes — every
// access line carries request_id, and at least one record carries both
// session and request_id (the correlation the operator greps by).
func TestLogSmoke(t *testing.T) {
	var sink lockedBuffer
	d, err := startDaemon(daemonOptions{
		addr:        "127.0.0.1:0",
		dataDir:     t.TempDir(),
		workers:     2,
		maxSessions: 4,
		stepTimeout: time.Minute,
		acquireWait: 2 * time.Second,
		longPoll:    25 * time.Second,
		logLevel:    "debug",
		logWriter:   &sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.mgr.Abort()
	defer d.srv.Close()
	base := "http://" + d.lis.Addr().String()

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after boot: %v %v", resp, err)
	}

	do := func(method, path, body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-Id", "req-smoke-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, raw
	}

	code, raw := do("POST", "/v1/sessions", `{"seed": 3, "initial_scenarios": -1,
		"solver": {"samples": 150, "repair_restarts": 5, "repair_steps": 60, "workers": 1},
		"distinguish": {"candidates": 6, "pair_samples": 250, "gamma": 2}}`)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if code, raw = do("GET", "/v1/sessions/"+st.ID+"/queries?wait=20s", ""); code != http.StatusOK {
		t.Fatalf("queries: %d %s", code, raw)
	}

	sc := bufio.NewScanner(bytes.NewReader(sink.bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var total, access, correlated int
	for sc.Scan() {
		total++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("log line %d is not JSON: %v: %s", total, err, sc.Text())
		}
		if m["msg"] == "http.access" {
			access++
			if id, _ := m["request_id"].(string); id == "" {
				t.Errorf("http.access line without request_id: %v", m)
			}
		}
		if m["session"] == st.ID && m["request_id"] == "req-smoke-1" {
			correlated++
		}
	}
	if total == 0 {
		t.Fatal("daemon emitted no log lines")
	}
	if access < 3 {
		t.Errorf("access log lines = %d, want one per request (>= 3)", access)
	}
	if correlated == 0 {
		t.Error("no log record carries both session and request_id")
	}
}
