package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/solver"
)

// Handler builds the daemon's HTTP API over a manager. Alongside the
// /v1 session routes it mounts the obs exposition endpoints (/metrics,
// /debug/vars, /debug/pprof/, /trace) when the manager was built with
// an observer, so one listener serves both the API and its telemetry.
// The whole surface is wrapped in the correlation middleware: every
// request gets (or keeps) an X-Request-Id and a W3C traceparent, echoed
// on the response and stamped into the JSON access log.
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", m.handleCreate)
	mux.HandleFunc("GET /v1/sessions", m.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", m.handleStatus)
	mux.HandleFunc("DELETE /v1/sessions/{id}", m.handleDelete)
	mux.HandleFunc("GET /v1/sessions/{id}/transcript", m.handleExport)
	mux.HandleFunc("PUT /v1/sessions/{id}/transcript", m.handleImport)
	// The round surface: one GET yields the planner's whole query round,
	// one POST may carry any subset of its judgments in any order, each
	// graded with a confidence. A round of one is the paper's single
	// pair per iteration.
	mux.HandleFunc("GET /v1/sessions/{id}/queries", m.handleQueries)
	mux.HandleFunc("POST /v1/sessions/{id}/judgments", m.handleJudgments)
	mux.HandleFunc("GET /v1/sessions/{id}/progress", m.handleProgress)
	// Fleet routes: the migration bundle export and import.
	mux.HandleFunc("GET /v1/sessions/{id}/bundle", m.handleBundle)
	mux.HandleFunc("PUT /v1/sessions/{id}/restore", m.handleRestore)
	// The replica surface (fleet-internal; see replicahttp.go): the
	// /v1/replica/ prefix keeps it out of the router's session proxy.
	m.mountReplicaRoutes(mux)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	// /readyz is the load-balancer gate, distinct from the liveness probe:
	// the process is alive (healthz ok) but not serving while journal
	// recovery replays (see NotReadyHandler) or once drain has begun.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !m.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if o := m.cfg.Obs; o != nil {
		obs.MountAll(mux, o.Reg(), o.Trace())
	}
	return correlate(mux, m.log)
}

// NotReadyHandler serves the boot window before the manager exists:
// journal recovery runs inside New, so the daemon binds its listener
// first and swaps the real Handler in once recovery finishes. Liveness
// (GET /healthz) is already ok; readiness (GET /readyz) and every API
// route answer 503 with the given reason.
func NotReadyHandler(reason string) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, reason)
	})
	return mux
}

// apiError is the JSON error body every failing route returns.
type apiError struct {
	Error string `json:"error"`
	State State  `json:"state,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError maps service errors onto HTTP statuses. Backpressure
// (429) carries a Retry-After derived from the worker-pool acquire
// wait, and drain (503) a 1-second one, so the fleet router and
// well-behaved clients back off instead of hot-looping; ErrBusy (409,
// a transient "step in flight") also advertises a 1-second retry for
// the migration drain loop.
func (m *Manager) writeError(w http.ResponseWriter, err error, state State) {
	writeJSON(w, m.errorStatus(w, err), apiError{Error: err.Error(), State: state})
}

// errorStatus maps a service error to its HTTP status, stamping the
// backoff headers on w as a side effect. Split from writeError for
// routes that need the mapping under a custom response body (the
// batch judgments route reports partial acceptance alongside the
// error).
func (m *Manager) errorStatus(w http.ResponseWriter, err error) int {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrSaturated), errors.Is(err, ErrTooManySessions):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", m.retryAfter)
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrBusy):
		status = http.StatusConflict
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrNoPending), errors.Is(err, ErrStaleAnswer),
		errors.Is(err, ErrConflict), errors.Is(err, ErrGone):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// A long-poll that timed out server-side: not an error, just no
		// content yet.
		status = http.StatusRequestTimeout
	}
	return status
}

func (m *Manager) session(w http.ResponseWriter, r *http.Request) (*Session, bool) {
	s, err := m.Get(r.PathValue("id"))
	if err != nil {
		m.writeError(w, err, "")
		return nil, false
	}
	return s, true
}

func (m *Manager) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decode spec: " + err.Error()})
		return
	}
	s, err := m.Create(r.Context(), spec)
	if err != nil {
		if errors.Is(err, ErrTooManySessions) || errors.Is(err, ErrClosed) || errors.Is(err, ErrConflict) {
			m.writeError(w, err, "")
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusCreated, s.Status())
}

func (m *Manager) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"sessions": m.List()})
}

func (m *Manager) handleStatus(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

// progressResponse is the live-introspection document (GET
// /v1/sessions/{id}/progress): the solver's per-wave gauges next to
// the cumulative effort counters. Polling it never touches the session's idle clock
// or its mutex, so monitoring cannot perturb or pin a session.
type progressResponse struct {
	ID       string                  `json:"id"`
	State    State                   `json:"state"`
	Progress solver.ProgressSnapshot `json:"progress"`
	// SolverEffort is the session-scoped cumulative counter snapshot.
	SolverEffort *solver.StatsSnapshot `json:"solver_effort,omitempty"`
}

func (m *Manager) handleProgress(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	state := s.state
	s.mu.Unlock()
	resp := progressResponse{
		ID:       s.ID,
		State:    state,
		Progress: s.Progress().Snapshot(),
	}
	if s.stats != nil {
		snap := s.stats.Snapshot()
		resp.SolverEffort = &snap
	}
	writeJSON(w, http.StatusOK, resp)
}

func (m *Manager) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := m.Delete(r.PathValue("id")); err != nil {
		m.writeError(w, err, "")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// pollWindow resolves the long-poll duration for a queries GET: the
// ?wait= parameter clamped to the configured maximum.
func (m *Manager) pollWindow(r *http.Request) (time.Duration, error) {
	wait := m.cfg.LongPollMax
	if v := r.URL.Query().Get("wait"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, fmt.Errorf("bad wait duration: %w", err)
		}
		if d < wait {
			wait = d
		}
	}
	return wait, nil
}

// parsePref reads a judgment's pref: "first", "second", or "tie"
// (aliases: "1", "2", "a", "b", "=", "indifferent", "0").
func parsePref(s string) (oracle.Preference, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "first", "1", "a":
		return oracle.PrefersFirst, nil
	case "second", "2", "b":
		return oracle.PrefersSecond, nil
	case "tie", "=", "indifferent", "0":
		return oracle.Indifferent, nil
	}
	return oracle.Indifferent, fmt.Errorf("bad pref %q (want first, second, or tie)", s)
}

// queryItem is one open query of a round (GET queries).
type queryItem struct {
	Seq int       `json:"seq"`
	A   []float64 `json:"a"`
	B   []float64 `json:"b"`
}

// queriesResponse carries the pending round: every not-yet-judged
// query, in sequence order. Finished sessions report the outcome
// inline, so scripted clients need no second request.
type queriesResponse struct {
	State   State       `json:"state"`
	Queries []queryItem `json:"queries,omitempty"`
	Final   []float64   `json:"final,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// handleQueries serves GET /v1/sessions/{id}/queries: the batch
// long-poll. One response carries the planner's whole query round, so
// an architect (or a panel of them) can judge k scenarios per
// synthesis step instead of one.
func (m *Manager) handleQueries(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	wait, err := m.pollWindow(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	qs, state, err := s.AwaitQueries(ctx)
	if errors.Is(err, ErrGone) {
		// Evicted between lookup and wait; the journal has it — retry the
		// lookup once so the client never sees the eviction.
		if s, ok = m.session(w, r); !ok {
			return
		}
		qs, state, err = s.AwaitQueries(ctx)
	}
	if err != nil {
		m.writeError(w, err, state)
		return
	}
	resp := queriesResponse{State: state}
	if len(qs) > 0 {
		resp.Queries = make([]queryItem, len(qs))
		for i, q := range qs {
			resp.Queries[i] = queryItem{Seq: q.Seq, A: q.A, B: q.B}
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	st := s.Status()
	resp.Final = st.Final
	resp.Error = st.Error
	writeJSON(w, http.StatusOK, resp)
}

// judgmentItem is one judgment of the POST judgments body.
type judgmentItem struct {
	Seq int `json:"seq"`
	// Pref is "first", "second", or "tie" (see parsePref for aliases).
	Pref string `json:"pref"`
	// Confidence grades the judgment in (0, 1]; 0 (or omitted) means
	// full confidence. The preference graph weighs contradictory
	// evidence by accumulated confidence before repairing an edge.
	Confidence float64 `json:"confidence,omitempty"`
}

// judgmentsRequest is the POST judgments body: any non-empty subset of
// the pending round's open queries, in any order.
type judgmentsRequest struct {
	Judgments []judgmentItem `json:"judgments"`
}

// judgmentsResponse reports how much of the batch was applied.
// Accepted counts judgments journaled and consumed; on a mid-batch
// failure it tells the client exactly which suffix to retry.
type judgmentsResponse struct {
	State    State  `json:"state"`
	Accepted int    `json:"accepted"`
	Error    string `json:"error,omitempty"`
}

// handleJudgments serves POST /v1/sessions/{id}/judgments. Judgments
// are applied in body order; each is journaled before the next is
// considered, so a mid-batch error loses nothing — the response's
// Accepted count marks the retry point. The round's last judgment
// kicks off the next synthesis step (state flips to computing).
func (m *Manager) handleJudgments(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	var req judgmentsRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decode judgments: " + err.Error()})
		return
	}
	if len(req.Judgments) == 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "empty judgments batch"})
		return
	}
	// Validate the whole batch before applying any of it: a malformed
	// entry rejects the request outright rather than half-applying.
	js := make([]oracle.Judgment, len(req.Judgments))
	for i, item := range req.Judgments {
		pref, err := parsePref(item.Pref)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("judgment %d: %v", i, err)})
			return
		}
		if item.Confidence < 0 || item.Confidence > 1 {
			writeJSON(w, http.StatusBadRequest, apiError{
				Error: fmt.Sprintf("judgment %d: confidence %v outside [0, 1]", i, item.Confidence)})
			return
		}
		js[i] = oracle.Judgment{Pref: pref, Confidence: item.Confidence}
	}
	accepted := 0
	state := State("")
	for i, item := range req.Judgments {
		st, err := s.Judge(r.Context(), item.Seq, js[i])
		if err != nil {
			status := m.errorStatus(w, err)
			writeJSON(w, status, judgmentsResponse{State: st, Accepted: accepted, Error: err.Error()})
			return
		}
		state = st
		accepted++
	}
	writeJSON(w, http.StatusAccepted, judgmentsResponse{State: state, Accepted: accepted})
}

// handleBundle serves GET /v1/sessions/{id}/bundle: the live-migration
// export (spec + journal + partial transcript). 409 with a
// Retry-After while a step is computing; the router's drain loop
// retries until the session parks.
func (m *Manager) handleBundle(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	b, err := s.Bundle()
	if err != nil {
		m.writeError(w, err, "")
		return
	}
	m.met.bundles.Inc()
	writeJSON(w, http.StatusOK, b)
}

// handleRestore serves PUT /v1/sessions/{id}/restore: the import half
// of live migration. The body is a MigrationBundle; only its Journal is
// used — the session is rebuilt by deterministic replay of the journal
// records, the one resume path that reproduces single-process
// transcripts bit-identically. Unknown fields are ignored, so bundles
// from older daemons (which carried a "learned" summary) still import.
func (m *Manager) handleRestore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var b MigrationBundle
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if err := dec.Decode(&b); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "decode bundle: " + err.Error()})
		return
	}
	s, err := m.Restore(id, b.Journal)
	if err != nil {
		if errors.Is(err, ErrConflict) || errors.Is(err, ErrClosed) || errors.Is(err, ErrTooManySessions) {
			m.writeError(w, err, "")
			return
		}
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}

func (m *Manager) handleExport(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	t, err := s.Transcript()
	if err != nil {
		m.writeError(w, err, "")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition",
		"attachment; filename="+strconv.Quote(s.ID+".transcript.json"))
	t.WriteTo(w)
}

func (m *Manager) handleImport(w http.ResponseWriter, r *http.Request) {
	s, ok := m.session(w, r)
	if !ok {
		return
	}
	t, err := core.ReadTranscript(http.MaxBytesReader(w, r.Body, 64<<20))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "read transcript: " + err.Error()})
		return
	}
	// A transcript that names a session must name THIS session: a
	// mismatch means a misrouted migration or a tampered bundle, and
	// silently adopting someone else's history would corrupt both
	// sessions. The body shape is pinned by TestImportSessionIDConflict.
	if t.SessionID != "" && t.SessionID != s.ID {
		writeJSON(w, http.StatusConflict, apiError{
			Error: fmt.Sprintf("service: transcript session_id %q conflicts with session %q", t.SessionID, s.ID),
		})
		return
	}
	if err := s.Import(t); err != nil {
		m.writeError(w, err, "")
		return
	}
	writeJSON(w, http.StatusOK, s.Status())
}
