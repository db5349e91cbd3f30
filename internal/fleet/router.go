package fleet

// The router proper: the routing table, the reverse proxy for the /v1
// session API, and the admin/health surface. One routing entry per
// session tracks the owning member and the in-flight request count (so
// migration can drain).

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"compsynth/internal/obs"
	"compsynth/internal/service"
)

// maxProxyBody bounds buffered request/response bodies. Transcripts are
// the largest payload and share the daemon's own 16MB import cap.
const maxProxyBody = 32 << 20

// route is one session's routing entry.
type route struct {
	id string

	mu       sync.Mutex
	owner    string // member name
	inflight int
	// draining gates new traffic during migration. unblocked is closed
	// whenever the route is open; drain start swaps in a fresh channel
	// that drain end closes, so waiters just block on the snapshot they
	// read. drained is closed when the last in-flight request leaves.
	draining  bool
	unblocked chan struct{}
	drained   chan struct{}

	lastSeen time.Time
}

// Router fronts the fleet: it owns the member set and the routing
// table.
type Router struct {
	cfg    Config
	client *http.Client
	log    *obs.Logger
	met    *metrics
	nonce  string

	mu          sync.Mutex
	members     map[string]*member
	memberOrder []string
	routes      map[string]*route
	idSeq       uint64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a router. With MemberFile set the file is read once here
// (missing files are tolerated: the watcher picks the file up when it
// appears) and watched thereafter; otherwise cfg.Members is the static
// member set.
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	nonce := make([]byte, 3)
	rand.Read(nonce) //nolint:errcheck // crypto/rand.Read never fails on supported platforms
	r := &Router{
		cfg:     cfg,
		client:  cfg.Client,
		log:     cfg.Obs.Log(),
		nonce:   hex.EncodeToString(nonce),
		members: make(map[string]*member),
		routes:  make(map[string]*route),
		stop:    make(chan struct{}),
	}
	if cfg.Log != nil {
		r.log = cfg.Log
	}
	r.met = newMetrics(cfg.Obs.Reg())
	initial := cfg.Members
	if cfg.MemberFile != "" {
		if ms, err := ReadMemberFile(cfg.MemberFile); err == nil {
			initial = ms
		} else if len(initial) == 0 {
			r.log.Warn("fleet.memberfile.initial", "path", cfg.MemberFile, "error", err.Error())
		}
	}
	if err := r.SetMembers(initial); err != nil {
		return nil, err
	}
	r.wg.Add(1)
	go r.healthLoop()
	if cfg.MemberFile != "" {
		r.wg.Add(1)
		go r.watchLoop()
	}
	return r, nil
}

// Close stops the background loops. In-flight proxied requests finish
// on their own; sessions stay on their members.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Handler builds the router's HTTP surface: the forwarded /v1 session
// API, the admin API, health endpoints, and (with an observer) the obs
// exposition routes — all wrapped in the same correlation middleware
// the daemon uses, so an X-Request-Id minted here (or sent by the
// client) appears verbatim in the member's access log too.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", r.handleCreate)
	mux.HandleFunc("GET /v1/sessions", r.handleList)
	mux.HandleFunc("/v1/sessions/{id}", r.handleSession)
	mux.HandleFunc("/v1/sessions/{id}/{verb...}", r.handleSession)
	mux.HandleFunc("POST /v1/admin/migrate", r.handleMigrate)
	mux.HandleFunc("GET /v1/admin/members", r.handleMembers)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		r.mu.Lock()
		n := len(r.placeableLocked())
		r.mu.Unlock()
		if n == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "no healthy members")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if o := r.cfg.Obs; o != nil {
		obs.MountAll(mux, o.Reg(), o.Trace())
	}
	return service.Correlate(mux, r.log)
}

// apiError mirrors the daemon's JSON error body so router-originated
// failures are indistinguishable in shape from member-originated ones.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away
}

// timeoutContext is context.WithTimeout that also cancels on stop, so
// shutdown interrupts probes and control calls promptly.
func timeoutContext(stop <-chan struct{}, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	go func() {
		select {
		case <-stop:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}

// nextID mints a fleet-unique session ID: a per-process nonce (so a
// restarted router cannot re-issue the IDs of sessions that still
// live on members) plus a sequence number.
func (r *Router) nextID() string {
	r.mu.Lock()
	r.idSeq++
	n := r.idSeq
	r.mu.Unlock()
	return "f" + r.nonce + "-" + strconv.FormatUint(n, 10)
}

// routeFor returns the session's routing entry, or nil.
func (r *Router) routeFor(id string) *route {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.routes[id]
}

// setRoute installs (or re-owners) a routing entry.
func (r *Router) setRoute(id, owner string) *route {
	r.mu.Lock()
	defer r.mu.Unlock()
	rt := r.routes[id]
	if rt == nil {
		rt = &route{id: id, unblocked: make(chan struct{})}
		close(rt.unblocked)
		r.routes[id] = rt
	}
	rt.mu.Lock()
	rt.owner = owner
	rt.lastSeen = time.Now()
	rt.mu.Unlock()
	return rt
}

func (r *Router) dropRoute(id string) {
	r.mu.Lock()
	delete(r.routes, id)
	r.mu.Unlock()
}

// sweepRoutes evicts idle entries past RouteTTL; the probe path
// rebuilds them on demand if the session still exists somewhere.
func (r *Router) sweepRoutes() {
	cutoff := time.Now().Add(-r.cfg.RouteTTL)
	r.mu.Lock()
	defer r.mu.Unlock()
	for id, rt := range r.routes {
		rt.mu.Lock()
		stale := rt.inflight == 0 && !rt.draining && rt.lastSeen.Before(cutoff)
		rt.mu.Unlock()
		if stale {
			delete(r.routes, id)
		}
	}
}

// memberByName resolves a member, nil when unknown.
func (r *Router) memberByName(name string) *member {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.members[name]
}

// begin admits one request onto the route, blocking while a migration
// drain is in progress (the flip is quick: drain + bundle + import).
func (rt *route) begin(ctx context.Context) error {
	for {
		rt.mu.Lock()
		if !rt.draining {
			rt.inflight++
			rt.lastSeen = time.Now()
			rt.mu.Unlock()
			return nil
		}
		ch := rt.unblocked
		rt.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (rt *route) end() {
	rt.mu.Lock()
	rt.inflight--
	if rt.draining && rt.inflight == 0 && rt.drained != nil {
		close(rt.drained)
		rt.drained = nil
	}
	rt.mu.Unlock()
}

// forward relays one request to a member and buffers the response.
// Correlation headers travel with the inbound header set; the resolved
// X-Request-Id/Traceparent from the correlate middleware (already on
// the response header map) override them so IDs minted at the router
// reach the member.
func (r *Router) forward(req *http.Request, respHeader http.Header, m *member, body []byte) (*http.Response, []byte, error) {
	u := m.URL + req.URL.EscapedPath()
	if req.URL.RawQuery != "" {
		u += "?" + req.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	out, err := http.NewRequestWithContext(req.Context(), req.Method, u, rd)
	if err != nil {
		return nil, nil, err
	}
	out.Header = req.Header.Clone()
	if id := respHeader.Get("X-Request-Id"); id != "" {
		out.Header.Set("X-Request-Id", id)
	}
	if tp := respHeader.Get("Traceparent"); tp != "" {
		out.Header.Set("Traceparent", tp)
	}
	resp, err := r.client.Do(out)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return nil, nil, err
	}
	r.met.proxied.Inc()
	return resp, raw, nil
}

// relay copies a buffered member response back to the client.
func relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	h := w.Header()
	for k, vs := range resp.Header {
		// The correlate middleware already owns the correlation pair on
		// this response; the member echoes the same values anyway.
		if k == "X-Request-Id" || k == "Traceparent" {
			continue
		}
		h[k] = vs
	}
	h.Del("Content-Length") // body was re-buffered
	w.WriteHeader(resp.StatusCode)
	w.Write(body) //nolint:errcheck // client went away
}

func (r *Router) handleCreate(w http.ResponseWriter, req *http.Request) {
	raw, err := io.ReadAll(io.LimitReader(req.Body, maxProxyBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "read body: " + err.Error()})
		return
	}
	// Decode generically so unknown spec fields survive the round trip.
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad spec: " + err.Error()})
		return
	}
	id, _ := spec["id"].(string)
	minted := false
	if id == "" {
		id = r.nextID()
		spec["id"] = id
		minted = true
	}
	r.mu.Lock()
	ranked := rank(r.placeableLocked(), id)
	r.mu.Unlock()
	if len(ranked) == 0 {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "fleet: no healthy members"})
		return
	}
	owner := ranked[0]
	// Inject the replica set — ranks 1..Replicas-1 of the same
	// rendezvous ordering that picked the owner — unless the client
	// pinned its own (DESIGN.md §16). The replication factor is a
	// floor, not best effort: a create the fleet cannot replicate R
	// ways right now is refused (retryable 503) rather than silently
	// confirmed with a lone copy that a single member death would
	// destroy.
	injected := false
	if _, has := spec["replicas"]; !has && r.cfg.Replicas > 1 {
		if len(ranked) < r.cfg.Replicas {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: fmt.Sprintf(
				"fleet: replication factor %d needs %d healthy members (%d available)",
				r.cfg.Replicas, r.cfg.Replicas, len(ranked))})
			return
		}
		var reps []Member
		for _, m := range ranked[1:] {
			if len(reps) == r.cfg.Replicas-1 {
				break
			}
			reps = append(reps, m.Member)
		}
		spec["replicas"] = reps
		injected = true
	}
	if minted || injected {
		if raw, err = json.Marshal(spec); err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
	}
	rt := r.setRoute(id, owner.Name)
	if err := rt.begin(req.Context()); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "fleet: " + err.Error()})
		return
	}
	defer rt.end()
	resp, body, err := r.forward(req, w.Header(), owner, raw)
	if err != nil {
		r.met.proxyErrors.Inc()
		r.dropRoute(id)
		writeJSON(w, http.StatusBadGateway, apiError{Error: "fleet: " + owner.Name + ": " + err.Error()})
		return
	}
	// Keep the route on 2xx and on 409 (the session already exists on
	// that member — the route is right, the create was a replay).
	if resp.StatusCode >= 300 && resp.StatusCode != http.StatusConflict {
		r.dropRoute(id)
	}
	relay(w, resp, body)
	r.log.Info("fleet.create", "session", id, "member", owner.Name, "status", resp.StatusCode)
}

// handleList fans the list out to every healthy member and merges.
func (r *Router) handleList(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	ms := make([]*member, 0, len(r.members))
	for _, name := range r.memberOrder {
		if m := r.members[name]; m != nil && m.healthy.Load() {
			ms = append(ms, m)
		}
	}
	r.mu.Unlock()
	all := []service.SessionStatus{}
	for _, m := range ms {
		resp, body, err := r.forward(req, w.Header(), m, nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			continue // partial lists beat failing the whole call
		}
		// The daemon wraps its list: {"sessions": [...]}; mirror it.
		var part struct {
			Sessions []service.SessionStatus `json:"sessions"`
		}
		if json.Unmarshal(body, &part) == nil {
			all = append(all, part.Sessions...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"sessions": all})
}

// handleSession proxies every per-session route to the owner, with
// probe-on-miss: an unknown session (router restart) or a stale owner
// (404 from the member) triggers a fleet-wide probe that rebuilds the
// routing entry before failing the request.
func (r *Router) handleSession(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	verb := req.PathValue("verb")
	var body []byte
	if req.Method == http.MethodPost || req.Method == http.MethodPut {
		var err error
		if body, err = io.ReadAll(io.LimitReader(req.Body, maxProxyBody)); err != nil {
			writeJSON(w, http.StatusBadRequest, apiError{Error: "read body: " + err.Error()})
			return
		}
	}
	rt := r.routeFor(id)
	if rt == nil {
		owner := r.probeForSession(req.Context(), id)
		if owner == nil {
			// Last resort: no member owns the session, but a surviving
			// replica copy might (a router restart that raced an owner
			// death). Adoption is idempotent-by-epoch, so probing it here
			// is safe even if a health-triggered scan runs concurrently.
			owner = r.adoptOrphan(id)
		}
		if owner == nil {
			writeJSON(w, http.StatusNotFound, apiError{Error: "fleet: unknown session " + id})
			return
		}
		rt = r.setRoute(id, owner.Name)
	}
	if err := rt.begin(req.Context()); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "fleet: " + err.Error()})
		return
	}
	defer rt.end()
	rt.mu.Lock()
	ownerName := rt.owner
	rt.mu.Unlock()
	owner := r.memberByName(ownerName)
	if owner == nil {
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "fleet: owner " + ownerName + " left the fleet"})
		return
	}
	resp, raw, err := r.forward(req, w.Header(), owner, body)
	if err != nil {
		r.met.proxyErrors.Inc()
		writeJSON(w, http.StatusBadGateway, apiError{Error: "fleet: " + ownerName + ": " + err.Error()})
		return
	}
	if resp.StatusCode == http.StatusNotFound {
		// Stale route (the session moved behind our back, e.g. a prior
		// router instance migrated it). Re-probe and retry once.
		if rescued := r.probeForSession(req.Context(), id); rescued != nil && rescued.Name != ownerName {
			r.met.probeRescue.Inc()
			r.setRoute(id, rescued.Name)
			r.log.Info("fleet.route.rescued", "session", id, "member", rescued.Name)
			if resp2, raw2, err2 := r.forward(req, w.Header(), rescued, body); err2 == nil {
				resp, raw = resp2, raw2
			}
		}
	}
	relay(w, resp, raw)
	// A deleted session's route goes with it, as does a route whose
	// owner answers a DELETE with 404.
	deleted := resp.StatusCode < 300 && verb == ""
	if req.Method == http.MethodDelete && (deleted || resp.StatusCode == http.StatusNotFound) {
		r.dropRoute(id)
	}
}

// probeForSession asks every member for the session's status and
// returns whichever owns it (nil when none).
func (r *Router) probeForSession(ctx context.Context, id string) *member {
	r.mu.Lock()
	ms := make([]*member, 0, len(r.members))
	for _, name := range r.memberOrder {
		if m := r.members[name]; m != nil && m.healthy.Load() {
			ms = append(ms, m)
		}
	}
	r.mu.Unlock()
	for _, m := range ms {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.URL+"/v1/sessions/"+id, nil)
		if err != nil {
			continue
		}
		resp, err := r.client.Do(req)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return m
		}
	}
	return nil
}

func (r *Router) handleMembers(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Members())
}

// migrateRequest is the admin migration body. Target is optional: empty
// re-picks by rendezvous among the placeable members excluding the
// current owner.
type migrateRequest struct {
	Session string `json:"session"`
	Target  string `json:"target,omitempty"`
}

type migrateResponse struct {
	Session string `json:"session"`
	From    string `json:"from"`
	To      string `json:"to"`
}

func (r *Router) handleMigrate(w http.ResponseWriter, req *http.Request) {
	var mr migrateRequest
	if err := json.NewDecoder(io.LimitReader(req.Body, 1<<20)).Decode(&mr); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request: " + err.Error()})
		return
	}
	if mr.Session == "" {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "missing session"})
		return
	}
	from, to, err := r.Migrate(req.Context(), mr.Session, mr.Target)
	if err != nil {
		status := http.StatusBadGateway
		switch {
		case errors.Is(err, errUnknownSession):
			status = http.StatusNotFound
		case errors.Is(err, errNotMigratable), errors.Is(err, errMigrating):
			status = http.StatusConflict
		case errors.Is(err, errNoTarget):
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, apiError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, migrateResponse{Session: mr.Session, From: from, To: to})
}
