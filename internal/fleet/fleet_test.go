package fleet

// Fleet tests run real service managers behind httptest servers and a
// real router in front, so everything below exercises the same HTTP
// surface production does — only the listeners are in-process. The
// acceptance bar is the repo-wide one: every transcript fetched through
// the router must be bit-identical to the in-process batch run on the
// same spec, no matter how many times the session migrated mid-flight.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
	"compsynth/internal/service"
	"compsynth/internal/sketch"
)

func testSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Seed:        seed,
		Solver:      &service.SolverSpec{Samples: 150, RepairRestarts: 5, RepairSteps: 60, Workers: 1},
		Distinguish: &service.DistinguishSpec{Candidates: 6, PairSamples: 250, Gamma: 2},
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

// batchTranscript is the single-process reference run every fleet path
// must reproduce exactly.
func batchTranscript(t *testing.T, spec service.SessionSpec, user oracle.Oracle) []byte {
	t.Helper()
	res, err := service.BatchRun(spec, user)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := core.Export(res).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// daemonHandle is one in-process member. While down is set its
// listener answers every request 503, as a member mid-restart does.
// While hold is set, its replica-survey GETs wait (see holdSurveys).
type daemonHandle struct {
	name string
	dir  string
	mgr  *service.Manager
	srv  *httptest.Server
	down atomic.Bool
	hold atomic.Pointer[surveyHold]
}

// surveyHold holds a member's replica-survey GETs
// (GET /v1/replica/sessions/{id}) until release is closed; held gets a
// value once one is waiting.
type surveyHold struct {
	held    chan struct{}
	release chan struct{}
}

// holdSurveys makes d hold its replica-survey GETs until release runs.
func (d *daemonHandle) holdSurveys() (held <-chan struct{}, release func()) {
	h := &surveyHold{held: make(chan struct{}, 1), release: make(chan struct{})}
	d.hold.Store(h)
	return h.held, func() { d.hold.Store(nil); close(h.release) }
}

func newDaemon(t *testing.T, name string) *daemonHandle {
	t.Helper()
	dir := t.TempDir()
	m, err := service.New(service.Config{
		DataDir:         dir,
		Workers:         2,
		MaxSessions:     32,
		JanitorInterval: time.Hour,
		StepTimeout:     time.Minute,
		AcquireWait:     2 * time.Second,
		LongPollMax:     25 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemonHandle{name: name, dir: dir, mgr: m}
	h := service.Handler(m)
	d.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if d.down.Load() {
			http.Error(w, "restarting", http.StatusServiceUnavailable)
			return
		}
		if sh := d.hold.Load(); sh != nil && req.Method == http.MethodGet &&
			strings.HasPrefix(req.URL.Path, "/v1/replica/sessions/") {
			select {
			case sh.held <- struct{}{}:
			default:
			}
			select {
			case <-sh.release:
			case <-req.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(func() { d.srv.Close(); m.Abort() })
	return d
}

func newFleet(t *testing.T, n int, tweak func(*Config)) (*Router, *httptest.Server, []*daemonHandle) {
	t.Helper()
	ds := make([]*daemonHandle, n)
	ms := make([]Member, n)
	for i := range ds {
		ds[i] = newDaemon(t, fmt.Sprintf("m%d", i+1))
		ms[i] = Member{Name: ds[i].name, URL: ds[i].srv.URL}
	}
	cfg := Config{
		Members:        ms,
		HealthInterval: 50 * time.Millisecond,
		WatchInterval:  50 * time.Millisecond,
		DrainRetry:     10 * time.Millisecond,
		Obs:            &obs.Observer{Registry: obs.NewRegistry()},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(func() { srv.Close(); r.Close() })
	return r, srv, ds
}

func createVia(t *testing.T, base string, spec service.SessionSpec) string {
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
		t.Fatalf("create: %d %s", resp.StatusCode, raw)
	}
	var st service.SessionStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st.ID
}

// queryItem and queriesResp mirror the GET /queries document.
type queryItem struct {
	Seq int       `json:"seq"`
	A   []float64 `json:"a"`
	B   []float64 `json:"b"`
}

type queriesResp struct {
	State   string      `json:"state"`
	Queries []queryItem `json:"queries"`
	Error   string      `json:"error"`
}

// postJudgment posts the oracle's judgment of q as a one-judgment batch
// to base's judgments route and returns the status code and body.
func postJudgment(t *testing.T, client *http.Client, base, id string, user oracle.Oracle, q queryItem) (int, []byte) {
	t.Helper()
	pref := user.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))
	body, _ := json.Marshal(map[string]any{"judgments": []any{map[string]any{"seq": q.Seq, "pref": prefWord(pref)}}})
	resp, err := client.Post(base+"/v1/sessions/"+id+"/judgments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, raw
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

// drive judges a session's queries through the router, one judgment per
// POST, lowest seq first, until done (or maxAnswers), riding out the
// transient statuses chaos produces: 409 judgments are stale seqs after
// a migration (re-query), 503/502 are a member mid-restart, 408 is a
// long-poll expiry.
func drive(t *testing.T, base, id string, user oracle.Oracle, maxAnswers int) (int, bool) {
	t.Helper()
	client := &http.Client{Timeout: 60 * time.Second}
	answered := 0
	for tries := 0; tries < 4000; tries++ {
		resp, err := client.Get(base + "/v1/sessions/" + id + "/queries?wait=20s")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusRequestTimeout, http.StatusTooManyRequests,
			http.StatusConflict, http.StatusServiceUnavailable, http.StatusBadGateway:
			time.Sleep(20 * time.Millisecond)
			continue
		default:
			t.Fatalf("queries: %d %s", resp.StatusCode, raw)
		}
		var qr queriesResp
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatalf("decode queries %q: %v", raw, err)
		}
		switch qr.State {
		case "awaiting_answer":
			if maxAnswers >= 0 && answered >= maxAnswers {
				return answered, false
			}
			switch code, araw := postJudgment(t, client, base, id, user, qr.Queries[0]); code {
			case http.StatusAccepted:
				answered++
			case http.StatusConflict, http.StatusTooManyRequests,
				http.StatusServiceUnavailable, http.StatusBadGateway:
				time.Sleep(20 * time.Millisecond)
			default:
				t.Fatalf("judgments: %d %s", code, araw)
			}
		case "done":
			return answered, true
		case "failed":
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
		case http.StatusConflict, http.StatusServiceUnavailable, http.StatusBadGateway:
			time.Sleep(20 * time.Millisecond)
		default:
			t.Fatalf("transcript: %d %s", resp.StatusCode, raw)
		}
	}
	t.Fatal("transcript stayed busy")
	return nil
}

func migrateVia(t *testing.T, base, id, target string) string {
	t.Helper()
	body, _ := json.Marshal(migrateRequest{Session: id, Target: target})
	resp, err := http.Post(base+"/v1/admin/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate %s: %d %s", id, resp.StatusCode, raw)
	}
	var mr migrateResponse
	if err := json.Unmarshal(raw, &mr); err != nil {
		t.Fatal(err)
	}
	return mr.To
}

func TestRendezvousMinimalDisruption(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	members := make([]*member, len(names))
	for i, n := range names {
		members[i] = &member{Member: Member{Name: n}}
	}
	place := func(ms []*member, id string) string { return pick(ms, id).Name }
	moved, total := 0, 500
	for i := 0; i < total; i++ {
		id := fmt.Sprintf("session-%d", i)
		before := place(members, id)
		after := place(members[:3], id) // "d" leaves
		if before != after {
			if before != "d" {
				t.Fatalf("session %s moved from %s to %s though %s stayed", id, before, after, before)
			}
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("no session was ever placed on the removed member (hash degenerate?)")
	}
	if moved > total/2 {
		t.Fatalf("%d/%d sessions moved when one of four members left", moved, total)
	}
}

func TestReadMemberFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members")
	content := "# fleet\nm1 http://127.0.0.1:1/\n\nm2 http://127.0.0.1:2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := ReadMemberFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Member{{Name: "m1", URL: "http://127.0.0.1:1"}, {Name: "m2", URL: "http://127.0.0.1:2"}}
	if len(ms) != 2 || ms[0] != want[0] || ms[1] != want[1] {
		t.Fatalf("parsed %+v, want %+v", ms, want)
	}
	if err := os.WriteFile(path, []byte("m3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMemberFile(path); err == nil {
		t.Fatal("malformed line parsed without error")
	}
}

// TestRouterGolden is the fleet acceptance core: sessions created and
// driven entirely through the router finish with transcripts
// bit-identical to the batch run, and correlation IDs survive the hop.
func TestRouterGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(101)
	want := batchTranscript(t, spec, user)

	_, srv, ds := newFleet(t, 2, nil)
	id := createVia(t, srv.URL, spec)
	if !strings.HasPrefix(id, "f") {
		t.Fatalf("router-generated ID %q lacks the fleet prefix", id)
	}

	// Correlation: a client-sent request ID must come back from the
	// router AND appear on the owning daemon's response (the daemon
	// echoes what it received, so this proves end-to-end pass-through).
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/sessions/"+id, nil)
	req.Header.Set("X-Request-Id", "corr-test-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "corr-test-1" {
		t.Fatalf("router response X-Request-Id = %q, want corr-test-1", got)
	}

	if _, done := drive(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not finish")
	}
	got := fetchTranscript(t, srv.URL, id)
	if !bytes.Equal(got, want) {
		t.Fatalf("routed transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
	// Exactly one member owns the session.
	owners := 0
	for _, d := range ds {
		r, err := http.Get(d.srv.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode == http.StatusOK {
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("session resident on %d members, want 1", owners)
	}
}

// TestMigrateQuiescent pins the basic migration protocol on a parked
// session: the admin call moves it, the journal moves with it (the
// source copy is deleted), and the finished transcript is still
// bit-identical to batch.
func TestMigrateQuiescent(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(102)
	spec.ID = "mig-quiescent"
	want := batchTranscript(t, spec, user)

	r, srv, ds := newFleet(t, 2, nil)
	id := createVia(t, srv.URL, spec)
	drive(t, srv.URL, id, user, 2)

	rt := r.routeFor(id)
	rt.mu.Lock()
	before := rt.owner
	rt.mu.Unlock()
	to := migrateVia(t, srv.URL, id, "")
	if to == before {
		t.Fatalf("migrate target %q is the previous owner", to)
	}
	if got := r.met.migrations.Value(); got != 1 {
		t.Fatalf("fleet_migrations_total = %d, want 1", got)
	}
	for _, d := range ds {
		resp, err := http.Get(d.srv.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		wantCode := http.StatusNotFound
		if d.name == to {
			wantCode = http.StatusOK
		}
		if resp.StatusCode != wantCode {
			t.Fatalf("member %s status for %s = %d, want %d", d.name, id, resp.StatusCode, wantCode)
		}
	}

	if _, done := drive(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not finish after migration")
	}
	if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("post-migration transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestMigrateWhileAnswering is the race the migration gate exists for:
// answers hammer the session through the router while migrations
// ping-pong it between members. Every in-flight answer must either land
// before the export (the bundle carries it) or fail cleanly and be
// retried against the new owner — and the final transcript must still
// be bit-identical to batch. Run under -race this also proves the
// gate/drain bookkeeping itself is clean.
func TestMigrateWhileAnswering(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(103)
	spec.ID = "mig-race"
	want := batchTranscript(t, spec, user)

	r, srv, _ := newFleet(t, 3, nil)
	id := createVia(t, srv.URL, spec)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Ping-pong the session as fast as the drain allows. 409s
		// (already migrating / finished) and 404s (session deleted at
		// the end of the test) are expected outcomes here, not errors.
		for {
			select {
			case <-stop:
				return
			default:
			}
			body, _ := json.Marshal(migrateRequest{Session: id})
			resp, err := http.Post(srv.URL+"/v1/admin/migrate", "application/json", bytes.NewReader(body))
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			time.Sleep(30 * time.Millisecond)
		}
	}()

	_, done := drive(t, srv.URL, id, user, -1)
	close(stop)
	wg.Wait()
	if !done {
		t.Fatal("session did not finish under migration churn")
	}
	if got := r.met.migrations.Value(); got == 0 {
		t.Fatal("no migration completed during the churn window")
	} else {
		t.Logf("migrations during churn: %d (failures: %d)", got, r.met.migrationFailures.Value())
	}
	if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("churned transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAutoMigrateOnLeave covers the member-file path: removing a
// healthy member from the set drains its live sessions to the
// remaining members automatically.
func TestAutoMigrateOnLeave(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(104)
	spec.ID = "mig-leave"
	want := batchTranscript(t, spec, user)

	r, srv, ds := newFleet(t, 2, nil)
	id := createVia(t, srv.URL, spec)
	drive(t, srv.URL, id, user, 2)

	rt := r.routeFor(id)
	rt.mu.Lock()
	owner := rt.owner
	rt.mu.Unlock()
	var keep []Member
	for _, d := range ds {
		if d.name != owner {
			keep = append(keep, Member{Name: d.name, URL: d.srv.URL})
		}
	}
	if err := r.SetMembers(keep); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.met.migrations.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("departed member %s was not drained (failures: %d)", owner, r.met.migrationFailures.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
	rt.mu.Lock()
	newOwner := rt.owner
	rt.mu.Unlock()
	if newOwner == owner {
		t.Fatalf("session still routed to departed member %s", owner)
	}
	if _, done := drive(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not finish after drain")
	}
	if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("post-drain transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestRouterRestartProbe covers lazy route recovery: a brand-new router
// (empty routing table) in front of the same members finds a session by
// probing and keeps serving it.
func TestRouterRestartProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(105)
	spec.ID = "probe-restart"
	want := batchTranscript(t, spec, user)

	_, srv, ds := newFleet(t, 2, nil)
	id := createVia(t, srv.URL, spec)
	drive(t, srv.URL, id, user, 2)

	// Second router, same members, no routing state.
	r2, err := New(Config{
		Members: []Member{
			{Name: ds[0].name, URL: ds[0].srv.URL},
			{Name: ds[1].name, URL: ds[1].srv.URL},
		},
		HealthInterval: 50 * time.Millisecond,
		DrainRetry:     10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(r2.Handler())
	defer srv2.Close()
	defer r2.Close()

	if _, done := drive(t, srv2.URL, id, user, -1); !done {
		t.Fatal("session did not finish through the restarted router")
	}
	if got := fetchTranscript(t, srv2.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("transcript via restarted router differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// ---------------------------------------------------------------------
// Replication and failover adoption (DESIGN.md §16).

// handleFor maps a member name back to its in-process daemon.
func handleFor(t *testing.T, ds []*daemonHandle, name string) *daemonHandle {
	t.Helper()
	for _, d := range ds {
		if d.name == name {
			return d
		}
	}
	t.Fatalf("no daemon named %q", name)
	return nil
}

// ownerOf reads a route's current owner.
func ownerOf(r *Router, id string) string {
	rt := r.routeFor(id)
	if rt == nil {
		return ""
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.owner
}

// waitAdoptions blocks until fleet_adoptions_total reaches n.
func waitAdoptions(t *testing.T, r *Router, n int64, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for r.met.adoptions.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet_adoptions_total stuck at %d, want >= %d (failures: %d)",
				r.met.adoptions.Value(), n, r.met.adoptionFailures.Value())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// replicaStatusOf asks one member for its copy of a session, returning
// found=false on a 404.
func replicaStatusOf(t *testing.T, base, id string) (service.ReplicaStatus, bool) {
	t.Helper()
	resp, err := http.Get(base + "/v1/replica/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return service.ReplicaStatus{}, false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica status: %d %s", resp.StatusCode, raw)
	}
	var st service.ReplicaStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st, true
}

// replicaPut pushes a raw record stream at a member's replica store and
// returns the HTTP status — the owner's push loop, hand-rolled.
func replicaPut(t *testing.T, base, id string, epoch uint64, reset bool, after int, records []json.RawMessage) int {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"epoch": epoch, "reset": reset, "after": after, "records": records,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/replica/sessions/"+id+"/records", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// journalRecords reads a session's journal off a member's disk, one raw
// record per line.
func journalRecords(t *testing.T, d *daemonHandle, id string) []json.RawMessage {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(d.dir, id+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []json.RawMessage
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		recs = append(recs, json.RawMessage(bytes.Clone(line)))
	}
	return recs
}

// TestFailoverAdoptionZombieFenced is the §16 acceptance core: the
// owner dies for good, the router adopts the session from its replica
// copy, the client finishes through the new owner with a transcript
// bit-identical to batch — and when the old owner comes back as a
// zombie and tries to keep writing, epoch fencing rejects its push and
// the zombie destroys its own stale copy.
func TestFailoverAdoptionZombieFenced(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(108)
	spec.ID = "zombie-fence"
	want := batchTranscript(t, spec, user)

	r, srv, ds := newFleet(t, 3, nil) // defaults: Replicas=2, FailoverAfter=2
	id := createVia(t, srv.URL, spec)
	drive(t, srv.URL, id, user, 2)

	owner := ownerOf(r, id)
	dead := handleFor(t, ds, owner)
	dead.srv.Close() // SIGKILL, in-process flavor: the listener vanishes
	waitAdoptions(t, r, 1, 15*time.Second)
	if got := ownerOf(r, id); got == owner {
		t.Fatalf("route still points at the dead owner %s", owner)
	}

	// Resurrect the old owner's manager on a fresh listener: a zombie
	// that still believes it owns the session and still knows its
	// replica targets. Its next journal append must be fenced.
	zombie := httptest.NewServer(service.Handler(dead.mgr))
	defer zombie.Close()
	resp, err := http.Get(zombie.URL + "/v1/sessions/" + id + "/queries?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var qr queriesResp
	if resp.StatusCode == http.StatusOK && json.Unmarshal(raw, &qr) == nil && qr.State == "awaiting_answer" {
		postJudgment(t, http.DefaultClient, zombie.URL, id, user, qr.Queries[0])
		// The judgment may confirm locally before the fence lands; either
		// way the fenced push must make the zombie abandon the session.
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		sr, err := http.Get(zombie.URL + "/v1/sessions/" + id)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, sr.Body)
		sr.Body.Close()
		if sr.StatusCode == http.StatusNotFound {
			break // fenced and self-destroyed
		}
		if time.Now().After(deadline) {
			t.Fatalf("zombie owner still serves session %s after a fenced push", id)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The client, oblivious to all of the above, finishes the session
	// through the router and gets the canonical transcript.
	if _, done := drive(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not finish after adoption")
	}
	if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("post-adoption transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAdoptionPrefersFullestCopy pins the candidate ordering: when two
// replica copies disagree, the one missing the journal tail loses to
// the fuller one even if the rendezvous ranking prefers it. The
// rendezvous-ranked replica is rewritten to a lagging prefix and the
// full record stream is planted on the other survivor; adoption must
// promote the full copy and fence the lagging one.
func TestAdoptionPrefersFullestCopy(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(109)
	spec.ID = "adopt-lag"
	want := batchTranscript(t, spec, user)

	r, srv, ds := newFleet(t, 3, nil)
	id := createVia(t, srv.URL, spec)
	drive(t, srv.URL, id, user, 3)
	time.Sleep(500 * time.Millisecond) // let trailing replica pushes settle

	owner := ownerOf(r, id)
	var holder, third *daemonHandle
	for _, d := range ds {
		if d.name == owner {
			continue
		}
		if _, ok := replicaStatusOf(t, d.srv.URL, id); ok {
			holder = d
		} else {
			third = d
		}
	}
	if holder == nil || third == nil {
		t.Fatalf("expected exactly one replica holder among the non-owners")
	}

	recs := journalRecords(t, handleFor(t, ds, owner), id)
	if len(recs) < 2 {
		t.Fatalf("owner journal has only %d records", len(recs))
	}
	// Plant the full stream on the member rendezvous never chose, then
	// cut the tail off the ranked replica's copy.
	if code := replicaPut(t, third.srv.URL, id, 0, true, 0, recs); code != http.StatusOK {
		t.Fatalf("planting full copy: %d", code)
	}
	if code := replicaPut(t, holder.srv.URL, id, 0, true, 0, recs[:len(recs)-1]); code != http.StatusOK {
		t.Fatalf("truncating ranked copy: %d", code)
	}

	handleFor(t, ds, owner).srv.Close()
	waitAdoptions(t, r, 1, 15*time.Second)
	if got := ownerOf(r, id); got != third.name {
		t.Fatalf("adoption promoted %s, want the fullest copy on %s", got, third.name)
	}
	// The lagging copy must be fenced at the adoption epoch so it can
	// never be promoted later.
	if st, ok := replicaStatusOf(t, holder.srv.URL, id); ok && st.Epoch == 0 {
		t.Fatalf("lagging copy on %s was not fenced (epoch still 0)", holder.name)
	}

	if _, done := drive(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not finish after adoption")
	}
	if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("post-adoption transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestFailoverRetriesWhenReplicaHolderReturns: the owner dies for good
// while its only replica holder is down, so the first adoption scan
// finds no copy to promote. When the holder answers again, the scan
// must re-run and adopt the session from it, and the session must
// finish bit-identical to batch.
func TestFailoverRetriesWhenReplicaHolderReturns(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(111)
	spec.ID = "adopt-retry"
	want := batchTranscript(t, spec, user)

	r, srv, ds := newFleet(t, 3, nil) // defaults: Replicas=2, FailoverAfter=2
	id := createVia(t, srv.URL, spec)
	drive(t, srv.URL, id, user, 2)

	owner := ownerOf(r, id)
	var holder *daemonHandle
	for _, d := range ds {
		if d.name == owner {
			continue
		}
		if _, ok := replicaStatusOf(t, d.srv.URL, id); ok {
			holder = d
		}
	}
	if holder == nil {
		t.Fatal("no non-owner holds a replica copy")
	}
	holder.down.Store(true)
	handleFor(t, ds, owner).srv.Close()

	deadline := time.Now().Add(15 * time.Second)
	for r.met.adoptionFailures.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the adoption scan never ran while the replica holder was down")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := r.met.adoptions.Value(); got != 0 {
		t.Fatalf("fleet_adoptions_total = %d with the only replica holder down", got)
	}
	holder.down.Store(false)
	waitAdoptions(t, r, 1, 15*time.Second)
	if got := ownerOf(r, id); got != holder.name {
		t.Fatalf("adoption promoted %s, want the replica holder %s", got, holder.name)
	}

	if _, done := drive(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not finish after adoption")
	}
	if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("post-adoption transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestFailoverRescansWhenHolderReturnsMidScan pins the re-arm of a
// failover scan that is still running when the replica holder returns.
// The owner dies while its only replica holder is down, so the scan
// surveys just the third member, whose survey GET the test holds. The
// holder comes back while that GET is held, so the health check that
// sees it return finds the scan's latch taken. The scan must survey
// again before it lets go of the latch, adopt the holder's copy, and
// the session must finish bit-identical to batch.
func TestFailoverRescansWhenHolderReturnsMidScan(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(112)
	spec.ID = "adopt-rescan"
	want := batchTranscript(t, spec, user)

	// Health checks run only when the test calls checkHealth, so every
	// transition lands at a known point of the scan.
	r, srv, ds := newFleet(t, 3, func(c *Config) {
		c.HealthInterval = time.Hour
		c.HealthTimeout = 10 * time.Second
	})
	id := createVia(t, srv.URL, spec)
	drive(t, srv.URL, id, user, 2)

	owner := ownerOf(r, id)
	var holder, third *daemonHandle
	for _, d := range ds {
		if d.name == owner {
			continue
		}
		if _, ok := replicaStatusOf(t, d.srv.URL, id); ok {
			holder = d
		} else {
			third = d
		}
	}
	if holder == nil || third == nil {
		t.Fatalf("want one replica holder and one member without a copy, got holder %v third %v", holder, third)
	}

	holder.down.Store(true)
	held, release := third.holdSurveys()
	handleFor(t, ds, owner).srv.Close()
	// Two failed probes declare the owner dead (FailoverAfter 2). The
	// holder is unhealthy by then, so the scan surveys only the third
	// member.
	r.checkHealth()
	r.checkHealth()
	select {
	case <-held:
	case <-time.After(15 * time.Second):
		t.Fatal("the failover scan never surveyed the third member")
	}
	holder.down.Store(false)
	r.checkHealth() // sees the holder return while the scan holds the latch
	release()

	waitAdoptions(t, r, 1, 15*time.Second)
	if got := ownerOf(r, id); got != holder.name {
		t.Fatalf("adoption promoted %s, want the replica holder %s", got, holder.name)
	}
	if _, done := drive(t, srv.URL, id, user, -1); !done {
		t.Fatal("session did not finish after adoption")
	}
	if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("post-adoption transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}

// TestAdoptWhileAnswering is the failover analog of
// TestMigrateWhileAnswering, and the reason the adoption path shares
// the migration drain gate: answers hammer the session through the
// router while its owner is killed — twice, so the second adoption can
// only succeed off the copy the first adoption re-replicated. Run
// under -race this proves the gate, the health-probe trigger, and the
// push bookkeeping are clean against live traffic.
func TestAdoptWhileAnswering(t *testing.T) {
	if testing.Short() {
		t.Skip("full synthesis runs are not -short friendly")
	}
	user := swanUser(t)
	spec := testSpec(110)
	spec.ID = "adopt-race"
	want := batchTranscript(t, spec, user)

	r, srv, ds := newFleet(t, 4, nil)
	id := createVia(t, srv.URL, spec)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := int64(1); round <= 2; round++ {
			time.Sleep(300 * time.Millisecond)
			owner := ownerOf(r, id)
			if owner == "" {
				t.Error("session lost its route mid-churn")
				return
			}
			for _, d := range ds {
				if d.name == owner {
					d.srv.Close()
				}
			}
			deadline := time.Now().Add(20 * time.Second)
			for r.met.adoptions.Value() < round {
				if time.Now().After(deadline) {
					t.Errorf("adoption %d never happened (failures: %d)",
						round, r.met.adoptionFailures.Value())
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}()

	_, done := drive(t, srv.URL, id, user, -1)
	wg.Wait()
	if !done {
		t.Fatal("session did not finish under failover churn")
	}
	if got := r.met.adoptions.Value(); got < 2 {
		t.Fatalf("fleet_adoptions_total = %d, want >= 2", got)
	}
	if got := fetchTranscript(t, srv.URL, id); !bytes.Equal(got, want) {
		t.Fatalf("churned transcript differs from batch (%d vs %d bytes)", len(got), len(want))
	}
}
