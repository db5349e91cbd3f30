package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/solver"
)

// Config tunes the session manager.
type Config struct {
	// DataDir holds the per-session journals. Created if missing.
	DataDir string
	// Workers bounds concurrent synthesis steps (the worker pool) and
	// the journal replays of startup recovery.
	Workers int
	// MaxSessions caps resident sessions; creation beyond it gets 429.
	MaxSessions int
	// IdleTTL evicts sessions untouched for this long (a later request
	// replays them from their journal transparently). Zero disables
	// eviction.
	IdleTTL time.Duration
	// JanitorInterval is the eviction sweep period.
	JanitorInterval time.Duration
	// StepTimeout bounds one synthesis step; a session whose step
	// exceeds it is failed (the journal preserves its answers).
	StepTimeout time.Duration
	// AcquireWait is how long a request waits for a worker slot before
	// 429. Zero rejects immediately.
	AcquireWait time.Duration
	// LongPollMax caps the ?wait= long-poll duration on query GETs.
	LongPollMax time.Duration
	// Obs receives service metrics and spans (nil disables).
	Obs *obs.Observer
	// Log receives structured operational events (nil disables the
	// stream; the flight recorder still captures records either way, so
	// post-mortem dumps work with logging off).
	Log *obs.Logger
	// FlightCapacity bounds the flight-recorder ring (0 selects
	// obs.DefaultFlightCapacity).
	FlightCapacity int
	// ReplicaTimeout bounds one replica push round trip (default 2s).
	ReplicaTimeout time.Duration
	// ReplicaRetry is the cooldown before a replica that failed a push
	// is retried with a full resynchronization (default 250ms).
	ReplicaRetry time.Duration
	// ReplicaClient is the HTTP client for replica pushes and delete
	// propagation (nil builds one with keep-alive defaults).
	ReplicaClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.DataDir == "" {
		c.DataDir = "compsynthd-data"
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.JanitorInterval <= 0 {
		c.JanitorInterval = 30 * time.Second
	}
	if c.StepTimeout <= 0 {
		c.StepTimeout = 5 * time.Minute
	}
	if c.LongPollMax <= 0 {
		c.LongPollMax = 30 * time.Second
	}
	if c.ReplicaTimeout <= 0 {
		c.ReplicaTimeout = 2 * time.Second
	}
	if c.ReplicaRetry <= 0 {
		c.ReplicaRetry = 250 * time.Millisecond
	}
	if c.ReplicaClient == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 8
		c.ReplicaClient = &http.Client{Transport: tr}
	}
	return c
}

// Manager owns the session table, the worker pool, the janitor, and
// startup recovery.
type Manager struct {
	cfg    Config
	met    *metrics
	log    *obs.Logger
	flight *obs.FlightRecorder
	slots  chan struct{}
	advWG  sync.WaitGroup
	ready  atomic.Bool
	// replicas is the standby copies of other members' journals this
	// daemon holds; replClient carries the owner-push traffic out.
	replicas   *replicaStore
	replClient *http.Client
	// retryAfter is the Retry-After value (whole seconds) stamped on 429
	// backpressure responses: the worker-pool acquire wait rounded up,
	// so a well-behaved client (or the fleet router) backs off for about
	// as long as a queued request would have waited instead of
	// hot-looping.
	retryAfter string

	janitorStop chan struct{}
	janitorDone chan struct{}

	// replayCtx parents every journal replay; Close and Abort cancel it
	// through stopReplays, then wait for the lazy loads on replays.
	replayCtx   context.Context
	stopReplays context.CancelFunc
	replays     sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*Session
	// loads holds the in-flight lazy rebuilds by session ID.
	loads  map[string]*loading
	nextID int64
	closed bool
}

// New builds a manager, recovering every journaled session found in the
// data directory before it returns. Finished sessions load their final
// record; the rest are rebuilt by replaying every journaled answer,
// which re-runs synthesis steps. Replays run in parallel, at most
// Config.Workers at a time, so startup time scales with the answers
// journaled by unfinished sessions, spread over up to that many cores.
func New(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: data dir: %w", err)
	}
	m := &Manager{
		cfg:         cfg,
		retryAfter:  retryAfterSeconds(cfg.AcquireWait),
		met:         newMetrics(cfg.Obs.Reg()),
		flight:      obs.NewFlightRecorder(cfg.FlightCapacity),
		slots:       make(chan struct{}, cfg.Workers),
		replicas:    newReplicaStore(cfg.DataDir),
		replClient:  cfg.ReplicaClient,
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
		sessions:    make(map[string]*Session),
		loads:       make(map[string]*loading),
	}
	m.replayCtx, m.stopReplays = context.WithCancel(context.Background())
	// Always carry a logger: a nil Config.Log becomes a record-only base,
	// so the flight recorder keeps capturing with the stream disabled.
	base := cfg.Log
	if base == nil {
		base = obs.NewLogger(nil, slog.LevelInfo)
	}
	m.log = base.WithRecorder(m.flight)
	if err := m.recoverAll(); err != nil {
		return nil, err
	}
	m.ready.Store(true)
	go m.janitor()
	return m, nil
}

// retryAfterSeconds renders an HTTP Retry-After delay covering d,
// rounded up to whole seconds with a 1s floor (Retry-After has no
// sub-second form).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// Ready reports whether the manager is serving: true between the end of
// journal recovery (New returning) and the start of drain (Close or
// Abort). GET /readyz keys off it.
func (m *Manager) Ready() bool { return m.ready.Load() }

// Flight exposes the flight recorder (for whole-process dumps and
// tests).
func (m *Manager) Flight() *obs.FlightRecorder { return m.flight }

func (m *Manager) now() time.Time { return time.Now() }

func (m *Manager) span(name string) obs.Span {
	return m.cfg.Obs.Trace().Begin("service." + name)
}

// acquireSlot claims a worker-pool slot, waiting up to AcquireWait.
// The returned release is idempotent.
func (m *Manager) acquireSlot() (release func(), ok bool) {
	select {
	case m.slots <- struct{}{}:
	default:
		if m.cfg.AcquireWait <= 0 {
			m.met.saturated.Inc()
			return nil, false
		}
		t := time.NewTimer(m.cfg.AcquireWait)
		defer t.Stop()
		select {
		case m.slots <- struct{}{}:
		case <-t.C:
			m.met.saturated.Inc()
			return nil, false
		}
	}
	m.advWG.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-m.slots
			m.advWG.Done()
		})
	}, true
}

// buildSession constructs a live session around a fresh stepper.
func (m *Manager) buildSession(id string, spec SessionSpec, jr *journal) (*Session, error) {
	stats := &solver.Stats{}
	// Sessions share the service registry only through the service-level
	// metrics, because core's registry instruments are named per-process
	// and concurrent sessions would fight over them. The core pipeline
	// gets a per-session tracer (with the session ID bound as a label, so
	// flight dumps can claim its spans) and a per-session logger; the
	// shared service tracer keeps the service-level spans.
	tracer := obs.NewTracer(0)
	tracer.SetLabel("session", id)
	log := m.log.With("session", id)
	progress := &solver.Progress{}
	coreObs := &obs.Observer{Tracer: tracer, Logger: log}
	cfg, err := spec.config(coreObs, stats)
	if err != nil {
		return nil, err
	}
	cfg.Progress = progress
	s := &Session{
		ID:        id,
		m:         m,
		spec:      spec,
		skName:    cfg.Sketch.Name(),
		stats:     stats,
		log:       log,
		tracer:    tracer,
		progress:  progress,
		state:     StateIdle,
		jr:        jr,
		lastTouch: m.now(),
		changed:   make(chan struct{}),
	}
	s.repl = newReplicator(m, id, &spec, log)
	if jr != nil {
		jr.repl = s.repl
	}
	cfg.OnIteration = func(core.IterationStat) { s.iterations.Add(1) }
	st, err := core.NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	s.stepper = st
	return s, nil
}

// Create starts a new session from a client spec. ctx carries the
// request-correlation IDs (see correlate.go); it is not used for
// cancellation. For a replicated spec the create record is pushed to
// the replica set before the session is confirmed (degraded-mode push
// failures are tolerated; the next append retries).
func (m *Manager) Create(ctx context.Context, spec SessionSpec) (*Session, error) {
	s, err := m.createSession(ctx, spec)
	if err != nil {
		return nil, err
	}
	s.jr.sync()
	return s, nil
}

func (m *Manager) createSession(ctx context.Context, spec SessionSpec) (*Session, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		return nil, fmt.Errorf("%w (%d resident)", ErrTooManySessions, len(m.sessions))
	}
	id := spec.ID
	if id == "" {
		id = fmt.Sprintf("s%06d", m.nextID)
		m.nextID++
	} else {
		// Client-assigned ID (fleet routing / migration adoption).
		if err := m.claimLocked(id); err != nil {
			return nil, err
		}
	}
	jr, err := createJournal(m.cfg.DataDir, id, &spec)
	if err != nil {
		return nil, err
	}
	s, err := m.buildSession(id, spec, jr)
	if err != nil {
		jr.close()
		os.Remove(journalPath(m.cfg.DataDir, id))
		return nil, err
	}
	m.sessions[id] = s
	m.met.created.Inc()
	m.met.active.Set(float64(len(m.sessions)))
	s.tracer.SetLabel("request_id", RequestID(ctx))
	s.log.Info("session.create",
		"sketch", s.skName,
		"seed", spec.Seed,
		"request_id", RequestID(ctx),
		"trace_id", TraceID(ctx))
	return s, nil
}

// claimLocked refuses a client-assigned ID that is resident, loading or
// journaled, and keeps the generated sequence ahead of an adopted
// "sNNN" name so the two can never collide later. Caller holds m.mu.
func (m *Manager) claimLocked(id string) error {
	if _, ok := m.sessions[id]; ok {
		return fmt.Errorf("%w: session %q already exists", ErrConflict, id)
	}
	if _, ok := m.loads[id]; ok {
		return fmt.Errorf("%w: session %q is loading", ErrConflict, id)
	}
	if _, err := os.Stat(journalPath(m.cfg.DataDir, id)); err == nil {
		return fmt.Errorf("%w: session %q already has a journal", ErrConflict, id)
	}
	m.noteSeqLocked(id)
	return nil
}

// noteSeqLocked advances the generated sequence past id when id has the
// generated "sNNN" form. Caller holds m.mu.
func (m *Manager) noteSeqLocked(id string) {
	if n, ok := sessionSeq(id); ok && n >= m.nextID {
		m.nextID = n + 1
	}
}

// Get returns a resident session, lazily rebuilding an evicted one from
// its journal. The replay runs off the manager lock, so the member's
// other sessions keep serving meanwhile, and concurrent Gets of one ID
// share a single replay.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	if s, ok := m.sessions[id]; ok {
		m.mu.Unlock()
		return s, nil
	}
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if l, ok := m.loads[id]; ok {
		m.mu.Unlock()
		<-l.done
		return l.s, l.err
	}
	if _, err := os.Stat(journalPath(m.cfg.DataDir, id)); err != nil {
		m.mu.Unlock()
		return nil, ErrNotFound
	}
	l := m.startLoadLocked(id)
	m.mu.Unlock()
	return m.runLoad(l)
}

// Restore adopts a migrated session from its journal records (the
// MigrationBundle's Journal field): the records are validated, written
// as this daemon's journal for the session, and the session is rebuilt
// through the normal recovery path — deterministic answer replay with
// the divergence check — so a restored session is bit-identical to one
// that lived here all along. Conflicts (resident session or existing
// journal under the ID, or records addressed to a different session)
// are ErrConflict; a replay that fails leaves no trace.
func (m *Manager) Restore(id string, lines []json.RawMessage) (*Session, error) {
	recs, err := validateJournalLines(id, lines)
	if err != nil {
		return nil, err
	}
	for i, rec := range recs {
		if rec.Type == recFinal {
			return nil, fmt.Errorf("%w: restore journal record %d is a final record; finished sessions do not migrate", ErrConflict, i)
		}
	}
	s, err := m.installJournal(id, lines)
	if err != nil {
		return nil, err
	}
	m.met.restored.Inc()
	m.log.Info("session.restore", "session", id, "answers", s.Status().Answers)
	return s, nil
}

// Adopt promotes this member's standby replica copy of a session into
// a live local session — the failover path (POST
// /v1/replica/sessions/{id}/adopt). The copy is fenced at epoch in the
// same atomic step that snapshots its records (an epoch older than the
// copy's is ErrReplicaFenced), the create record is re-keyed to the
// new epoch and replica set, and the session is rebuilt through the
// recovery path — deterministic replay with the divergence check.
// Unlike Restore, journals ending in a final record are accepted: a
// session that finished but whose transcript was never fetched must
// survive its owner's death too. On success the promoted journal is
// pushed to the new replica set before returning, so the fleet is back
// at full copy count (best-effort, and skipped for finished sessions,
// which serve their final record without an open journal).
func (m *Manager) Adopt(id string, epoch uint64, replicas []ReplicaTarget) (*Session, error) {
	lines, err := m.replicas.Take(id, epoch)
	if err != nil {
		return nil, err
	}
	recs, err := validateJournalLines(id, lines)
	if err != nil {
		return nil, err
	}
	first := recs[0]
	spec := *first.Spec
	spec.Epoch = epoch
	spec.Replicas = replicas
	first.Spec = &spec
	line0, err := json.Marshal(first)
	if err != nil {
		return nil, err
	}
	lines = append([]json.RawMessage{line0}, lines[1:]...)
	s, err := m.installJournal(id, lines)
	if err != nil {
		return nil, fmt.Errorf("service: adopt %s: %w", id, err)
	}
	// The copy is a journal now; keep its epoch behind as a tombstone so
	// the dead owner's pushes stay rejected here too.
	if err := m.replicas.Tombstone(id, epoch); err != nil {
		m.log.Warn("session.adopt.tombstone", "session", id, "error", err.Error())
	}
	m.met.adopted.Inc()
	st := s.Status()
	m.log.Info("session.adopt",
		"session", id, "epoch", epoch, "answers", st.Answers, "state", st.State)
	// Re-replicate to the set the router handed us so the session can
	// survive this member's death too. A finished session has no live
	// journal object; push its final record stream off the file instead.
	if s.jr != nil {
		s.jr.sync()
	} else if rp := newReplicator(m, id, &s.spec, s.log); rp != nil {
		rp.syncAll()
	}
	return s, nil
}

// ResyncReplicas pushes a full copy of every local session journal
// whose replica set includes target (every replicated journal when
// target is empty) back out to its replicas, and reports how many
// sessions were pushed. This is the anti-entropy half of replication
// (DESIGN.md §16): ordinary pushes ride answer appends, so a member
// that rejoined after losing its disk would never receive fresh copies
// of sessions that had already finished — and a later failover would
// find nothing to adopt. The router broadcasts a resync whenever a
// member transitions back to healthy.
func (m *Manager) ResyncReplicas(target string) int {
	paths, err := filepath.Glob(filepath.Join(m.cfg.DataDir, "*.journal"))
	if err != nil {
		m.log.Warn("replica.resync.scan", "error", err.Error())
		return 0
	}
	sort.Strings(paths)
	n := 0
	for _, path := range paths {
		id := journalID(path)
		m.mu.Lock()
		s := m.sessions[id]
		m.mu.Unlock()
		// A resident live session syncs through its journal object — the
		// journal mutex serializes the resync against its own appends.
		// Anything else (evicted, finished) has no appender, so a
		// transient replicator can read the journal file directly.
		if s != nil && s.jr != nil {
			if replicaSetHas(s.spec.Replicas, target) && s.jr.sync() {
				n++
			}
			continue
		}
		spec, err := readJournalSpec(path)
		if err != nil {
			m.log.Warn("replica.resync.spec", "session", id, "error", err.Error())
			continue
		}
		if !replicaSetHas(spec.Replicas, target) {
			continue
		}
		if rp := newReplicator(m, id, spec, m.log.With("session", id)); rp != nil && rp.syncAll() {
			n++
		}
	}
	if n > 0 {
		m.log.Info("replica.resync", "target", target, "sessions", n)
	}
	return n
}

// replicaSetHas reports whether the replica set names target (any
// non-empty set matches the empty target).
func replicaSetHas(set []ReplicaTarget, target string) bool {
	if len(set) == 0 {
		return false
	}
	if target == "" {
		return true
	}
	for _, t := range set {
		if t.Name == target {
			return true
		}
	}
	return false
}

// validateJournalLines decodes and sanity-checks journal records being
// imported under id (restore and adoption). The first record must be a
// create record whose embedded identity — the tamper/misroute guard,
// same contract as the transcript import's session_id check — matches.
func validateJournalLines(id string, lines []json.RawMessage) ([]journalRecord, error) {
	if id == "" {
		return nil, fmt.Errorf("service: journal import needs a session id")
	}
	if err := validateSessionID(id); err != nil {
		return nil, err
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("service: journal import with no records")
	}
	recs := make([]journalRecord, len(lines))
	for i, ln := range lines {
		if err := json.Unmarshal(ln, &recs[i]); err != nil {
			return nil, fmt.Errorf("service: restore journal line %d: %w", i, err)
		}
	}
	if recs[0].Type != recCreate || recs[0].Spec == nil {
		return nil, fmt.Errorf("service: restore journal does not start with a create record")
	}
	if recs[0].ID != "" && recs[0].ID != id {
		return nil, fmt.Errorf("%w: journal create record names session %q, not %q", ErrConflict, recs[0].ID, id)
	}
	if recs[0].Spec.ID != "" && recs[0].Spec.ID != id {
		return nil, fmt.Errorf("%w: journal spec names session %q, not %q", ErrConflict, recs[0].Spec.ID, id)
	}
	return recs, nil
}

// installJournal writes validated journal records as this daemon's
// journal for the session and rebuilds it through the normal recovery
// path — deterministic answer replay with the divergence check — so an
// imported session is bit-identical to one that lived here all along.
// Conflicts (a resident, loading or journaled session under the ID) are
// ErrConflict; a replay that fails leaves no trace. The ID counts as
// loading from the claim on, so a Get that arrives while the file is
// being written waits for the replay instead of reading half a journal.
func (m *Manager) installJournal(id string, lines []json.RawMessage) (*Session, error) {
	m.mu.Lock()
	err := ErrClosed
	var l *loading
	if !m.closed {
		if err = m.claimLocked(id); err == nil {
			l = m.startLoadLocked(id)
		}
	}
	m.mu.Unlock()
	if l == nil {
		return nil, err
	}
	if err := writeJournalLines(journalPath(m.cfg.DataDir, id), lines); err != nil {
		return m.finishLoad(l, nil, false, err)
	}
	l.installed = true
	s, err := m.runLoad(l)
	if err != nil {
		return nil, fmt.Errorf("service: restore replay: %w", err)
	}
	return s, nil
}

// writeJournalLines writes imported records as a new journal file, one
// compact record per line, and syncs it. A file already at path is
// ErrConflict; any other failure removes what was written.
func writeJournalLines(path string, lines []json.RawMessage) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return fmt.Errorf("%w: journal %s already exists", ErrConflict, path)
		}
		return fmt.Errorf("service: restore journal: %w", err)
	}
	// Records arrive pretty-printed (writeJSON indents the bundle);
	// journals are strictly one record per line, so compact each.
	var buf bytes.Buffer
	for _, ln := range lines {
		if err = json.Compact(&buf, ln); err != nil {
			break
		}
		buf.WriteByte('\n')
	}
	if err == nil {
		_, err = f.Write(buf.Bytes())
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("service: write restore journal: %w", err)
	}
	return nil
}

// List reports all resident sessions, ordered by ID.
func (m *Manager) List() []SessionStatus {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool { return ss[i].ID < ss[j].ID })
	out := make([]SessionStatus, len(ss))
	for i, s := range ss {
		out[i] = s.Status()
	}
	return out
}

// Delete removes a session and its journal entirely, and propagates
// the delete to the session's replica set (best-effort, async) so
// standby copies do not outlive the session they shadow.
func (m *Manager) Delete(id string) error { return m.remove(id, true) }

// remove is Delete's body; propagate=false is the fencing path, which
// must never delete the replica copies (they belong to the new owner's
// epoch now).
func (m *Manager) remove(id string, propagate bool) error {
	m.mu.Lock()
	s, ok := m.sessions[id]
	if ok {
		delete(m.sessions, id)
		m.met.active.Set(float64(len(m.sessions)))
	}
	// A replay in flight loses: finishLoad discards its session.
	if l := m.loads[id]; l != nil {
		l.removed = true
		l.cancel()
		ok = true
	}
	// Unlink before releasing m.mu: a Get that finds the session gone
	// from the table would otherwise rebuild it from this journal.
	os.Remove(flightPath(m.cfg.DataDir, id))
	err := os.Remove(journalPath(m.cfg.DataDir, id))
	m.mu.Unlock()
	if s != nil {
		s.abort()
		if propagate && len(s.spec.Replicas) > 0 {
			go m.propagateDelete(s)
		}
	}
	if !ok && os.IsNotExist(err) {
		return ErrNotFound
	}
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// propagateDelete tells the session's replica set to drop their
// standby copies. Runs off the request path; a replica that misses the
// delete keeps a harmless orphan copy until re-replication or operator
// cleanup (OPERATIONS.md).
func (m *Manager) propagateDelete(s *Session) {
	rp := s.repl
	if rp == nil {
		rp = newReplicator(m, s.ID, &s.spec, s.log)
	}
	rp.deleteAll()
}

// fenceAbandon is the replicator's zombie latch: a replica rejected
// this daemon's push because a higher epoch exists, meaning the
// session was adopted away while we were presumed dead. The local copy
// — journal included — is destroyed so the stale session cannot be
// found, served, or adopted again. The actual removal runs in a
// goroutine because the latch trips under the journal mutex.
func (m *Manager) fenceAbandon(id string, epoch uint64) {
	m.met.fenced.Inc()
	go func() {
		m.log.Warn("session.fenced", "session", id, "epoch", epoch)
		if err := m.remove(id, false); err != nil && !errors.Is(err, ErrNotFound) {
			m.log.Warn("session.fenced.remove", "session", id, "error", err.Error())
		}
	}()
}

// flightPath is where a session's post-mortem dump lands, next to its
// journal.
func flightPath(dataDir, id string) string {
	return filepath.Join(dataDir, id+".flight.json")
}

// DumpAll writes a flight dump for every resident session (SIGQUIT's
// whole-fleet post-mortem). Dumps are best-effort; the count of files
// written is returned.
func (m *Manager) DumpAll(reason string) int {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	n := 0
	for _, s := range ss {
		s.mu.Lock()
		if s.dumpFlightLocked(reason) {
			n++
		}
		s.mu.Unlock()
	}
	return n
}

// loading is one in-flight lazy rebuild of a session from its journal,
// held in m.loads under the session's ID until finishLoad. Every Get of
// the ID meanwhile waits on done and shares the outcome. A remove that
// lands during the replay sets removed and cancels it, and Close and
// Abort cancel every replay; either way the rebuilt session is
// discarded, never registered.
type loading struct {
	id     string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	s      *Session
	err    error
	// removed is set by remove, under m.mu.
	removed bool
	// installed marks a journal that Restore or Adopt wrote for this
	// load; a failed replay deletes it again.
	installed bool
}

// startLoadLocked claims id for a lazy rebuild. Caller holds m.mu and
// has checked that the manager is open.
func (m *Manager) startLoadLocked(id string) *loading {
	l := &loading{id: id, done: make(chan struct{})}
	l.ctx, l.cancel = context.WithCancel(m.replayCtx)
	m.loads[id] = l
	m.replays.Add(1)
	return l
}

// runLoad replays l's journal and finishes the load.
func (m *Manager) runLoad(l *loading) (*Session, error) {
	s, parsed, err := m.rebuild(l.ctx, l.id)
	return m.finishLoad(l, s, parsed, err)
}

// finishLoad ends a load: it registers the rebuilt session, unless a
// remove or Close overtook the replay, and wakes every Get waiting on
// l. A session it does not register is torn down, stepper and journal
// handle included.
func (m *Manager) finishLoad(l *loading, s *Session, parsed bool, err error) (*Session, error) {
	m.mu.Lock()
	delete(m.loads, l.id)
	if parsed {
		m.noteSeqLocked(l.id)
	}
	switch {
	case l.removed:
		err = ErrNotFound
	case m.closed:
		err = ErrClosed
	case err == nil:
		m.registerLocked(s)
	}
	if err != nil && l.installed {
		// claimLocked put the ID beyond the generated sequence and the load
		// kept it claimed, so the file can only be the one it installed.
		os.Remove(journalPath(m.cfg.DataDir, l.id))
	}
	m.mu.Unlock()
	l.cancel()
	if err != nil && s != nil {
		s.abort()
		s = nil
	}
	l.s, l.err = s, err
	close(l.done)
	m.replays.Done()
	return s, err
}

// registerLocked makes a rebuilt session resident. Caller holds m.mu.
func (m *Manager) registerLocked(s *Session) {
	m.sessions[s.ID] = s
	m.met.recovered.Inc()
	m.met.active.Set(float64(len(m.sessions)))
}

// recoverAll rebuilds every session whose journal is in the data dir on
// at most Config.Workers goroutines, then registers and logs them in
// path order. A journal that fails to rebuild is quarantined as
// <path>.bad: it must not take the daemon down with it.
func (m *Manager) recoverAll() error {
	start := time.Now()
	paths, err := filepath.Glob(filepath.Join(m.cfg.DataDir, "*.journal"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	type outcome struct {
		s      *Session
		parsed bool
		err    error
		dur    time.Duration
	}
	out := make([]outcome, len(paths))
	next := make(chan int, len(paths))
	for i := range paths {
		next <- i
	}
	close(next)
	workers := min(m.cfg.Workers, len(paths))
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t, o := time.Now(), &out[i]
				o.s, o.parsed, o.err = m.rebuild(m.replayCtx, journalID(paths[i]))
				o.dur = time.Since(t)
			}
		}()
	}
	wg.Wait()

	m.mu.Lock()
	defer m.mu.Unlock()
	failed := 0
	for i, path := range paths {
		id, o := journalID(path), out[i]
		if o.parsed {
			m.noteSeqLocked(id)
		}
		if o.err != nil {
			failed++
			m.log.Warn("session.recover.fail",
				"session", id, "error", o.err.Error(), "quarantine", path+".bad",
				"dur_ms", o.dur.Seconds()*1e3)
			os.Rename(path, path+".bad")
			continue
		}
		m.registerLocked(o.s)
		m.log.Info("session.recover",
			"session", id, "answers", o.s.answers, "dur_ms", o.dur.Seconds()*1e3)
	}
	m.log.Info("session.recover.done",
		"sessions", len(paths)-failed, "failed", failed, "workers", workers,
		"dur_ms", time.Since(start).Seconds()*1e3)
	return nil
}

// journalID is the session ID a journal file is named after.
func journalID(path string) string {
	return strings.TrimSuffix(filepath.Base(path), ".journal")
}

// rebuild reconstructs one session from its journal without registering
// it: a finished session from its final record, any other by replay,
// which ctx cancels. It needs no manager lock, so replays run off m.mu
// and in parallel. parsed reports whether the journal decoded; its ID
// then counts toward nextID even when the replay fails. Each rebuilt
// session is observed once in compsynthd_replay_seconds.
func (m *Manager) rebuild(ctx context.Context, id string) (s *Session, parsed bool, err error) {
	defer func(start time.Time) {
		if err == nil {
			m.met.replaySeconds.Observe(time.Since(start).Seconds())
		}
	}(time.Now())
	recs, err := readJournal(journalPath(m.cfg.DataDir, id))
	if err != nil {
		return nil, false, err
	}
	spec := *recs[0].Spec

	// A finished session needs no stepper: serve its final record.
	for _, rec := range recs {
		if rec.Type != recFinal {
			continue
		}
		sk, err := spec.sketchFor()
		if err != nil {
			return nil, true, err
		}
		s := &Session{
			ID:        id,
			m:         m,
			spec:      spec,
			skName:    sk.Name(),
			log:       m.log.With("session", id),
			lastTouch: m.now(),
			changed:   make(chan struct{}),
			final:     rec.Transcript,
			failure:   rec.Err,
			answers:   countAnswers(recs),
		}
		if rec.Err != "" {
			s.state = StateFailed
		} else {
			s.state = StateDone
		}
		return s, true, nil
	}

	jr, err := openJournal(m.cfg.DataDir, id)
	if err != nil {
		return nil, true, err
	}
	// openJournal does not count records; seed the count so replica
	// pushes index correctly. Replica targets start unacked, so the
	// first post-rebuild append resynchronizes them with the full file.
	jr.count = len(recs)
	if s, err = m.buildSession(id, spec, jr); err == nil {
		err = m.replay(ctx, s, recs)
	}
	if err != nil {
		jr.close()
		return nil, true, err
	}
	s.answers = countAnswers(recs)
	return s, true, nil
}

// replay runs a freshly built session's journaled history through its
// stepper: the import record, if any, then every answer. Query
// generation is deterministic in (spec, imported transcript, answers),
// so the replayed queries must reproduce the journaled pairs exactly —
// a mismatch means the code changed under the journal, and resuming
// would silently answer different questions. NextBatch runs only to
// regenerate the rounds journaled answers match; the round after the
// last one waits for a client's poll.
func (m *Manager) replay(ctx context.Context, s *Session, recs []journalRecord) error {
	recs = replayRecords(recs)
	if len(recs) > 1 && recs[1].Type == recCheckpoint {
		if err := s.stepper.Preload(recs[1].Transcript); err != nil {
			return fmt.Errorf("preload imported transcript: %w", err)
		}
		s.imported = true
	}
	// Replay is batch-aware: the journal records judgments in arrival
	// order, which within a planner round may differ from sequence
	// order, so each record is matched against the regenerated round's
	// still-open queries by scenario pair rather than strictly against
	// the next query. A round that was only partially answered before
	// the crash replays its recorded prefix and leaves the rest parked.
	replayed := 0
	var open []core.Query
	for i, rec := range recs {
		if rec.Type != recAnswer {
			continue
		}
		if len(open) == 0 {
			stepCtx, cancel := context.WithTimeout(ctx, m.cfg.StepTimeout)
			qs, err := s.stepper.NextBatch(stepCtx)
			cancel()
			if err != nil {
				return fmt.Errorf("replay step %d: %w", replayed, err)
			}
			if qs == nil {
				m.log.Warn("session.replay.truncated",
					"session", s.ID, "unused_answers", countAnswers(recs[i:]))
				break
			}
			open = qs
		}
		match := -1
		for k := range open {
			if sameScenario(open[k].A, rec.A) && sameScenario(open[k].B, rec.B) {
				match = k
				break
			}
		}
		if match < 0 {
			return fmt.Errorf("replay step %d: regenerated query diverged from journal (stale journal for this build?)", replayed)
		}
		j := oracle.Judgment{Pref: oracle.Preference(rec.Pref), Confidence: rec.Conf}
		if err := s.stepper.AnswerSeq(open[match].Seq, j); err != nil {
			return fmt.Errorf("replay answer %d: %w", replayed, err)
		}
		open = append(open[:match], open[match+1:]...)
		replayed++
	}
	return nil
}

func countAnswers(recs []journalRecord) int {
	n := 0
	for _, rec := range recs {
		if rec.Type == recAnswer {
			n++
		}
	}
	return n
}

// sessionSeq parses the numeric suffix of a generated session ID.
func sessionSeq(id string) (int64, bool) {
	if !strings.HasPrefix(id, "s") {
		return 0, false
	}
	var n int64
	if _, err := fmt.Sscanf(id[1:], "%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

func sameScenario(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// janitor periodically evicts idle sessions.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	t := time.NewTicker(m.cfg.JanitorInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.sweep()
		case <-m.janitorStop:
			return
		}
	}
}

func (m *Manager) sweep() {
	if m.cfg.IdleTTL <= 0 {
		return
	}
	now := m.now()
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	for _, s := range ss {
		if !s.evictIfIdle(now, m.cfg.IdleTTL) {
			continue
		}
		m.mu.Lock()
		delete(m.sessions, s.ID)
		m.met.active.Set(float64(len(m.sessions)))
		m.mu.Unlock()
		m.met.evicted.Inc()
		s.log.Info("session.evict")
	}
}

// Close gracefully shuts the manager down: stops the janitor, cancels
// in-flight journal replays, waits (bounded by ctx) for in-flight steps
// to park, and releases all resources. After Close the data directory
// alone reconstitutes every session: finished ones from their final
// record, the rest by replay.
func (m *Manager) Close(ctx context.Context) error {
	if !m.stop(func(s *Session) { s.shutdown(ctx) }) {
		return nil
	}
	return ctx.Err()
}

// Abort simulates a crash for tests: every session is dropped without
// waiting for in-flight steps, leaving only the fsynced journals.
func (m *Manager) Abort() { m.stop((*Session).abort) }

// stop is Close and Abort: it closes the manager to new work, cancels
// every in-flight replay and waits for it (a closed manager registers
// nothing), stops the janitor, ends each resident session with end and
// waits for in-flight steps. It reports false if the manager was
// already closed.
func (m *Manager) stop(end func(*Session)) bool {
	m.ready.Store(false)
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.closed = true
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()

	m.stopReplays()
	m.replays.Wait()
	close(m.janitorStop)
	<-m.janitorDone
	for _, s := range ss {
		end(s)
	}
	m.advWG.Wait()
	m.replicas.Close()
	m.met.active.Set(0)
	return true
}
