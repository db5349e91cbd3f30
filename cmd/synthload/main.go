// Command synthload is the fleet's chaos load generator: it spawns a
// real compsynth-router in front of real compsynthd processes, drives
// many concurrent synthesis sessions through the router over HTTP, and
// injects chaos — kill -9 + restart of members, admin-API migrations,
// and member-file drain/rejoin cycles — while asserting the repo-wide
// invariant: every completed session's transcript is bit-identical to
// a single-process batch run of the same spec (service.BatchRun).
//
// Usage:
//
//	synthload [-sessions 200] [-daemons 3] [-events 20]
//	          [-concurrency 16] [-workers 4] [-seed 1]
//	          [-replicas 2] [-dead-kills 0]
//	          [-event-interval 400ms] [-dir DIR] [-keep]
//	          [-daemon-bin PATH] [-router-bin PATH]
//
// With -dead-kills N > 0, N of the chaos events SIGKILL a member and
// never restart it: the router must notice the corpse, fail its
// sessions over to their surviving replica copies (DESIGN.md §16), and
// the orphaned drivers must still finish with bit-identical
// transcripts. At most one member is permanently down at a time — the
// previous victim rejoins with a wiped data directory before the next
// kill, so every adoption promotes a replica copy, never a recovered
// journal. The last quarter of the sessions starts only after the last
// permanent kill has fired, so however fast the sessions run, every
// kill meets a live load. After such a run the router must report at
// least one fleet_adoptions_total.
//
// The drivers ride out everything chaos produces — 429 backpressure
// (honoring Retry-After), 409 stale sequence numbers after migration,
// 502/503 while a member restarts, 408 long-poll expiries — exactly as
// a production client must. After the run synthload validates that
// every line of every daemon and router log file is well-formed JSON
// and that the router's /metrics endpoint exposes the fleet gauges and
// counters (fleet_migrations_total, fleet_member_unhealthy, ...).
// Exit status is non-zero on any transcript mismatch, failed session,
// malformed log line, or missing metric.
//
// Daemons run with the idle janitor disabled (-idle-ttl 0), so every
// session stays resident and the chaos vocabulary alone — kill -9,
// restart, migrate, drain — decides when a session is rebuilt by
// journal replay (see DESIGN.md §14).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
	"compsynth/internal/service"
	"compsynth/internal/sketch"
)

func main() {
	var (
		sessions    = flag.Int("sessions", 200, "sessions to drive to completion")
		daemons     = flag.Int("daemons", 3, "compsynthd processes in the fleet")
		events      = flag.Int("events", 20, "chaos events (kill/restart, migrate, drain/rejoin)")
		concurrency = flag.Int("concurrency", 16, "concurrent session drivers")
		workers     = flag.Int("workers", 4, "worker pool size per daemon")
		seed        = flag.Int64("seed", 1, "base RNG seed (session i uses seed+i; chaos uses seed)")
		replicas    = flag.Int("replicas", 2, "journal copies per session, owner included (passed to the router; 1 disables replication)")
		deadKills   = flag.Int("dead-kills", 0, "chaos events that SIGKILL a member permanently (no restart); its sessions must finish by failover adoption")
		interval    = flag.Duration("event-interval", 400*time.Millisecond, "pause between chaos events")
		dir         = flag.String("dir", "", "working directory (default: a fresh temp dir)")
		keep        = flag.Bool("keep", false, "keep the working directory after the run")
		daemonBin   = flag.String("daemon-bin", "", "compsynthd binary (default: next to this executable)")
		routerBin   = flag.String("router-bin", "", "compsynth-router binary (default: next to this executable)")
	)
	flag.Parse()
	if err := run(options{
		sessions: *sessions, daemons: *daemons, events: *events,
		concurrency: *concurrency, workers: *workers, seed: *seed,
		replicas: *replicas, deadKills: *deadKills,
		interval: *interval, dir: *dir, keep: *keep,
		daemonBin: *daemonBin, routerBin: *routerBin,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "synthload: FAIL:", err)
		os.Exit(1)
	}
}

type options struct {
	sessions, daemons, events, concurrency, workers int
	replicas, deadKills                             int
	seed                                            int64
	interval                                        time.Duration
	dir                                             string
	keep                                            bool
	daemonBin, routerBin                            string
}

// loadSpec is the per-session synthesis spec: small enough that one
// session completes in well under a second of solver time, real enough
// to exercise ranking, repair, and the distinguisher.
func loadSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Seed:        seed,
		Solver:      &service.SolverSpec{Samples: 150, RepairRestarts: 5, RepairSteps: 60, Workers: 1},
		Distinguish: &service.DistinguishSpec{Candidates: 6, PairSamples: 250, Gamma: 2},
	}
}

func run(o options) error {
	if o.sessions < 1 || o.daemons < 1 || o.concurrency < 1 {
		return errors.New("need -sessions, -daemons, -concurrency >= 1")
	}
	if o.deadKills > 0 {
		if o.daemons < 2 || o.replicas < 2 {
			return errors.New("-dead-kills needs -daemons >= 2 and -replicas >= 2 (a lone copy cannot be adopted)")
		}
		if o.deadKills > (o.events+2)/3 {
			return fmt.Errorf("-dead-kills %d needs -events >= %d (one dead kill per three events)", o.deadKills, o.deadKills*3-2)
		}
	}
	if err := resolveBins(&o); err != nil {
		return err
	}
	dir := o.dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "synthload-"); err != nil {
			return err
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if !o.keep {
		defer os.RemoveAll(dir)
	}
	fmt.Printf("synthload: workdir %s\n", dir)

	f, err := startFleet(o, dir)
	if err != nil {
		return err
	}
	defer f.stop()

	user, err := sketch.DefaultSWANTarget.Candidate(sketch.SWAN())
	if err != nil {
		return err
	}
	gt := oracle.NewGroundTruth(user, 1e-9)

	var (
		wg        sync.WaitGroup
		completed atomic.Int64
		answers   atomic.Int64
		failures  atomic.Int64
		firstErr  atomic.Value
	)
	fail := func(err error) {
		failures.Add(1)
		firstErr.CompareAndSwap(nil, err)
		fmt.Fprintln(os.Stderr, "synthload:", err)
	}
	sem := make(chan struct{}, o.concurrency)
	chaos := newChaos(f, rand.New(rand.NewSource(o.seed)), o.interval, o.deadKills)
	start := time.Now()
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		for i := 0; i < o.sessions; i++ {
			if i == o.sessions-o.sessions/4 {
				<-chaos.deadDone
			}
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				spec := loadSpec(o.seed + int64(i))
				// Even sessions ask one query per round, odd sessions
				// three, so rounds of one and multi-query rounds both
				// cross the fleet under chaos.
				if i%2 == 1 {
					spec.PairsPerIteration = 3
				}
				n, err := driveSession(f.routerURL, spec, gt)
				if err != nil {
					fail(fmt.Errorf("session %d: %w", i, err))
					return
				}
				answers.Add(int64(n))
				if c := completed.Add(1); c%25 == 0 || int(c) == o.sessions {
					fmt.Printf("synthload: %d/%d sessions bit-identical (%.1fs)\n",
						c, o.sessions, time.Since(start).Seconds())
				}
			}(i)
		}
		wg.Wait()
	}()

	chaosErr := chaos.run(o.events, loadDone)
	<-loadDone
	if chaosErr != nil {
		return chaosErr
	}
	if failures.Load() > 0 {
		return fmt.Errorf("%d sessions failed; first: %v", failures.Load(), firstErr.Load())
	}
	fmt.Printf("synthload: %d sessions, %d answers, %d chaos events (%d kill/restart, %d dead-kill, %d migrate, %d drain) in %.1fs\n",
		completed.Load(), answers.Load(),
		chaos.kills+chaos.deadKills+chaos.migrates+chaos.drains,
		chaos.kills, chaos.deadKills, chaos.migrates, chaos.drains,
		time.Since(start).Seconds())
	if chaos.deadKills < o.deadKills {
		return fmt.Errorf("only %d of the %d requested permanent kills fired before the load finished", chaos.deadKills, o.deadKills)
	}
	// Every schedule longer than its permanent kills holds a
	// kill/restart (event 0 without them, event 1 with them), the only
	// event that exercises startup recovery.
	if chaos.kills == 0 && o.events > o.deadKills {
		return fmt.Errorf("no kill/restart fired before the load finished (%d dead-kill, %d migrate, %d drain)",
			chaos.deadKills, chaos.migrates, chaos.drains)
	}

	if err := checkMetrics(f.routerURL, chaos.migrateOK, chaos.deadKills); err != nil {
		return err
	}
	if o.replicas > 1 {
		if err := checkMemberMetrics(f, chaos.deadMember); err != nil {
			return err
		}
	}
	if err := validateLogs(filepath.Join(dir, "logs")); err != nil {
		return err
	}
	fmt.Println("synthload: PASS")
	return nil
}

// resolveBins fills empty binary paths from the directory holding the
// synthload executable itself (the Makefile builds all three together).
func resolveBins(o *options) error {
	self, err := os.Executable()
	if err != nil {
		self = ""
	}
	find := func(explicit, name string) (string, error) {
		if explicit != "" {
			return explicit, nil
		}
		if self != "" {
			p := filepath.Join(filepath.Dir(self), name)
			if _, err := os.Stat(p); err == nil {
				return p, nil
			}
		}
		if p, err := exec.LookPath(name); err == nil {
			return p, nil
		}
		return "", fmt.Errorf("cannot find %s: pass -%s-bin", name, strings.TrimPrefix(name, "compsynth"))
	}
	if o.daemonBin, err = find(o.daemonBin, "compsynthd"); err != nil {
		return err
	}
	o.routerBin, err = find(o.routerBin, "compsynth-router")
	return err
}

// ---------------------------------------------------------------------
// Fleet process management.

type memberProc struct {
	name string
	addr string // fixed host:port, survives restarts
	url  string
	data string

	mu          sync.Mutex
	cmd         *exec.Cmd
	incarnation int
}

type fleetHarness struct {
	opts       options
	dir        string
	memberFile string
	members    []*memberProc
	router     *exec.Cmd
	routerURL  string
}

func startFleet(o options, dir string) (*fleetHarness, error) {
	logs := filepath.Join(dir, "logs")
	if err := os.MkdirAll(logs, 0o755); err != nil {
		return nil, err
	}
	f := &fleetHarness{opts: o, dir: dir, memberFile: filepath.Join(dir, "members.txt")}
	for i := 0; i < o.daemons; i++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		m := &memberProc{
			name: fmt.Sprintf("m%d", i+1),
			addr: addr,
			url:  "http://" + addr,
			data: filepath.Join(dir, fmt.Sprintf("data-m%d", i+1)),
		}
		if err := f.startMember(m); err != nil {
			f.stop()
			return nil, err
		}
		f.members = append(f.members, m)
	}
	if err := f.writeMemberFile(nil); err != nil {
		f.stop()
		return nil, err
	}
	addr, err := freeAddr()
	if err != nil {
		f.stop()
		return nil, err
	}
	f.routerURL = "http://" + addr
	r := exec.Command(o.routerBin,
		"-addr", addr,
		"-member-file", f.memberFile,
		"-replicas", strconv.Itoa(o.replicas),
		"-failover-after", "2",
		"-health-interval", "200ms",
		"-watch-interval", "200ms",
		"-log", filepath.Join(f.dir, "logs", "router.log"),
		"-log-level", "info")
	r.Stderr = mustCreate(filepath.Join(f.dir, "logs", "router.stderr"))
	if err := r.Start(); err != nil {
		f.stop()
		return nil, fmt.Errorf("start router: %w", err)
	}
	f.router = r
	for _, m := range f.members {
		if err := waitReady(m.url, 15*time.Second); err != nil {
			f.stop()
			return nil, fmt.Errorf("member %s: %w", m.name, err)
		}
	}
	if err := waitReady(f.routerURL, 15*time.Second); err != nil {
		f.stop()
		return nil, fmt.Errorf("router: %w", err)
	}
	fmt.Printf("synthload: fleet up — router %s, %d members\n", f.routerURL, len(f.members))
	return f, nil
}

func (f *fleetHarness) startMember(m *memberProc) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	logf := filepath.Join(f.dir, "logs", fmt.Sprintf("%s.%d.log", m.name, m.incarnation))
	cmd := exec.Command(f.opts.daemonBin,
		"-addr", m.addr,
		"-data", m.data,
		"-workers", strconv.Itoa(f.opts.workers),
		"-idle-ttl", "0",
		"-log", logf,
		"-log-level", "info")
	cmd.Stderr = mustCreate(filepath.Join(f.dir, "logs", fmt.Sprintf("%s.%d.stderr", m.name, m.incarnation)))
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", m.name, err)
	}
	m.cmd = cmd
	m.incarnation++
	return nil
}

// killMember SIGKILLs a member and reaps it; the journals stay on disk.
func (f *fleetHarness) killMember(m *memberProc) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cmd != nil && m.cmd.Process != nil {
		m.cmd.Process.Signal(syscall.SIGKILL)
		m.cmd.Wait()
	}
	m.cmd = nil
}

// writeMemberFile writes the watched membership file atomically,
// omitting `skip` when non-nil (a drain event).
func (f *fleetHarness) writeMemberFile(skip *memberProc) error {
	var b strings.Builder
	b.WriteString("# synthload fleet membership\n")
	for _, m := range f.members {
		if m == skip {
			continue
		}
		fmt.Fprintf(&b, "%s %s\n", m.name, m.url)
	}
	tmp := f.memberFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.memberFile)
}

func (f *fleetHarness) stop() {
	if f.router != nil && f.router.Process != nil {
		f.router.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { f.router.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			f.router.Process.Kill()
			<-done
		}
	}
	for _, m := range f.members {
		f.killMember(m)
	}
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

func mustCreate(path string) *os.File {
	fd, err := os.Create(path)
	if err != nil {
		panic(err)
	}
	return fd
}

func waitReady(base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v", timeout)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// ---------------------------------------------------------------------
// Chaos.

type chaosEngine struct {
	f        *fleetHarness
	rng      *rand.Rand
	interval time.Duration

	// deadTarget is how many events must be permanent kills; deadMember
	// is the at-most-one member currently dead for good.
	deadTarget int
	deadMember *memberProc

	kills, deadKills, migrates, drains int
	// migrateOK counts admin migrations the router confirmed with 200;
	// each one must show up in fleet_migrations_total.
	migrateOK int

	// deadDone is closed once the last permanent kill has fired, or
	// when run returns; at once when none is requested. The load holds
	// its last quarter of sessions back until then.
	deadDone chan struct{}
	deadOnce sync.Once
}

func newChaos(f *fleetHarness, rng *rand.Rand, interval time.Duration, deadTarget int) *chaosEngine {
	c := &chaosEngine{f: f, rng: rng, interval: interval, deadTarget: deadTarget, deadDone: make(chan struct{})}
	if deadTarget == 0 {
		c.closeDeadDone()
	}
	return c
}

func (c *chaosEngine) closeDeadDone() { c.deadOnce.Do(func() { close(c.deadDone) }) }

// run executes exactly n chaos events, pausing `interval` between
// them. Event kinds cycle deterministically, so every run with three
// or more events (five with permanent kills) exercises the full
// vocabulary; the rng only picks targets. Without permanent kills the
// cycle is kill/restart → migrate → drain. With them, event i%3 == 0
// is a permanent kill until -dead-kills is spent (events 0, 3, 6, ...,
// front-loaded so even a short run orphans sessions while the load is
// still hot) and a kill/restart after, and event i%3 == 1 alternates
// kill/restart (i%6 == 1) and migrate (i%6 == 4), so restarts and
// their journal replay run while the permanent kills do. It keeps at
// most one member disrupted at a time so the fleet always has healthy
// capacity, and finishes any in-flight disruption (restart, rejoin)
// before returning. It closes deadDone when the last permanent kill has
// fired, and on return, so the held-back sessions always start.
func (c *chaosEngine) run(n int, loadDone <-chan struct{}) error {
	defer c.closeDeadDone()
	for i := 0; i < n; i++ {
		select {
		case <-loadDone:
			// The load finished early; the remaining events would
			// disrupt an idle fleet, which asserts nothing.
			fmt.Printf("synthload: load done after %d/%d chaos events\n", i, n)
			return nil
		case <-time.After(c.interval):
		}
		var err error
		switch {
		case i%3 == 0 && c.deadKills < c.deadTarget:
			err = c.killDead()
		case i%3 == 0, i%6 == 1 && c.deadTarget > 0:
			err = c.killRestart()
		case i%3 == 1:
			err = c.migrate()
		default:
			err = c.drainRejoin()
		}
		if err != nil {
			return fmt.Errorf("chaos event %d: %w", i+1, err)
		}
	}
	return nil
}

// killDead SIGKILLs a member and never restarts it: the router's
// health probes must declare it dead and adopt its sessions onto
// their surviving replica copies (DESIGN.md §16). At most one member
// stays permanently down — the previous victim rejoins first with a
// wiped data directory, so its earlier sessions were only ever
// recoverable by adoption, never by journal replay.
func (c *chaosEngine) killDead() error {
	if len(c.f.members) < 2 {
		return c.killRestart()
	}
	if prev := c.deadMember; prev != nil {
		c.deadMember = nil
		if err := os.RemoveAll(prev.data); err != nil {
			return err
		}
		fmt.Printf("synthload: chaos revive %s (data wiped)\n", prev.name)
		if err := c.f.startMember(prev); err != nil {
			return err
		}
		if err := waitReady(prev.url, 15*time.Second); err != nil {
			return fmt.Errorf("%s did not rejoin: %w", prev.name, err)
		}
		// Re-replication grace: owners holding the revived member as a
		// stale replica target resync their full journal on the next
		// append (after the push-retry cooldown). The drivers are
		// answering continuously, so every live session appends well
		// within this pause — without it the next kill could orphan a
		// session whose only copy was just wiped.
		time.Sleep(1500 * time.Millisecond)
	}
	m := c.memberWithLiveSessions()
	if m == nil {
		m = c.f.members[c.rng.Intn(len(c.f.members))]
	}
	fmt.Printf("synthload: chaos kill -9 %s (permanent; sessions must fail over)\n", m.name)
	c.f.killMember(m)
	c.deadMember = m
	c.deadKills++
	if c.deadKills == c.deadTarget {
		c.closeDeadDone()
	}
	return nil
}

// killRestart SIGKILLs a random member mid-flight and restarts it on
// the same address and data directory: its sessions recover by journal
// replay, the exactly-replayable path. The permanently-dead member, if
// any, is never picked — it must stay a corpse.
func (c *chaosEngine) killRestart() error {
	var live []*memberProc
	for _, m := range c.f.members {
		if m != c.deadMember {
			live = append(live, m)
		}
	}
	m := live[c.rng.Intn(len(live))]
	fmt.Printf("synthload: chaos kill -9 %s\n", m.name)
	c.f.killMember(m)
	time.Sleep(time.Duration(100+c.rng.Intn(200)) * time.Millisecond)
	if err := c.f.startMember(m); err != nil {
		return err
	}
	if err := waitReady(m.url, 15*time.Second); err != nil {
		return fmt.Errorf("%s did not recover: %w", m.name, err)
	}
	c.kills++
	return nil
}

// migrate picks a random live session and asks the router's admin API
// to move it (router picks the target by rendezvous). A 409/404 is not
// an error — the session may finish or migrate concurrently.
func (c *chaosEngine) migrate() error {
	id := c.randomLiveSession()
	if id == "" {
		return c.killRestart() // nothing to migrate; still spend the event
	}
	body, _ := json.Marshal(map[string]string{"session": id})
	client := &http.Client{Timeout: 90 * time.Second}
	resp, err := client.Post(c.f.routerURL+"/v1/admin/migrate", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		fmt.Printf("synthload: chaos migrate %s: %s\n", id, bytes.TrimSpace(raw))
		c.migrateOK++
	case http.StatusNotFound, http.StatusConflict, http.StatusServiceUnavailable, http.StatusBadGateway:
		fmt.Printf("synthload: chaos migrate %s declined (%d)\n", id, resp.StatusCode)
	default:
		return fmt.Errorf("migrate %s: %d %s", id, resp.StatusCode, raw)
	}
	c.migrates++
	return nil
}

// drainRejoin removes a member from the watched member file — the
// router auto-migrates its sessions away — then adds it back. Prefers
// a member that currently owns live sessions so the drain actually
// moves something; with none, a kill/restart spends the event instead.
func (c *chaosEngine) drainRejoin() error {
	m := c.memberWithLiveSessions()
	if m == nil {
		return c.killRestart()
	}
	fmt.Printf("synthload: chaos drain %s\n", m.name)
	if err := c.f.writeMemberFile(m); err != nil {
		return err
	}
	time.Sleep(1500 * time.Millisecond)
	if err := c.f.writeMemberFile(nil); err != nil {
		return err
	}
	c.drains++
	return nil
}

// memberWithLiveSessions asks each member directly (not through the
// router) for its resident sessions and returns one that owns live
// work, rng-chosen among candidates.
func (c *chaosEngine) memberWithLiveSessions() *memberProc {
	client := &http.Client{Timeout: 5 * time.Second}
	var owning []*memberProc
	for _, m := range c.f.members {
		resp, err := client.Get(m.url + "/v1/sessions")
		if err != nil {
			continue
		}
		var list struct {
			Sessions []struct {
				State string `json:"state"`
			} `json:"sessions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, s := range list.Sessions {
			if s.State == "awaiting_answer" || s.State == "computing" {
				owning = append(owning, m)
				break
			}
		}
	}
	if len(owning) == 0 {
		return nil
	}
	return owning[c.rng.Intn(len(owning))]
}

func (c *chaosEngine) randomLiveSession() string {
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(c.f.routerURL + "/v1/sessions")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var list struct {
		Sessions []struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"sessions"`
	}
	if json.NewDecoder(resp.Body).Decode(&list) != nil {
		return ""
	}
	var live []string
	for _, s := range list.Sessions {
		if s.State == "awaiting_answer" || s.State == "computing" {
			live = append(live, s.ID)
		}
	}
	if len(live) == 0 {
		return ""
	}
	return live[c.rng.Intn(len(live))]
}

// ---------------------------------------------------------------------
// The session driver.

// prefWord renders a preference in the API's answer vocabulary.
func prefWord(pref oracle.Preference) string {
	switch pref {
	case oracle.PrefersFirst:
		return "first"
	case oracle.PrefersSecond:
		return "second"
	}
	return "tie"
}

// queriesResp mirrors the GET /queries document.
type queriesResp struct {
	State   string `json:"state"`
	Queries []struct {
		Seq int       `json:"seq"`
		A   []float64 `json:"a"`
		B   []float64 `json:"b"`
	} `json:"queries"`
	Error string `json:"error"`
}

// driveSession creates one session through the router, judges its
// query rounds with the ground-truth oracle until done, and compares
// the fetched transcript byte-for-byte against the single-process batch
// reference. It fetches whole rounds from GET /queries and posts their
// judgments as one POST /judgments batch — in reverse round order, to
// exercise out-of-order acceptance, and with a mix of omitted and
// explicit full confidences. Returns the number of judgments accepted.
func driveSession(base string, spec service.SessionSpec, gt oracle.Oracle) (int, error) {
	want, err := referenceTranscript(spec, gt)
	if err != nil {
		return 0, fmt.Errorf("batch reference: %w", err)
	}
	client := &http.Client{Timeout: 90 * time.Second}
	id, err := createSession(client, base, spec)
	if err != nil {
		return 0, err
	}
	answered := 0
	for tries := 0; tries < 8000; tries++ {
		resp, err := client.Get(base + "/v1/sessions/" + id + "/queries?wait=20s")
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusRequestTimeout, http.StatusTooManyRequests,
			http.StatusConflict, http.StatusServiceUnavailable, http.StatusBadGateway:
			sleepRetry(resp, 50*time.Millisecond)
			continue
		default:
			return answered, fmt.Errorf("queries %s: %d %s", id, resp.StatusCode, raw)
		}
		var qr queriesResp
		if err := json.Unmarshal(raw, &qr); err != nil {
			return answered, fmt.Errorf("decode queries %q: %w", raw, err)
		}
		switch qr.State {
		case "awaiting_answer":
			// Judge the whole round back-to-front. Confidence alternates
			// between omitted and an explicit 1 — the two spellings of
			// full confidence must be interchangeable.
			items := make([]map[string]any, 0, len(qr.Queries))
			for i := len(qr.Queries) - 1; i >= 0; i-- {
				q := qr.Queries[i]
				item := map[string]any{
					"seq":  q.Seq,
					"pref": prefWord(gt.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))),
				}
				if i%2 == 0 {
					item["confidence"] = 1.0
				}
				items = append(items, item)
			}
			jb, _ := json.Marshal(map[string]any{"judgments": items})
			jr, err := client.Post(base+"/v1/sessions/"+id+"/judgments", "application/json", bytes.NewReader(jb))
			if err != nil {
				time.Sleep(100 * time.Millisecond)
				continue
			}
			jraw, _ := io.ReadAll(jr.Body)
			jr.Body.Close()
			// Even a failed batch may have applied a prefix (each judgment
			// journals independently); count what the server accepted and
			// re-fetch the open remainder of the round.
			var jresp struct {
				Accepted int `json:"accepted"`
			}
			if json.Unmarshal(jraw, &jresp) == nil {
				answered += jresp.Accepted
			}
			switch jr.StatusCode {
			case http.StatusAccepted:
			case http.StatusConflict, http.StatusTooManyRequests,
				http.StatusServiceUnavailable, http.StatusBadGateway:
				sleepRetry(jr, 50*time.Millisecond)
			default:
				return answered, fmt.Errorf("judgments %s: %d %s", id, jr.StatusCode, jraw)
			}
		case "done":
			got, err := fetchTranscript(client, base, id)
			if err != nil {
				return answered, err
			}
			if !bytes.Equal(got, want) {
				return answered, fmt.Errorf("session %s: transcript differs from batch run (%d vs %d bytes)",
					id, len(got), len(want))
			}
			// Verified; free the slot. Finished sessions stay resident
			// (the run disables idle eviction), so without cleanup a
			// long run wedges on the daemons' max-sessions cap.
			return answered, deleteSession(client, base, id)
		case "failed":
			return answered, fmt.Errorf("session %s failed: %s", id, qr.Error)
		}
	}
	return answered, fmt.Errorf("session %s did not finish within the retry budget", id)
}

// referenceTranscript runs the spec to completion in-process — the
// single source of truth the fleet must reproduce.
func referenceTranscript(spec service.SessionSpec, gt oracle.Oracle) ([]byte, error) {
	res, err := service.BatchRun(spec, gt)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := core.Export(res).WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func createSession(client *http.Client, base string, spec service.SessionSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	for tries := 0; tries < 200; tries++ {
		resp, err := client.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusCreated:
			var st struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(raw, &st); err != nil {
				return "", err
			}
			return st.ID, nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusBadGateway:
			sleepRetry(resp, 100*time.Millisecond)
		default:
			return "", fmt.Errorf("create: %d %s", resp.StatusCode, raw)
		}
	}
	return "", errors.New("create: retry budget exhausted")
}

func fetchTranscript(client *http.Client, base, id string) ([]byte, error) {
	for tries := 0; tries < 400; tries++ {
		resp, err := client.Get(base + "/v1/sessions/" + id + "/transcript")
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return raw, nil
		case http.StatusConflict, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusBadGateway:
			sleepRetry(resp, 50*time.Millisecond)
		default:
			return nil, fmt.Errorf("transcript %s: %d %s", id, resp.StatusCode, raw)
		}
	}
	return nil, fmt.Errorf("transcript %s stayed busy", id)
}

// deleteSession removes a verified session so its slot frees up; a
// 404 means a concurrent migration's source cleanup already won.
func deleteSession(client *http.Client, base, id string) error {
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/sessions/"+id, nil)
	if err != nil {
		return err
	}
	for tries := 0; tries < 100; tries++ {
		resp, err := client.Do(req)
		if err != nil {
			time.Sleep(100 * time.Millisecond)
			continue
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusNoContent, http.StatusNotFound:
			return nil
		case http.StatusConflict, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusBadGateway:
			sleepRetry(resp, 50*time.Millisecond)
		default:
			return fmt.Errorf("delete %s: %d %s", id, resp.StatusCode, raw)
		}
	}
	return fmt.Errorf("delete %s: retry budget exhausted", id)
}

// sleepRetry honors an integer-seconds Retry-After header when present
// (the daemon sends one on 429 backpressure), else sleeps def.
func sleepRetry(resp *http.Response, def time.Duration) {
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if s, err := strconv.Atoi(ra); err == nil && s >= 0 {
			d := time.Duration(s) * time.Second
			if d > 2*time.Second {
				d = 2 * time.Second // the run is short; cap the wait
			}
			time.Sleep(d)
			return
		}
	}
	time.Sleep(def)
}

// ---------------------------------------------------------------------
// Post-run validation.

// checkMetrics scrapes the router's /metrics and requires the fleet
// instruments to be visible; every admin migration the router
// confirmed must be reflected in fleet_migrations_total, and a run
// with permanent kills must have adopted at least one session.
func checkMetrics(base string, migrateOK, deadKills int) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	text := string(raw)
	required := []string{
		"fleet_members",
		"fleet_member_unhealthy",
		"fleet_proxied_requests_total",
		"fleet_migrations_total",
		"fleet_adoptions_total",
	}
	for _, name := range required {
		if !strings.Contains(text, name) {
			return fmt.Errorf("/metrics is missing %s", name)
		}
	}
	migrations := metricValue(text, "fleet_migrations_total")
	adoptions := metricValue(text, "fleet_adoptions_total")
	unhealthy := metricValue(text, "fleet_member_unhealthy")
	fmt.Printf("synthload: metrics — fleet_migrations_total=%g fleet_adoptions_total=%g fleet_member_unhealthy=%g\n",
		migrations, adoptions, unhealthy)
	if migrations < float64(migrateOK) {
		return fmt.Errorf("router confirmed %d admin migrations but fleet_migrations_total is %g", migrateOK, migrations)
	}
	if deadKills > 0 && adoptions < 1 {
		return fmt.Errorf("%d members were killed for good but fleet_adoptions_total is %g", deadKills, adoptions)
	}
	return nil
}

// checkMemberMetrics scrapes each surviving member's /metrics and
// requires the daemon half of the replication instruments
// (fleet_replication_lag_seconds) to be exposed.
func checkMemberMetrics(f *fleetHarness, dead *memberProc) error {
	scraped := 0
	for _, m := range f.members {
		if m == dead {
			continue
		}
		resp, err := http.Get(m.url + "/metrics")
		if err != nil {
			continue // mid-disruption stragglers are not the assertion here
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(raw), "fleet_replication_lag_seconds") {
			return fmt.Errorf("member %s /metrics is missing fleet_replication_lag_seconds", m.name)
		}
		scraped++
	}
	if scraped == 0 {
		return errors.New("no member /metrics endpoint was scrapeable")
	}
	fmt.Printf("synthload: %d members expose fleet_replication_lag_seconds\n", scraped)
	return nil
}

func metricValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
				if err == nil {
					return v
				}
			}
		}
	}
	return 0
}

// validateLogs requires every line of every structured log file
// (daemon incarnations and the router) to be well-formed JSON.
func validateLogs(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("no log files under %s", dir)
	}
	total := 0
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range bytes.Split(raw, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			if !json.Valid(line) {
				return fmt.Errorf("%s line %d is not valid JSON: %.120s", filepath.Base(path), i+1, line)
			}
			total++
		}
	}
	fmt.Printf("synthload: %d JSON log lines across %d files, all well-formed\n", total, len(files))
	return nil
}
