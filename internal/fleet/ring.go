package fleet

// Membership and placement: rendezvous (highest-random-weight) hashing
// over the healthy members, a /readyz health checker, and the watched
// member file. Rendezvous hashing was chosen over a token ring because
// the member counts here are small (units to tens of daemons) and it
// gives minimal disruption on membership change with no virtual-node
// bookkeeping: a session moves only if its top-scoring member is the
// one that changed.

import (
	"bufio"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// member is a Member plus its live serving state.
type member struct {
	Member
	// healthy mirrors the last /readyz probe (true = 200).
	healthy atomic.Bool
	// departed marks a member removed from the member file: excluded
	// from new placements and drained by migration, but still routable
	// for sessions pinned to it (finished sessions stay until deleted).
	departed atomic.Bool
	// failStreak counts consecutive failed probes; crossing
	// Config.FailoverAfter declares the member dead and triggers
	// failover adoption of its sessions (see armAdoption: adopting is
	// the latch held while a scan runs, rescan asks it to scan again).
	failStreak atomic.Int32
	adopting   atomic.Bool
	rescan     atomic.Bool
}

func (m *member) placeable() bool { return m.healthy.Load() && !m.departed.Load() }

// rendezvousScore is 64-bit FNV-1a over "memberName\x00sessionID".
// Deterministic across processes (no seed), so a restarted router
// computes the same placements.
func rendezvousScore(memberName, sessionID string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mix(memberName)
	h ^= 0
	h *= 1099511628211
	mix(sessionID)
	return h
}

// pick returns the highest-scoring member among candidates for the
// session, or nil when candidates is empty.
func pick(candidates []*member, sessionID string) *member {
	var best *member
	var bestScore uint64
	for _, m := range candidates {
		score := rendezvousScore(m.Name, sessionID)
		if best == nil || score > bestScore || (score == bestScore && m.Name < best.Name) {
			best, bestScore = m, score
		}
	}
	return best
}

// rank orders candidates by descending rendezvous score (name
// ascending on ties, matching pick). Rank 0 is the session's owner;
// ranks 1..R-1 are its replica set (DESIGN.md §16), so placement and
// replication derive from the same deterministic ordering.
func rank(candidates []*member, sessionID string) []*member {
	out := append([]*member(nil), candidates...)
	sort.Slice(out, func(i, j int) bool {
		si := rendezvousScore(out[i].Name, sessionID)
		sj := rendezvousScore(out[j].Name, sessionID)
		if si != sj {
			return si > sj
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// placeable returns the members eligible for new placements, in stable
// name order. Caller holds r.mu.
func (r *Router) placeableLocked() []*member {
	out := make([]*member, 0, len(r.members))
	for _, m := range r.memberOrder {
		if mm := r.members[m]; mm != nil && mm.placeable() {
			out = append(out, mm)
		}
	}
	return out
}

// healthLoop probes every member's /readyz each HealthInterval and
// maintains the fleet_member_unhealthy gauge. Probes run inline (the
// member counts are small and the timeout short).
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		r.checkHealth()
		r.sweepRoutes()
	}
}

// checkHealth probes each member once and records transitions.
func (r *Router) checkHealth() {
	r.mu.Lock()
	ms := make([]*member, 0, len(r.members))
	for _, m := range r.members {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	unhealthy := 0
	revived := false
	for _, m := range ms {
		ok := r.probe(m)
		was := m.healthy.Swap(ok)
		if was != ok {
			if ok {
				r.log.Info("fleet.member.healthy", "member", m.Name, "url", m.URL)
				// Anti-entropy (DESIGN.md §16): the member may have come
				// back with an empty disk, holding none of its standby
				// copies. Ordinary pushes only ride appends, so ask the
				// rest of the fleet to re-push every journal replicated
				// here — otherwise a later failover onto this member
				// would find nothing to adopt.
				if r.cfg.Replicas > 1 {
					r.wg.Add(1)
					go r.resyncFleet(m.Name)
					revived = true
				}
			} else {
				r.log.Warn("fleet.member.unhealthy", "member", m.Name, "url", m.URL)
			}
		}
		if ok {
			m.failStreak.Store(0)
			continue
		}
		unhealthy++
		// Crossing the failover threshold declares the member dead once
		// per outage: its sessions are adopted from their replica copies.
		// The streak keeps counting so the trigger cannot re-fire until
		// the member comes back healthy in between.
		streak := r.cfg.FailoverAfter
		if streak > 0 && r.cfg.Replicas > 1 && int(m.failStreak.Add(1)) == streak {
			r.armAdoption(m)
		}
	}
	// A member that came back may hold the only replica copy of a dead
	// member's session: that dead member's scan found nothing to adopt
	// while it was down, or is still running and has already surveyed
	// without it. Re-run the scan of every member still declared dead;
	// adoptFrom returns at once for a member with no routes left.
	if revived && r.cfg.FailoverAfter > 0 {
		for _, m := range ms {
			if !m.healthy.Load() && int(m.failStreak.Load()) >= r.cfg.FailoverAfter {
				r.armAdoption(m)
			}
		}
	}
	r.met.memberUnhealthy.Set(float64(unhealthy))
	r.met.members.Set(float64(len(ms)))
}

// probe is one /readyz round trip.
func (r *Router) probe(m *member) bool {
	req, err := http.NewRequest(http.MethodGet, m.URL+"/readyz", nil)
	if err != nil {
		return false
	}
	ctx, cancel := timeoutContext(r.stop, r.cfg.HealthTimeout)
	defer cancel()
	resp, err := r.client.Do(req.WithContext(ctx))
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// SetMembers replaces the member set (the watch loop's entry point; also
// handy for tests). Removed members are marked departed and their live
// sessions drained by migration in the background; a re-added departed
// member simply rejoins.
func (r *Router) SetMembers(ms []Member) error {
	seen := make(map[string]bool, len(ms))
	for _, m := range ms {
		if err := validateMember(m); err != nil {
			return err
		}
		if seen[m.Name] {
			return fmt.Errorf("fleet: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
	}
	var departed []*member
	r.mu.Lock()
	for _, m := range ms {
		if cur, ok := r.members[m.Name]; ok {
			cur.URL = m.URL
			if cur.departed.Swap(false) {
				r.log.Info("fleet.member.rejoin", "member", m.Name)
			}
			continue
		}
		nm := &member{Member: m}
		r.members[m.Name] = nm
		r.memberOrder = append(r.memberOrder, m.Name)
		r.log.Info("fleet.member.join", "member", m.Name, "url", m.URL)
	}
	for name, m := range r.members {
		if !seen[name] && !m.departed.Load() {
			m.departed.Store(true)
			departed = append(departed, m)
			r.log.Info("fleet.member.leave", "member", name)
		}
	}
	r.met.members.Set(float64(len(r.members)))
	r.mu.Unlock()
	// Probe immediately so placements (and the drains below) do not
	// wait a full health interval for new members to become eligible.
	r.checkHealth()
	for _, m := range departed {
		// Give each departure its own drain goroutine: the member is
		// still healthy (administrative leave), so its live sessions can
		// move; finished sessions stay pinned to it until deleted.
		r.wg.Add(1)
		go r.drainMember(m)
	}
	return nil
}

func validateMember(m Member) error {
	if m.Name == "" {
		return fmt.Errorf("fleet: member with empty name")
	}
	u, err := url.Parse(m.URL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("fleet: member %q has invalid URL %q", m.Name, m.URL)
	}
	return nil
}

// Members reports the member set for the admin API.
type MemberStatus struct {
	Member
	Healthy  bool `json:"healthy"`
	Departed bool `json:"departed,omitempty"`
}

func (r *Router) Members() []MemberStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MemberStatus, 0, len(r.members))
	for _, name := range r.memberOrder {
		m := r.members[name]
		if m == nil {
			continue
		}
		out = append(out, MemberStatus{Member: m.Member, Healthy: m.healthy.Load(), Departed: m.departed.Load()})
	}
	return out
}

// watchLoop polls the member file for changes by (mtime, size) and
// applies them via SetMembers.
func (r *Router) watchLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.WatchInterval)
	defer t.Stop()
	var lastMod time.Time
	var lastSize int64
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
		}
		st, err := os.Stat(r.cfg.MemberFile)
		if err != nil {
			continue // transient (editor replace); keep the last good set
		}
		if st.ModTime().Equal(lastMod) && st.Size() == lastSize {
			continue
		}
		ms, err := ReadMemberFile(r.cfg.MemberFile)
		if err != nil {
			r.log.Warn("fleet.memberfile.error", "path", r.cfg.MemberFile, "error", err.Error())
			continue
		}
		lastMod, lastSize = st.ModTime(), st.Size()
		if err := r.SetMembers(ms); err != nil {
			r.log.Warn("fleet.memberfile.reject", "path", r.cfg.MemberFile, "error", err.Error())
		}
	}
}

// ReadMemberFile parses a membership file: one "name url" pair per
// line, blank lines and '#' comments ignored.
func ReadMemberFile(path string) ([]Member, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ms []Member
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("fleet: %s:%d: want \"name url\", got %q", path, lineNo, line)
		}
		ms = append(ms, Member{Name: fields[0], URL: strings.TrimSuffix(fields[1], "/")})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ms, nil
}
