package fleet

// Failover adoption (DESIGN.md §16). When the health checker declares
// a member dead (Config.FailoverAfter consecutive failed probes), the
// router moves every session routed to it onto the best surviving
// replica copy. The protocol per session, in order:
//
//  1. gate the session's route (same drain gate as migration) so no
//     request is mid-flight across the flip;
//  2. survey the live members for their copy of the session's journal
//     (GET /v1/replica/sessions/{id}) and order the candidates: higher
//     epoch first, then more records, then rendezvous rank — a lagging
//     copy is never adopted while a fuller one exists;
//  3. pick the new epoch (max surveyed epoch + 1) and fence every
//     losing candidate at it (POST fence), so a copy that was passed
//     over can never later be promoted at a stale epoch;
//  4. adopt on the winner (POST adopt): the member fences its own copy
//     in the same atomic step that snapshots it, replays the records
//     through the deterministic-replay restore path, and re-replicates
//     to the replica set the router hands it (ranks of the surviving
//     members);
//  5. flip the route and reopen the gate.
//
// A winner whose replay fails is skipped — the next candidate is tried
// at the next epoch, so the failed copy (fenced by its own adoption
// attempt) stays unadoptable. The dead owner needs no step at all:
// epoch fencing makes it a zombie, and its first push after a
// resurrection is rejected, at which point it destroys its stale copy.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"compsynth/internal/service"
)

var errNoReplica = errors.New("fleet: no promotable replica copy")

// armAdoption asks for a failover scan of a dead member: it raises the
// member's rescan flag and starts adoptFrom unless a scan already holds
// the adopting latch, in which case that scan sees the flag and runs
// again before it lets go.
func (r *Router) armAdoption(m *member) {
	m.rescan.Store(true)
	if m.adopting.CompareAndSwap(false, true) {
		r.wg.Add(1)
		go r.adoptFrom(m)
	}
}

// adoptFrom holds dead's adopting latch and scans while its rescan flag
// is up. A flag raised after the last scan but before the latch is
// released found the latch taken, so adoptFrom takes the latch back
// and scans again rather than lose it.
func (r *Router) adoptFrom(dead *member) {
	defer r.wg.Done()
	for {
		for dead.rescan.Swap(false) {
			r.scanDead(dead)
		}
		dead.adopting.Store(false)
		if !dead.rescan.Load() || !dead.adopting.CompareAndSwap(false, true) {
			return
		}
	}
}

// scanDead adopts every session routed to a dead member. The scan
// aborts early if the member comes back healthy.
func (r *Router) scanDead(dead *member) {
	r.mu.Lock()
	var rts []*route
	for _, rt := range r.routes {
		rt.mu.Lock()
		if rt.owner == dead.Name {
			rts = append(rts, rt)
		}
		rt.mu.Unlock()
	}
	r.mu.Unlock()
	if len(rts) == 0 {
		return
	}
	sort.Slice(rts, func(i, j int) bool { return rts[i].id < rts[j].id })
	r.log.Warn("fleet.failover", "member", dead.Name, "sessions", len(rts))
	adopted := 0
	for _, rt := range rts {
		if dead.healthy.Load() {
			r.log.Info("fleet.failover.aborted", "member", dead.Name, "adopted", adopted)
			return
		}
		if err := r.adoptRoute(rt, dead.Name); err != nil {
			r.met.adoptionFailures.Inc()
			r.log.Warn("fleet.adopt.failed", "session", rt.id, "from", dead.Name, "error", err.Error())
			continue
		}
		adopted++
	}
	r.log.Info("fleet.failover.done", "member", dead.Name, "sessions", len(rts), "adopted", adopted)
}

// adoptRoute fails one routed session over from its dead owner.
func (r *Router) adoptRoute(rt *route, deadName string) error {
	// Gate the route exactly like migration does. In-flight requests to
	// a dead owner fail fast (connection refused), so the drain is quick.
	rt.mu.Lock()
	if rt.draining {
		rt.mu.Unlock()
		return fmt.Errorf("%w: %s", errMigrating, rt.id)
	}
	if rt.owner != deadName {
		rt.mu.Unlock()
		return nil // already moved (migration or a concurrent rescue)
	}
	rt.draining = true
	rt.unblocked = make(chan struct{})
	drained := make(chan struct{})
	if rt.inflight == 0 {
		close(drained)
	} else {
		rt.drained = drained
	}
	rt.mu.Unlock()

	start := time.Now()
	var winner *member
	defer func() {
		rt.mu.Lock()
		rt.draining = false
		rt.drained = nil
		if winner != nil {
			rt.owner = winner.Name
		}
		close(rt.unblocked)
		rt.mu.Unlock()
		if winner != nil {
			r.met.adoptions.Inc()
			r.met.adoptSeconds.Observe(time.Since(start).Seconds())
			r.log.Info("fleet.adopt", "session", rt.id, "from", deadName, "to", winner.Name,
				"dur_ms", time.Since(start).Seconds()*1e3)
		}
	}()

	dctx, cancel := timeoutContext(r.stop, r.cfg.MigrateTimeout)
	defer cancel()
	select {
	case <-drained:
	case <-dctx.Done():
		return fmt.Errorf("fleet: session %s: adopt drain: %w", rt.id, dctx.Err())
	}

	m, err := r.adoptSession(rt.id, deadName)
	if err != nil {
		return err
	}
	winner = m
	return nil
}

// adoptOrphan is the probe-on-miss fallback: no route, no owning
// member, but maybe a surviving replica copy. Returns the adopting
// member, nil when the session is genuinely unknown.
func (r *Router) adoptOrphan(id string) *member {
	m, err := r.adoptSession(id, "")
	if err != nil {
		if !errors.Is(err, errNoReplica) {
			r.met.adoptionFailures.Inc()
			r.log.Warn("fleet.adopt.failed", "session", id, "error", err.Error())
		}
		return nil
	}
	r.met.adoptions.Inc()
	r.log.Info("fleet.adopt", "session", id, "from", "(orphan)", "to", m.Name)
	return m
}

// resyncFleet asks every other healthy member to re-push the journals
// it replicates to name (POST /v1/replica/resync) — the anti-entropy
// broadcast, fired when name transitions back to healthy. A member
// that rejoined after losing its disk holds none of its standby
// copies, and ordinary pushes only ride appends, so sessions that had
// already finished would stay un-replicated there until a failover
// needed their copy and found nothing.
func (r *Router) resyncFleet(name string) {
	defer r.wg.Done()
	body, _ := json.Marshal(map[string]string{"member": name})
	r.mu.Lock()
	ms := make([]*member, 0, len(r.members))
	for _, order := range r.memberOrder {
		if m := r.members[order]; m != nil && m.Name != name && m.healthy.Load() {
			ms = append(ms, m)
		}
	}
	r.mu.Unlock()
	for _, m := range ms {
		ctx, cancel := timeoutContext(r.stop, r.cfg.MigrateTimeout)
		status, raw, err := r.do(ctx, http.MethodPost, m.URL+"/v1/replica/resync", body)
		cancel()
		if err != nil || status != http.StatusOK {
			detail := firstLine(raw)
			if err != nil {
				detail = err.Error()
			}
			r.log.Warn("fleet.resync.failed", "member", m.Name, "target", name,
				"status", status, "error", detail)
			continue
		}
		var res struct {
			Synced int `json:"synced"`
		}
		if json.Unmarshal(raw, &res) == nil && res.Synced > 0 {
			r.log.Info("fleet.resync", "member", m.Name, "target", name, "sessions", res.Synced)
		}
	}
}

// replicaCandidate is one surveyed copy.
type replicaCandidate struct {
	m       *member
	epoch   uint64
	records int
}

// adoptSession surveys, fences, and promotes — steps 2 through 4 of
// the protocol. exclude names the dead owner (skipped in the survey
// and in the new replica set); empty for the orphan path.
func (r *Router) adoptSession(id, exclude string) (*member, error) {
	r.mu.Lock()
	live := make([]*member, 0, len(r.members))
	for _, name := range r.memberOrder {
		if m := r.members[name]; m != nil && m.Name != exclude && m.healthy.Load() {
			live = append(live, m)
		}
	}
	r.mu.Unlock()

	// Survey: who holds a copy, at what epoch, how complete.
	var cands []replicaCandidate
	var maxEpoch uint64
	for _, m := range live {
		ctx, cancel := timeoutContext(r.stop, r.cfg.HealthTimeout)
		status, raw, err := r.do(ctx, http.MethodGet, m.URL+"/v1/replica/sessions/"+id, nil)
		cancel()
		if err != nil || status != http.StatusOK {
			continue
		}
		var st service.ReplicaStatus
		if json.Unmarshal(raw, &st) != nil {
			continue
		}
		if st.Records == 0 {
			continue // a fence tombstone, not a copy
		}
		cands = append(cands, replicaCandidate{m: m, epoch: st.Epoch, records: st.Records})
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("%w: %s", errNoReplica, id)
	}
	// Candidate order: epoch, then completeness, then rendezvous rank.
	ranked := rank(live, id)
	rankOf := make(map[string]int, len(ranked))
	for i, m := range ranked {
		rankOf[m.Name] = i
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].epoch != cands[j].epoch {
			return cands[i].epoch > cands[j].epoch
		}
		if cands[i].records != cands[j].records {
			return cands[i].records > cands[j].records
		}
		return rankOf[cands[i].m.Name] < rankOf[cands[j].m.Name]
	})

	epoch := maxEpoch + 1
	for attempt, cand := range cands {
		// Fence every other candidate first, so no copy passed over in
		// this round can be promoted at a stale epoch later.
		body, _ := json.Marshal(map[string]uint64{"epoch": epoch})
		for _, other := range cands {
			if other.m.Name == cand.m.Name {
				continue
			}
			ctx, cancel := timeoutContext(r.stop, r.cfg.HealthTimeout)
			r.do(ctx, http.MethodPost, other.m.URL+"/v1/replica/sessions/"+id+"/fence", body) //nolint:errcheck // best-effort; the winner's Take re-fences
			cancel()
		}
		// The promoted session re-replicates to the surviving members'
		// rendezvous ranking, winner excluded.
		var reps []Member
		for _, m := range ranked {
			if len(reps) == r.cfg.Replicas-1 {
				break
			}
			if m.Name != cand.m.Name {
				reps = append(reps, m.Member)
			}
		}
		adoptBody, err := json.Marshal(struct {
			Epoch    uint64   `json:"epoch"`
			Replicas []Member `json:"replicas,omitempty"`
		}{Epoch: epoch, Replicas: reps})
		if err != nil {
			return nil, err
		}
		ctx, cancel := timeoutContext(r.stop, r.cfg.MigrateTimeout)
		status, raw, err := r.do(ctx, http.MethodPost, cand.m.URL+"/v1/replica/sessions/"+id+"/adopt", adoptBody)
		cancel()
		if err == nil && status == http.StatusOK {
			return cand.m, nil
		}
		detail := firstLine(raw)
		if err != nil {
			detail = err.Error()
		}
		r.log.Warn("fleet.adopt.candidate", "session", id, "member", cand.m.Name,
			"attempt", attempt, "status", status, "error", detail)
		// The failed candidate's copy is fenced at epoch (its own Take did
		// that); the next attempt moves past it.
		epoch++
	}
	return nil, fmt.Errorf("fleet: session %s: every replica candidate failed to adopt", id)
}
