// Package fleet shards compsynthd into a multi-node synthesis tier: a
// session-routing reverse proxy (cmd/compsynth-router) in front of N
// compsynthd processes. Sessions are placed by rendezvous hashing over
// the healthy members, every /v1 session route is forwarded to the
// owning daemon with the correlation headers (X-Request-Id,
// Traceparent) preserved end-to-end, and sessions move between members
// by live migration: drain the session's traffic at the router, export
// its migration bundle (spec + journal + partial transcript) from the
// old owner, rebuild it on the new owner by deterministic replay of the
// journal, then flip the routing entry. Migration is triggered by the
// admin API (POST /v1/admin/migrate) and automatically when a member
// leaves the watched member file while still healthy. Replay keeps
// fleet transcripts bit-identical to single-process batch runs (the
// invariance cmd/synthload asserts under chaos).
//
// Sessions are replicated for failover (DESIGN.md §16): at create time
// the router injects a replica set — the next Replicas-1 members in
// the session's rendezvous ranking — into the spec, and the owning
// daemon pushes every fsynced journal record to those members before
// confirming the triggering request. When the health checker sees an
// owner fail FailoverAfter consecutive probes, the router drains the
// dead owner's routes and adopts each session on the best surviving
// replica copy (highest epoch, then most records, then rendezvous
// rank): losing copies are fenced at the new epoch, the winner replays
// its copy through the deterministic-replay restore path, and the
// route flips. Epoch fencing makes the old owner a zombie — any later
// push it attempts is rejected and it destroys its stale copy.
//
// Failure handling in one line each: an unhealthy member's sessions
// fail over to their replicas after FailoverAfter missed probes (and
// until then answer 502/503, which well-behaved clients retry), a
// departed-but-healthy member is drained by migration, and a router
// restart recovers the routing table lazily by probing members for
// sessions it cannot place — including, as a last resort, adopting
// from a surviving replica copy when no member owns the session.
package fleet

import (
	"net/http"
	"time"

	"compsynth/internal/obs"
)

// Member is one compsynthd process in the fleet.
type Member struct {
	// Name is the stable identity rendezvous hashing scores; changing a
	// member's name reshuffles the sessions it would be assigned.
	Name string `json:"name"`
	// URL is the member's base URL (scheme://host:port).
	URL string `json:"url"`
}

// Config tunes the router.
type Config struct {
	// Members seeds the member set. With MemberFile set the file wins
	// as soon as it is first read.
	Members []Member
	// MemberFile, when non-empty, is a watched membership file: one
	// "name url" pair per line ('#' comments). Removing a line while
	// the member is healthy triggers automatic drain-by-migration of
	// its live sessions; adding a line joins the member for new
	// placements.
	MemberFile string
	// WatchInterval is the member-file poll period (default 1s).
	WatchInterval time.Duration
	// HealthInterval is the /readyz probe period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one health probe (default 2s).
	HealthTimeout time.Duration
	// MigrateTimeout bounds one migration end to end, drain included
	// (default 60s).
	MigrateTimeout time.Duration
	// DrainRetry is the backoff between bundle-export attempts while
	// the old owner's session is mid-step (default 50ms; the daemon's
	// Retry-After, when longer, wins).
	DrainRetry time.Duration
	// WarmInterval is ignored; kept for bench/.
	WarmInterval int
	// RouteTTL evicts routing entries untouched for this long; the
	// probe path rebuilds them on demand (default 1h).
	RouteTTL time.Duration
	// Replicas is the total number of journal copies per session, owner
	// included: the router injects the next Replicas-1 members of the
	// session's rendezvous ranking as its replica set at create time
	// (default 2; 1 disables replication and failover adoption).
	Replicas int
	// FailoverAfter is how many consecutive failed health probes
	// declare an owner dead and trigger failover adoption of its
	// sessions (default 2; <0 disables the automatic trigger — the
	// probe-on-miss adoption fallback still works).
	FailoverAfter int
	// Obs receives fleet metrics and spans (nil disables).
	Obs *obs.Observer
	// Log receives structured operational events (nil disables).
	Log *obs.Logger
	// Client is the HTTP client used for proxying and control calls
	// (nil builds one with sane keep-alive defaults and no global
	// timeout — long-polls are bounded by the inbound request's
	// context).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.WatchInterval <= 0 {
		c.WatchInterval = time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.MigrateTimeout <= 0 {
		c.MigrateTimeout = 60 * time.Second
	}
	if c.DrainRetry <= 0 {
		c.DrainRetry = 50 * time.Millisecond
	}
	if c.RouteTTL <= 0 {
		c.RouteTTL = time.Hour
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.FailoverAfter == 0 {
		c.FailoverAfter = 2
	}
	if c.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 32
		c.Client = &http.Client{Transport: tr}
	}
	return c
}
