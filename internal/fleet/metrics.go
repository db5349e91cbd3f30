package fleet

import (
	"compsynth/internal/obs"
)

// metrics is the router's instrument set. Built over a nil registry
// every field is a nil instrument whose methods are no-ops, so an
// unobserved router pays nothing (the obs package's contract).
type metrics struct {
	members         *obs.Gauge
	memberUnhealthy *obs.Gauge

	proxied     *obs.Counter
	proxyErrors *obs.Counter
	probeRescue *obs.Counter

	migrations        *obs.Counter
	migrationFailures *obs.Counter
	migrateSeconds    *obs.Histogram

	adoptions        *obs.Counter
	adoptionFailures *obs.Counter
	adoptSeconds     *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		members: reg.Gauge("fleet_members",
			"Members currently in the routing set (departed included)."),
		memberUnhealthy: reg.Gauge("fleet_member_unhealthy",
			"Members whose last /readyz probe failed."),
		proxied: reg.Counter("fleet_proxied_requests_total",
			"Session API requests forwarded to a member."),
		proxyErrors: reg.Counter("fleet_proxy_errors_total",
			"Forwarded requests that failed at the transport (502 to the client)."),
		probeRescue: reg.Counter("fleet_probe_rescues_total",
			"Routing entries rebuilt by probing members (router restart or stale owner)."),
		migrations: reg.Counter("fleet_migrations_total",
			"Sessions migrated between members (admin-triggered or drain)."),
		migrationFailures: reg.Counter("fleet_migration_failures_total",
			"Migrations that aborted; the session stayed on its old owner."),
		migrateSeconds: reg.Histogram("fleet_migrate_seconds",
			"End-to-end migration latency, drain included.",
			obs.SecondsBuckets()),
		adoptions: reg.Counter("fleet_adoptions_total",
			"Sessions adopted from a replica copy after their owner died."),
		adoptionFailures: reg.Counter("fleet_adoption_failures_total",
			"Failover adoptions that found no promotable replica copy."),
		adoptSeconds: reg.Histogram("fleet_adopt_seconds",
			"End-to-end failover adoption latency per session.",
			obs.SecondsBuckets()),
	}
}
