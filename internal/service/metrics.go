package service

import (
	"compsynth/internal/obs"
)

// metrics is the service-layer instrument set. Built over a nil
// registry every field is a nil instrument whose methods are no-ops, so
// an unobserved manager pays nothing (the obs package's contract).
type metrics struct {
	active    *obs.Gauge
	created   *obs.Counter
	recovered *obs.Counter
	evicted   *obs.Counter
	finished  *obs.Counter
	failed    *obs.Counter

	queries     *obs.Counter
	answers     *obs.Counter
	rejected    *obs.Counter
	saturated   *obs.Counter
	stepSeconds *obs.Histogram
	// replaySeconds times each session rebuilt from its journal: at
	// startup, on lazy reload, on restore and on adopt.
	replaySeconds *obs.Histogram

	bundles  *obs.Counter
	restored *obs.Counter

	// Replication & failover (DESIGN.md §16). replLag carries the fleet_
	// prefix because it is the per-member half of the fleet-level HA
	// story the router's adoption counters complete.
	replLag        *obs.Histogram
	replDegraded   *obs.Counter
	replicaRecords *obs.Counter
	adopted        *obs.Counter
	fenced         *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		active: reg.Gauge("compsynthd_sessions_active",
			"Live synthesis sessions resident in memory."),
		created: reg.Counter("compsynthd_sessions_created_total",
			"Sessions created via the API."),
		recovered: reg.Counter("compsynthd_sessions_recovered_total",
			"Sessions rebuilt from journals (startup recovery or lazy reload)."),
		evicted: reg.Counter("compsynthd_sessions_evicted_total",
			"Sessions dropped from memory by the idle TTL (reloaded from their journals on demand)."),
		finished: reg.Counter("compsynthd_sessions_finished_total",
			"Sessions that completed (converged or hit the iteration cap)."),
		failed: reg.Counter("compsynthd_sessions_failed_total",
			"Sessions that ended in an error."),
		queries: reg.Counter("compsynthd_queries_total",
			"Distinguishing queries issued to clients."),
		answers: reg.Counter("compsynthd_answers_total",
			"Preference answers accepted and journaled."),
		rejected: reg.Counter("compsynthd_answers_rejected_total",
			"Answers rejected (no pending query or stale sequence number)."),
		saturated: reg.Counter("compsynthd_backpressure_total",
			"Requests rejected with 429 because the worker pool was saturated."),
		stepSeconds: reg.Histogram("compsynthd_step_seconds",
			"Per-step synthesis compute latency (answer accepted to next query).",
			obs.SecondsBuckets()),
		replaySeconds: reg.Histogram("compsynthd_replay_seconds",
			"Time to rebuild one session from its journal (read plus answer replay), finished sessions included.",
			obs.SecondsBuckets()),
		bundles: reg.Counter("compsynthd_migration_bundles_total",
			"Migration bundles exported (GET /v1/sessions/{id}/bundle)."),
		restored: reg.Counter("compsynthd_sessions_restored_total",
			"Sessions adopted from migrated journals (PUT /v1/sessions/{id}/restore)."),
		replLag: reg.Histogram("fleet_replication_lag_seconds",
			"Time to push a journal record to every replica (full-set acks only).",
			obs.SecondsBuckets()),
		replDegraded: reg.Counter("compsynthd_replication_degraded_total",
			"Journal appends confirmed with at least one replica unacknowledged."),
		replicaRecords: reg.Counter("compsynthd_replica_records_total",
			"Journal records accepted into standby replica copies."),
		adopted: reg.Counter("compsynthd_sessions_adopted_total",
			"Standby replica copies promoted to live sessions (failover)."),
		fenced: reg.Counter("compsynthd_sessions_fenced_total",
			"Local sessions abandoned because a higher epoch fenced them out."),
	}
}
