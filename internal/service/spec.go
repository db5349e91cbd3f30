// Package service is the serving layer over internal/core: it turns
// synthesis campaigns into addressable, resumable sessions behind an
// HTTP/JSON API (cmd/compsynthd). A network architect — human or
// scripted — drives a session interactively:
//
//	POST /v1/sessions                     create (pick sketch + options)
//	GET  /v1/sessions/{id}/queries        next round of scenario pairs (long-poll)
//	POST /v1/sessions/{id}/judgments      preferences / ties for the round
//	GET  /v1/sessions/{id}                status + result
//	GET  /v1/sessions/{id}/progress       live solver gauges
//	GET  /v1/sessions/{id}/transcript     export core.Transcript
//	PUT  /v1/sessions/{id}/transcript     import (resume a recording)
//	DELETE /v1/sessions/{id}              drop the session and its journal
//
// Under the API sits a session manager with a bounded worker pool (429
// backpressure when saturated), per-session serialization, idle-TTL
// eviction, and crash recovery: every accepted answer is appended to a
// per-session journal in the data directory, and on restart sessions
// are rebuilt from their journals by deterministic replay of every
// answer (on top of the imported transcript, for sessions begun by PUT
// transcript).
package service

import (
	"fmt"
	"strings"

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// SessionSpec is the client-supplied session configuration (the JSON
// body of POST /v1/sessions). It is stored verbatim in the session's
// journal, so recovery rebuilds the exact same core.Config.
type SessionSpec struct {
	// ID optionally names the session. The fleet router assigns
	// fleet-unique IDs at create time (and migration re-creates a
	// session under its original ID on the new owner); when empty the
	// daemon generates one. IDs are restricted to a filesystem-safe
	// charset because they name journal files, and creating an ID that
	// already exists (resident or journaled) is a 409 conflict.
	ID string `json:"id,omitempty"`
	// Sketch names a built-in sketch ("swan", the default). Exclusive
	// with SpecText.
	Sketch string `json:"sketch,omitempty"`
	// SpecText is an inline sketch spec (the sketch.ParseSpec format)
	// for custom objective grammars.
	SpecText string `json:"spec,omitempty"`
	// Seed drives all session randomness; equal (spec, answers) pairs
	// yield bit-identical sessions.
	Seed int64 `json:"seed"`
	// InitialScenarios, PairsPerIteration, and MaxIterations mirror
	// core.Config (zero selects the paper defaults; InitialScenarios<0
	// means none).
	InitialScenarios  int `json:"initial_scenarios,omitempty"`
	PairsPerIteration int `json:"pairs_per_iteration,omitempty"`
	MaxIterations     int `json:"max_iterations,omitempty"`
	// Solver and Distinguish override individual search-budget knobs;
	// omitted fields keep the solver defaults.
	Solver      *SolverSpec      `json:"solver,omitempty"`
	Distinguish *DistinguishSpec `json:"distinguish,omitempty"`
	// Replicas names the members that hold standby copies of this
	// session's journal (the fleet router injects the set at create
	// time; see DESIGN.md §16). Every record appended to the owner's
	// journal is pushed to each replica before the triggering request is
	// confirmed. Replication never touches the solver configuration, so
	// a replicated session's transcript is bit-identical to an
	// unreplicated one.
	Replicas []ReplicaTarget `json:"replicas,omitempty"`
	// Epoch is the session's fencing epoch: 0 at creation, bumped by
	// every failover adoption. Replica members reject appends carrying
	// an epoch older than the one they last saw, which is what stops a
	// zombie ex-owner from corrupting the replicated history.
	Epoch uint64 `json:"epoch,omitempty"`
}

// ReplicaTarget is one member of a session's replica set.
type ReplicaTarget struct {
	// Name is the member's stable fleet identity.
	Name string `json:"name"`
	// URL is the member's base URL (scheme://host:port).
	URL string `json:"url"`
}

// SolverSpec overrides solver.Options fields (zero keeps the default).
type SolverSpec struct {
	Samples        int `json:"samples,omitempty"`
	RepairRestarts int `json:"repair_restarts,omitempty"`
	RepairSteps    int `json:"repair_steps,omitempty"`
	MaxBoxes       int `json:"max_boxes,omitempty"`
	// Workers is accepted only as 0 or 1, the sequential sampling and
	// repair search that every session runs; larger values are
	// rejected. The field stays because bench/ sets it to 1.
	Workers int `json:"workers,omitempty"`
	// PruneWorkers caps the branch-and-prune engine's worker pool. It
	// never affects results — prune verdicts are bit-identical for any
	// value — so the default (0: one worker per CPU) is right unless a
	// session must be confined for fairness.
	PruneWorkers int `json:"prune_workers,omitempty"`
	// Planner selects the active query planner: "on" (or empty, the
	// default) plans rounds of maximally informative queries; "off"
	// falls back to the seed's first-distinguishing-pair behavior,
	// bit-identical to pre-planner builds.
	Planner string `json:"planner,omitempty"`
	// PlannerCandidates sizes the candidate pool the planner scores
	// query pairs over (0 keeps the planner default).
	PlannerCandidates int `json:"planner_candidates,omitempty"`
	// PlannerMinSupport is the per-side support floor below which a
	// split is considered too lopsided to ask about (0 keeps the
	// planner default).
	PlannerMinSupport int `json:"planner_min_support,omitempty"`
}

// DistinguishSpec overrides solver.DistinguishOptions fields.
type DistinguishSpec struct {
	Candidates  int     `json:"candidates,omitempty"`
	PairSamples int     `json:"pair_samples,omitempty"`
	Gamma       float64 `json:"gamma,omitempty"`
}

// sketchFor resolves the spec's sketch.
func (sp *SessionSpec) sketchFor() (*sketch.Sketch, error) {
	if sp.SpecText != "" {
		if sp.Sketch != "" {
			return nil, fmt.Errorf("service: spec names both a built-in sketch %q and an inline spec", sp.Sketch)
		}
		sk, err := sketch.ParseSpec(strings.NewReader(sp.SpecText))
		if err != nil {
			return nil, fmt.Errorf("service: parse inline sketch spec: %w", err)
		}
		return sk, nil
	}
	switch strings.ToLower(sp.Sketch) {
	case "", "swan":
		return sketch.SWAN(), nil
	}
	return nil, fmt.Errorf("service: unknown sketch %q (built-ins: swan; or send an inline spec)", sp.Sketch)
}

// BatchRun runs a spec to completion in-process against the given
// oracle — the single-process reference whose transcript every service
// and fleet path must reproduce bit-identically. Exported for the fleet
// tests and the synthload chaos harness, which compare HTTP-driven
// transcripts against it.
func BatchRun(spec SessionSpec, user oracle.Oracle) (*core.Result, error) {
	cfg, err := spec.config(nil, &solver.Stats{})
	if err != nil {
		return nil, err
	}
	cfg.Oracle = user
	synth, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return synth.Run()
}

// config materializes a core.Config for a stepper, on a fresh sketch.
func (sp *SessionSpec) config(obsv *obs.Observer, stats *solver.Stats) (core.Config, error) {
	sk, err := sp.sketchFor()
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Sketch:            sk,
		Seed:              sp.Seed,
		InitialScenarios:  sp.InitialScenarios,
		PairsPerIteration: sp.PairsPerIteration,
		MaxIterations:     sp.MaxIterations,
		Obs:               obsv,
	}
	opts := solver.DefaultOptions()
	if s := sp.Solver; s != nil {
		if s.Samples > 0 {
			opts.Samples = s.Samples
		}
		if s.RepairRestarts > 0 {
			opts.RepairRestarts = s.RepairRestarts
		}
		if s.RepairSteps > 0 {
			opts.RepairSteps = s.RepairSteps
		}
		if s.MaxBoxes > 0 {
			opts.MaxBoxes = s.MaxBoxes
		}
		if s.Workers > 1 {
			return core.Config{}, fmt.Errorf("service: bad workers %d (sampling and repair are sequential; want 0 or 1)", s.Workers)
		}
		if s.PruneWorkers > 0 {
			opts.PruneWorkers = s.PruneWorkers
		}
		switch strings.ToLower(s.Planner) {
		case "", "on":
		case "off":
			cfg.DisablePlanner = true
		default:
			return core.Config{}, fmt.Errorf("service: bad planner %q (want on or off)", s.Planner)
		}
		if s.PlannerCandidates > 0 {
			cfg.Planner.Candidates = s.PlannerCandidates
		}
		if s.PlannerMinSupport > 0 {
			cfg.Planner.MinSupport = float64(s.PlannerMinSupport)
		}
	}
	opts.Stats = stats
	cfg.Solver = opts
	dopts := solver.DefaultDistinguishOptions()
	if d := sp.Distinguish; d != nil {
		if d.Candidates > 0 {
			dopts.Candidates = d.Candidates
		}
		if d.PairSamples > 0 {
			dopts.PairSamples = d.PairSamples
		}
		if d.Gamma > 0 {
			dopts.Gamma = d.Gamma
		}
	}
	cfg.Distinguish = dopts
	return cfg, nil
}

// validate rejects specs that cannot produce a session.
func (sp *SessionSpec) validate() error {
	if err := validateSessionID(sp.ID); err != nil {
		return err
	}
	for i, t := range sp.Replicas {
		if t.Name == "" || t.URL == "" {
			return fmt.Errorf("service: replica %d needs both a name and a url", i)
		}
	}
	_, err := sp.sketchFor()
	return err
}

// validateSessionID enforces the client-assigned session ID charset:
// 1–64 characters of [A-Za-z0-9._-], not starting with a dot. IDs name
// journal files, so the charset is exactly what is safe to embed in a
// filename on every platform (no separators, no hidden files).
func validateSessionID(id string) error {
	if id == "" {
		return nil // daemon generates one
	}
	if len(id) > 64 {
		return fmt.Errorf("service: session id longer than 64 bytes")
	}
	if id[0] == '.' {
		return fmt.Errorf("service: session id %q starts with a dot", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("service: session id %q contains %q (want [A-Za-z0-9._-])", id, c)
		}
	}
	return nil
}
