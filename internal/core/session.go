package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// Transcript is the serializable record of a synthesis session: the
// scenarios shown to the user, the preferences they expressed, and the
// synthesized result. Transcripts make sessions auditable ("why did
// the tool pick this objective?") and resumable — an architect can
// stop answering and continue later, and a recorded session can replay
// against a modified sketch.
type Transcript struct {
	// SessionID optionally names the serving-layer session this
	// transcript was exported from. Core never sets it (batch exports
	// stay byte-identical to historical ones); the service's migration
	// bundle stamps it so an import can refuse a transcript addressed
	// to a different session (a misrouted migration or tampered
	// bundle).
	SessionID string `json:"session_id,omitempty"`
	// SketchName, Holes and Metrics identify the sketch the session ran
	// against; Preload refuses a transcript recorded for a different
	// shape.
	SketchName string   `json:"sketch"`
	Holes      []string `json:"holes"`
	Metrics    []string `json:"metrics"`
	// Scenarios are the stored scenarios, indexed by ID.
	Scenarios [][]float64 `json:"scenarios"`
	// Preferences are [better, worse] ID pairs (direct graph edges).
	Preferences [][2]int `json:"preferences"`
	// Final is the synthesized hole vector (nil if the session did not
	// finish).
	Final []float64 `json:"final,omitempty"`
	// Converged and Iterations record the outcome.
	Converged  bool `json:"converged"`
	Iterations int  `json:"iterations"`
}

// Export renders a result as a transcript.
func Export(res *Result) *Transcript {
	t := &Transcript{
		Converged:  res.Converged,
		Iterations: res.Iterations,
	}
	if res.Final != nil {
		sk := res.Final.Sketch()
		t.SketchName = sk.Name()
		t.Holes = sk.Holes()
		t.Metrics = sk.Space().Names()
		t.Final = res.Final.Holes()
	}
	for _, s := range res.Store.All() {
		t.Scenarios = append(t.Scenarios, s)
	}
	for _, e := range res.Graph.Edges() {
		t.Preferences = append(t.Preferences, [2]int{e.Better, e.Worse})
	}
	return t
}

// WriteTo serializes the transcript as indented JSON.
func (t *Transcript) WriteTo(w io.Writer) (int64, error) {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("core: marshal transcript: %w", err)
	}
	data = append(data, '\n')
	n, err := w.Write(data)
	return int64(n), err
}

// ReadTranscript parses and validates a JSON transcript. Transcripts
// arrive over the network in the service layer, so everything is
// treated as untrusted: structural violations (mismatched shapes,
// out-of-range IDs, non-finite numbers) are errors, never panics. An
// unknown field is an error too: a document carrying a field this
// build does not read would otherwise resume a different session than
// the one it records.
func ReadTranscript(r io.Reader) (*Transcript, error) {
	var t Transcript
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("core: parse transcript: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Validate checks the transcript's internal structural invariants: all
// scenarios share one dimension (matching Metrics when present), every
// preference references a stored scenario, and all numbers are finite. It does not check agreement
// with any particular sketch — Preload does that against its own.
func (t *Transcript) Validate() error {
	dim := -1
	if len(t.Metrics) > 0 {
		dim = len(t.Metrics)
	}
	for i, sc := range t.Scenarios {
		if len(sc) == 0 {
			return fmt.Errorf("core: transcript scenario %d is empty", i)
		}
		if dim == -1 {
			dim = len(sc)
		}
		if len(sc) != dim {
			return fmt.Errorf("core: transcript scenario %d has %d metrics, want %d", i, len(sc), dim)
		}
		for j, v := range sc {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: transcript scenario %d metric %d is not finite", i, j)
			}
		}
	}
	n := len(t.Scenarios)
	for _, p := range t.Preferences {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return fmt.Errorf("core: transcript preference %v out of range [0,%d)", p, n)
		}
		if p[0] == p[1] {
			return fmt.Errorf("core: transcript preference %v is a self-loop", p)
		}
	}
	if t.Final != nil {
		if len(t.Holes) > 0 && len(t.Final) != len(t.Holes) {
			return fmt.Errorf("core: transcript final has %d holes, sketch declares %d", len(t.Final), len(t.Holes))
		}
		for i, v := range t.Final {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: transcript final hole %d is not finite", i)
			}
		}
	}
	if t.Iterations < 0 {
		return fmt.Errorf("core: transcript has negative iteration count %d", t.Iterations)
	}
	return nil
}

// Preload installs a transcript's scenarios and preferences into a
// fresh synthesizer, so a subsequent Run continues the recorded
// session instead of starting over. The transcript must match the
// synthesizer's sketch shape, and its preferences must be acyclic.
// Preload must be called before Run and skips the initial-scenario
// ranking (the transcript already contains the user's earlier answers).
func (s *Synthesizer) Preload(t *Transcript) error {
	if s.res != nil || s.graph.NumEdges() > 0 || s.store.Len() > 0 {
		return fmt.Errorf("core: Preload on a started or non-fresh synthesizer")
	}
	sk := s.cfg.Sketch
	if t.SketchName != "" && t.SketchName != sk.Name() {
		return fmt.Errorf("core: transcript for sketch %q, synthesizer has %q", t.SketchName, sk.Name())
	}
	if len(t.Holes) > 0 && !equalStrings(t.Holes, sk.Holes()) {
		return fmt.Errorf("core: transcript holes %v do not match sketch %v", t.Holes, sk.Holes())
	}
	if len(t.Metrics) > 0 && !equalStrings(t.Metrics, sk.Space().Names()) {
		return fmt.Errorf("core: transcript metrics %v do not match space %v", t.Metrics, sk.Space().Names())
	}
	// Re-intern scenarios; IDs may shift under deduplication, so keep a
	// translation table.
	ids := make([]int, len(t.Scenarios))
	for i, raw := range t.Scenarios {
		id, err := s.store.Add(scenario.Scenario(raw))
		if err != nil {
			return fmt.Errorf("core: transcript scenario %d: %w", i, err)
		}
		ids[i] = id
	}
	for _, pref := range t.Preferences {
		b, w := pref[0], pref[1]
		if b < 0 || b >= len(ids) || w < 0 || w >= len(ids) {
			return fmt.Errorf("core: transcript preference %v out of range", pref)
		}
		if err := s.graph.Add(ids[b], ids[w]); err != nil {
			return fmt.Errorf("core: transcript preference %v: %w", pref, err)
		}
	}
	if len(t.Final) == len(sk.Holes()) {
		s.addHints(t.Final)
	}
	// Edges were bulk-loaded into the graph; compile them into the
	// incremental system in one pass.
	s.rebuildSystem()
	s.preloaded = true
	return nil
}

func equalStrings(a, b []string) bool {
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

// Candidate materializes the transcript's final hole vector against a
// sketch (for replaying a finished session without re-running it).
func (t *Transcript) Candidate(sk *sketch.Sketch) (*sketch.Candidate, error) {
	if t.Final == nil {
		return nil, fmt.Errorf("core: transcript has no final candidate")
	}
	return sk.Candidate(t.Final)
}
