package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

func finishedResult(t *testing.T, seed int64) (*Result, Config) {
	t.Helper()
	cfg := fastConfig(t, seed)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg
}

func TestTranscriptRoundTrip(t *testing.T) {
	res, _ := finishedResult(t, 51)
	tr := Export(res)
	if tr.SketchName != "swan" || len(tr.Holes) != 4 || len(tr.Metrics) != 2 {
		t.Errorf("transcript header = %+v", tr)
	}
	if len(tr.Scenarios) != res.Store.Len() {
		t.Errorf("scenarios = %d, store = %d", len(tr.Scenarios), res.Store.Len())
	}
	if len(tr.Preferences) != res.Graph.NumEdges() {
		t.Errorf("preferences = %d, edges = %d", len(tr.Preferences), res.Graph.NumEdges())
	}
	if !tr.Converged || tr.Iterations != res.Iterations {
		t.Error("outcome fields wrong")
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"sketch\": \"swan\"") {
		t.Errorf("JSON missing sketch name:\n%s", buf.String())
	}
	back, err := ReadTranscript(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.SketchName != tr.SketchName || back.Iterations != tr.Iterations ||
		len(back.Scenarios) != len(tr.Scenarios) || len(back.Preferences) != len(tr.Preferences) {
		t.Error("round trip lost data")
	}
	cand, err := back.Candidate(sketch.SWAN())
	if err != nil {
		t.Fatal(err)
	}
	want := res.Final.Holes()
	got := cand.Holes()
	for i := range want {
		if got[i] != want[i] {
			t.Fatal("final candidate changed in round trip")
		}
	}
}

func TestReadTranscriptBadJSON(t *testing.T) {
	if _, err := ReadTranscript(strings.NewReader("{nope")); err == nil {
		t.Error("bad JSON accepted")
	}
}

// TestReadTranscriptRejectsTies pins that a transcript carrying a
// "ties" list, which this build would not replay, fails to load
// instead of resuming a session without those constraints; the same
// document without the list loads.
func TestReadTranscriptRejectsTies(t *testing.T) {
	const body = `{"sketch":"swan","metrics":["tp","l"],` +
		`"scenarios":[[1,2],[3,4]],"preferences":[[0,1]]%s}`
	if _, err := ReadTranscript(strings.NewReader(fmt.Sprintf(body, ""))); err != nil {
		t.Fatalf("transcript without ties rejected: %v", err)
	}
	_, err := ReadTranscript(strings.NewReader(fmt.Sprintf(body, `,"ties":[{"a":0,"b":1,"band":1}]`)))
	if err == nil || !strings.Contains(err.Error(), `"ties"`) {
		t.Errorf("transcript with ties: err = %v, want an unknown-field error naming \"ties\"", err)
	}
}

func TestTranscriptCandidateWithoutFinal(t *testing.T) {
	tr := &Transcript{}
	if _, err := tr.Candidate(sketch.SWAN()); err == nil {
		t.Error("empty final accepted")
	}
}

func TestPreloadResumesSession(t *testing.T) {
	res, cfg := finishedResult(t, 53)
	tr := Export(res)

	// Resume into a fresh synthesizer; it should converge quickly (the
	// transcript carries the full preference graph) and honor all
	// recorded preferences.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Preload(tr); err != nil {
		t.Fatal(err)
	}
	res2, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Error("resumed session did not converge")
	}
	if res2.Iterations > res.Iterations {
		t.Errorf("resumed session took %d iterations, original %d", res2.Iterations, res.Iterations)
	}
	for _, e := range res.Graph.Edges() {
		better, _ := res.Store.Get(e.Better)
		worse, _ := res.Store.Get(e.Worse)
		if res2.Final.Eval(better) <= res2.Final.Eval(worse) {
			t.Error("resumed result violates recorded preference")
		}
	}
}

func TestPreloadValidation(t *testing.T) {
	res, cfg := finishedResult(t, 57)
	tr := Export(res)

	// Non-fresh synthesizer.
	s, _ := New(cfg)
	if _, _, err := s.record(scenario.Scenario{5, 10}, scenario.Scenario{2, 100}, oracle.PrefersFirst); err != nil {
		t.Fatal(err)
	}
	if err := s.Preload(tr); err == nil {
		t.Error("Preload on dirty synthesizer accepted")
	}

	// Wrong sketch shape.
	s2, _ := New(cfg)
	bad := *tr
	bad.Holes = []string{"other"}
	if err := s2.Preload(&bad); err == nil {
		t.Error("mismatched holes accepted")
	}
	bad = *tr
	bad.SketchName = "different"
	if err := s2.Preload(&bad); err == nil {
		t.Error("mismatched sketch name accepted")
	}
	bad = *tr
	bad.Metrics = []string{"a", "b"}
	if err := s2.Preload(&bad); err == nil {
		t.Error("mismatched metrics accepted")
	}

	// Out-of-range preference index.
	bad = *tr
	bad.Preferences = append(append([][2]int{}, tr.Preferences...), [2]int{0, 9999})
	if err := s2.Preload(&bad); err == nil {
		t.Error("out-of-range preference accepted")
	}

	// Cyclic preferences.
	bad = *tr
	bad.Preferences = [][2]int{{0, 1}, {1, 0}}
	if err := s2.Preload(&bad); err == nil {
		t.Error("cyclic transcript accepted")
	}

	// Scenario outside the space.
	bad = *tr
	bad.Scenarios = append(append([][]float64{}, tr.Scenarios...), []float64{-5, 0})
	bad.Preferences = nil
	if err := s2.Preload(&bad); err == nil {
		t.Error("out-of-space scenario accepted")
	}
}
