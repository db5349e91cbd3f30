package core_test

// ReadTranscript is a network input path in the service layer
// (PUT /v1/sessions/{id}/transcript), so it must reject malformed
// documents with errors, never panics, and anything it accepts must
// survive Preload and a serialization round trip.

import (
	"bytes"
	"testing"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
)

// fuzzSeeds are hand-picked adversarial transcripts: each exercises a
// distinct validation path (shape mismatch, range violation, bad
// numerics, or plain broken JSON).
var fuzzSeeds = []string{
	// A well-formed minimal transcript.
	`{"sketch":"swan","holes":["tp_thrsh","l_thrsh","s1","s2"],
	  "metrics":["tp","l"],
	  "scenarios":[[1,2],[3,4]],
	  "preferences":[[0,1]],
	  "converged":true,"iterations":3}`,
	// Out-of-range preference IDs.
	`{"scenarios":[[1,2]],"preferences":[[0,7]]}`,
	`{"scenarios":[[1,2],[3,4]],"preferences":[[-1,0]]}`,
	// Self-loop preference.
	`{"scenarios":[[1,2],[3,4]],"preferences":[[1,1]]}`,
	// Mismatched scenario dimensions.
	`{"scenarios":[[1,2],[3]],"preferences":[]}`,
	`{"metrics":["tp","l"],"scenarios":[[1,2,3]]}`,
	// Empty scenario.
	`{"scenarios":[[]]}`,
	// Non-finite numbers (json won't produce them, but 1e999 overflows).
	`{"scenarios":[[1e999,2]]}`,
	// Unknown field "ties".
	`{"scenarios":[[1,2],[3,4]],"ties":[{"a":0,"b":9,"band":1}]}`,
	`{"scenarios":[[1,2],[3,4]],"ties":[{"a":0,"b":1,"band":0}]}`,
	`{"scenarios":[[1,2],[3,4]],"ties":[{"a":0,"b":1,"band":-2}]}`,
	// Final/holes shape mismatch.
	`{"holes":["a","b"],"final":[1,2,3]}`,
	// Negative iterations.
	`{"iterations":-4}`,
	// Broken JSON.
	`{"scenarios":[[1,2]`,
	`[]`,
	`null`,
	`"transcript"`,
	`{"preferences":[[0,1,2]]}`,
	`{"scenarios":"nope"}`,
}

func FuzzReadTranscript(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := core.ReadTranscript(bytes.NewReader(data))
		if err != nil {
			if tr != nil {
				t.Error("ReadTranscript returned both a transcript and an error")
			}
			return
		}
		// Accepted transcripts must re-validate after a round trip.
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo of accepted transcript: %v", err)
		}
		again, err := core.ReadTranscript(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted transcript failed: %v\ninput: %q", err, data)
		}
		if len(again.Scenarios) != len(tr.Scenarios) || len(again.Preferences) != len(tr.Preferences) {
			t.Errorf("round trip changed shape: %d/%d scenarios, %d/%d preferences",
				len(tr.Scenarios), len(again.Scenarios), len(tr.Preferences), len(again.Preferences))
		}
		// Preload against a real sketch must error or succeed — never
		// panic — whatever the transcript claims about its shape.
		synth, err := core.New(stepperConfigForFuzz())
		if err != nil {
			t.Fatal(err)
		}
		_ = synth.Preload(tr)
	})
}

// fuzzOracle satisfies config validation; Preload never queries it.
type fuzzOracle struct{}

func (fuzzOracle) Compare(a, b scenario.Scenario) oracle.Preference { return oracle.Indifferent }

func stepperConfigForFuzz() core.Config {
	cfg := stepperConfig(3)
	cfg.Oracle = fuzzOracle{}
	return cfg
}
