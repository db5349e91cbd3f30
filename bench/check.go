package main

// Output checks, run after the timed phase so they cost the
// measurement nothing:
//   - every checked session (pool index divisible by checkEvery) has a
//     transcript byte-identical to service.BatchRun of the same spec;
//   - every session that failed fails in its reference too;
//   - every completed session ranks probe pairs like the hidden target
//     at least agreementFloor of the time;
//   - every pass of a checked session produced the same transcript.
// Restart sessions resumed from a checkpoint are convergent, not
// bit-exact (DESIGN.md §9, §14), so they are held to the floor and to
// equality across their own cycles but not to the reference.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"

	"compsynth/internal/core"
	"compsynth/internal/oracle"
	"compsynth/internal/service"
)

const (
	agreementFloor = 0.9
	agreementPairs = 2000
)

type checkReport struct {
	agreement map[*sessionRun]float64
	problems  []string
	// failed counts sessions with a client error or a violated check.
	failed int
	// unsolved counts sessions that ended without a candidate exactly as
	// their reference did: the synthesizer's answer, not a fault.
	unsolved int
	digest   string
}

// agreement measures, like core.Validate, how often the synthesized
// objective orders probe pairs like the hidden target.
func agreement(w *workload, r *sessionRun) (float64, error) {
	cand, err := w.sketch.Candidate(r.final)
	if err != nil {
		return 0, err
	}
	pairs := oracle.RandomPairs(w.sketch.Space(), agreementPairs, rand.New(rand.NewSource(r.seed)))
	frac, _ := oracle.Agreement(oracle.NewGroundTruth(cand, 0), w.user, pairs)
	return frac, nil
}

type reference struct {
	transcript []byte
	err        error
}

func batchReference(w *workload, r *sessionRun) reference {
	res, err := service.BatchRun(w.spec(r.id, r.seed), w.user)
	if err != nil {
		return reference{err: err}
	}
	var buf bytes.Buffer
	if _, err := core.Export(res).WriteTo(&buf); err != nil {
		return reference{err: err}
	}
	return reference{transcript: buf.Bytes()}
}

// resumedFromCheckpoint reports whether a restart session came back
// from the graceful image.
func resumedFromCheckpoint(w *workload, r *sessionRun) bool {
	return w.name == "restart" && r.pass%2 == 1
}

// sessionKey names what a session run repeats: its pool index, and on
// restart which image it resumed from. Runs with equal keys must behave
// identically.
func sessionKey(w *workload, r *sessionRun) [2]int {
	kind := 0
	if resumedFromCheckpoint(w, r) {
		kind = 1
	}
	return [2]int{kind, r.idx}
}

func check(w *workload, runs []*sessionRun) *checkReport {
	rep := &checkReport{agreement: map[*sessionRun]float64{}}
	bad := map[*sessionRun]bool{}
	fail := func(r *sessionRun, format string, args ...any) {
		rep.problems = append(rep.problems, fmt.Sprintf("session %s (seed %d): ", r.id, r.seed)+fmt.Sprintf(format, args...))
		bad[r] = true
	}
	refs := map[int]reference{}
	// first transcript per (kind, index), for the cross-pass check.
	seen := map[[2]int][]byte{}
	for _, r := range runs {
		if r.err != nil {
			fail(r, "client: %v", r.err)
			continue
		}
		if !r.failed {
			a, err := agreement(w, r)
			if err != nil {
				fail(r, "final candidate: %v", err)
				continue
			}
			rep.agreement[r] = a
			if a < agreementFloor {
				fail(r, "agreement %.4f below the %.2f floor", a, agreementFloor)
			}
		}
		checked := r.idx%checkEvery == 0
		if !checked && !r.failed {
			continue
		}
		if checked {
			got := r.transcript
			if r.failed {
				got = []byte("failed: " + r.failure)
			}
			key := sessionKey(w, r)
			if prev, ok := seen[key]; !ok {
				seen[key] = got
			} else if !bytes.Equal(prev, got) {
				fail(r, "transcript differs from an earlier pass of the same session")
			}
		}
		if resumedFromCheckpoint(w, r) {
			continue
		}
		ref, ok := refs[r.idx]
		if !ok {
			ref = batchReference(w, r)
			refs[r.idx] = ref
		}
		switch {
		case r.failed && ref.err == nil:
			fail(r, "failed (%s) but the reference completed", r.failure)
		case !r.failed && ref.err != nil:
			fail(r, "completed but the reference failed: %v", ref.err)
		case checked && !r.failed && !bytes.Equal(r.transcript, ref.transcript):
			fail(r, "transcript differs from service.BatchRun (%d vs %d bytes)", len(r.transcript), len(ref.transcript))
		}
	}
	for _, r := range runs {
		if r.err == nil && r.failed && !bad[r] {
			rep.unsolved++
		}
	}
	rep.failed = len(bad)
	rep.digest = digest(seen)
	return rep
}

// digest hashes the first pass's checked transcripts in pool order; it
// must be identical between runs of the same code.
func digest(seen map[[2]int][]byte) string {
	keys := make([][2]int, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%d/%d %d\n", k[0], k[1], len(seen[k]))
		h.Write(seen[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}
