package main

// The closed-loop session client: an architect who waits for each
// round, judges it with the hidden target, and answers. It speaks the
// batched round API over HTTP (fleet and restart workloads); table1.go
// drives the same loop in-process through core.Stepper.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
	"compsynth/internal/service"
	"compsynth/internal/solver"
)

// sessionRun is what one session produced, as the client saw it.
type sessionRun struct {
	pass, idx int // pass number and pool index
	seed      int64
	id        string

	start, end time.Time
	// rounds are latencies (ms) from the request that closed a round,
	// or from create for the first round, to the next round or the
	// terminal state being read. Transitions inside the initial
	// ranking are left out (see phaseTracker).
	rounds []float64
	// acks are judgment POST round trips (ms); in-process, AnswerSeq.
	acks []float64
	// allRounds counts every round; solverRounds and solverQueries
	// only those after the initial ranking.
	allRounds, solverRounds, solverQueries int

	answers    int // judgments over the session's life
	posted     int // judgments this run sent
	iterations int
	failed     bool   // the session ended in the failed state
	failure    string // its error
	final      []float64
	effort     *solver.StatsSnapshot
	transcript []byte // fetched for checked sessions only
	err        error  // a client error: the session could not be driven
}

func (r *sessionRun) seconds() float64 { return r.end.Sub(r.start).Seconds() }

// phaseTracker tells the initial ranking's rounds from solver rounds.
// The ranking shows only the session's initial random scenarios, one
// pair per round, and needs no solver step; every later round comes
// from a synthesis step and introduces scenarios never shown before.
type phaseTracker struct {
	limit   int // initial scenarios ranked before the first iteration
	initial [][]float64
	solver  bool
}

// ranking reports whether a round of queries belongs to the initial
// ranking, updating the tracker.
func (p *phaseTracker) ranking(pairs [][2][]float64) bool {
	if p.solver {
		return false
	}
	if len(pairs) != 1 {
		p.solver = true
		return false
	}
	var fresh [][]float64
	for _, sc := range pairs[0] {
		if !p.seen(sc) && !containsScenario(fresh, sc) {
			fresh = append(fresh, sc)
		}
	}
	if len(p.initial)+len(fresh) > p.limit {
		p.solver = true
		return false
	}
	p.initial = append(p.initial, fresh...)
	return true
}

func (p *phaseTracker) seen(sc []float64) bool { return containsScenario(p.initial, sc) }

func containsScenario(set [][]float64, sc []float64) bool {
	for _, s := range set {
		if len(s) == len(sc) {
			same := true
			for i := range s {
				if s[i] != sc[i] {
					same = false
					break
				}
			}
			if same {
				return true
			}
		}
	}
	return false
}

func prefWord(p oracle.Preference) string {
	switch p {
	case oracle.PrefersFirst:
		return "first"
	case oracle.PrefersSecond:
		return "second"
	}
	return "tie"
}

// sessionClient drives sessions against one base URL.
type sessionClient struct {
	base   string
	client *http.Client
	rec    *recorder
	user   oracle.Oracle
	// batched answers a whole round in one POST; otherwise each
	// judgment gets its own POST.
	batched bool
	reqSeq  atomic.Int64
}

// newSessionClient builds a client whose client holds at most conns
// connections to the system under test.
func newSessionClient(base string, conns int, rec *recorder, user oracle.Oracle, batched bool) *sessionClient {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = conns
	tr.MaxIdleConnsPerHost = conns
	var rt http.RoundTripper = tr
	if rec != nil {
		rt = &spanTransport{rec: rec, layer: layerClient, next: tr}
	}
	return &sessionClient{base: base, client: &http.Client{Transport: rt}, rec: rec, user: user, batched: batched}
}

// retryable statuses: backpressure, a step in flight, drain.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusConflict ||
		status == http.StatusServiceUnavailable || status == http.StatusBadGateway ||
		status == http.StatusRequestTimeout
}

// call sends one request with a fresh X-Request-Id, retrying retryable
// statuses a bounded number of times, and decodes a 2xx body into out.
func (d *sessionClient) call(method, path string, body any, out any) ([]byte, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest(method, d.base+path, bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("X-Request-Id", "b"+strconv.FormatInt(d.reqSeq.Add(1), 10))
		resp, err := d.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, path, err)
		}
		switch {
		case resp.StatusCode >= 200 && resp.StatusCode < 300:
			if out != nil {
				if err := json.Unmarshal(raw, out); err != nil {
					return nil, fmt.Errorf("%s %s: decode: %w", method, path, err)
				}
			}
			return raw, nil
		case retryable(resp.StatusCode) && attempt < 100:
			time.Sleep(20 * time.Millisecond)
		default:
			return nil, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
		}
	}
}

type roundDoc struct {
	State   string `json:"state"`
	Queries []struct {
		Seq int       `json:"seq"`
		A   []float64 `json:"a"`
		B   []float64 `json:"b"`
	} `json:"queries"`
	Final []float64 `json:"final"`
	Error string    `json:"error"`
}

type judgment struct {
	Seq  int    `json:"seq"`
	Pref string `json:"pref"`
}

// judge asks the hidden target, recording the compare when tracing.
func judge(rec *recorder, user oracle.Oracle, a, b []float64) oracle.Preference {
	if rec == nil {
		return user.Compare(scenario.Scenario(a), scenario.Scenario(b))
	}
	start := time.Now()
	p := user.Compare(scenario.Scenario(a), scenario.Scenario(b))
	rec.record(layerOracle, "compare", "", "", start, time.Now(), 0)
	return p
}

// drive runs one session from create to its terminal state. With a nil
// spec the session already exists (restart: it was recovered from a
// journal) and the run starts at its first poll. The error is a client
// error: the session could not be driven.
func (d *sessionClient) drive(r *sessionRun, spec *service.SessionSpec, checked bool) error {
	base := "/v1/sessions/" + r.id
	r.start = time.Now()
	if spec != nil {
		if _, err := d.call(http.MethodPost, "/v1/sessions", spec, nil); err != nil {
			return err
		}
	}
	phase := phaseTracker{limit: initialScenarios}
	roundStart := r.start
	first := true
	for {
		var doc roundDoc
		if _, err := d.call(http.MethodGet, base+"/queries?wait=60s", nil, &doc); err != nil {
			return err
		}
		read := time.Now()
		ms := float64(read.Sub(roundStart)) / 1e6
		if doc.State != "awaiting_answer" {
			r.end = read
			r.rounds = append(r.rounds, ms)
			switch doc.State {
			case "done":
				r.final = doc.Final
			case "failed":
				r.failed, r.failure = true, doc.Error
			default:
				return fmt.Errorf("session %s: unexpected state %q", r.id, doc.State)
			}
			break
		}
		if len(doc.Queries) == 0 {
			return fmt.Errorf("session %s: awaiting_answer with no queries", r.id)
		}
		pairs := make([][2][]float64, len(doc.Queries))
		for i, q := range doc.Queries {
			pairs[i] = [2][]float64{q.A, q.B}
		}
		r.allRounds++
		if !phase.ranking(pairs) {
			r.solverRounds++
			r.solverQueries += len(pairs)
			r.rounds = append(r.rounds, ms)
		} else if first {
			r.rounds = append(r.rounds, ms)
		}
		first = false
		js := make([]judgment, len(doc.Queries))
		for i, q := range doc.Queries {
			js[i] = judgment{Seq: q.Seq, Pref: prefWord(judge(d.rec, d.user, q.A, q.B))}
		}
		groups := [][]judgment{js}
		if !d.batched {
			groups = groups[:0]
			for i := range js {
				groups = append(groups, js[i:i+1])
			}
		}
		for _, g := range groups {
			sent := time.Now()
			var resp struct {
				Accepted int `json:"accepted"`
			}
			if _, err := d.call(http.MethodPost, base+"/judgments", map[string]any{"judgments": g}, &resp); err != nil {
				return err
			}
			if resp.Accepted != len(g) {
				return fmt.Errorf("session %s: %d of %d judgments accepted", r.id, resp.Accepted, len(g))
			}
			r.acks = append(r.acks, float64(time.Since(sent))/1e6)
			r.posted += len(g)
			roundStart = sent
		}
	}
	return d.finish(r, base, checked)
}

// finish collects the session's counters (and, for a checked session,
// its transcript) and deletes it, as a client done with it would.
func (d *sessionClient) finish(r *sessionRun, base string, checked bool) error {
	var st service.SessionStatus
	if _, err := d.call(http.MethodGet, base, nil, &st); err != nil {
		return err
	}
	r.iterations = int(st.Iterations)
	r.answers = st.Answers
	r.effort = st.SolverEffort
	if checked {
		raw, err := d.call(http.MethodGet, base+"/transcript", nil, nil)
		if err != nil && !(r.failed && strings.Contains(err.Error(), " 404 ")) {
			return err
		}
		r.transcript = raw
	}
	_, err := d.call(http.MethodDelete, base, nil, nil)
	if err != nil && strings.Contains(err.Error(), " 404 ") {
		err = nil
	}
	if err != nil {
		return err
	}
	if r.effort == nil {
		return errors.New("session " + r.id + ": status carries no solver effort")
	}
	return nil
}
