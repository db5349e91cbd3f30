package main

// Spans for the traced run. Every span is recorded by code in this
// package, at the boundary where a call enters a layer: the client's
// calls, the router's handler and outbound client, each member's
// handler and replica client, and (table1-batch) the stepper calls and
// oracle compares. Spans stay in memory until the run ends.
//
// Parents are resolved after the run. A span's parent is the innermost
// span of the layer above it that carries the same key and contains it
// in time. The key is the X-Request-Id the client stamps on every
// request (the router and daemon pass it on), except around replica
// pushes, which carry no request id: a push is linked to the owner's
// handler span for the same session that encloses it, and the replica
// member's handler span to the push that encloses it.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Layer names. They match the repository's modules, so a bench
// regression and a production slowdown name the same layer.
const (
	layerClient   = "client"     // the load generator's calls
	layerFleet    = "fleet"      // the router's handler
	layerFleetOut = "fleet.call" // the router's outbound requests
	layerService  = "service"    // a member's handler
	layerReplica  = "replica"    // a member's replica pushes
	layerCore     = "core"       // in-process stepper calls
	layerOracle   = "oracle"     // the generator's oracle compares
)

type span struct {
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	ReqID   string `json:"request_id,omitempty"`
	Session string `json:"session,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Status  int    `json:"status,omitempty"`
	// Parent indexes the enclosing span (-1 for a root); Self is the
	// span's duration minus the union of its children. Both are filled
	// by link.
	Parent int   `json:"parent"`
	Self   int64 `json:"self_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder collects spans. A nil recorder records nothing, which is how
// the untraced run pays no tracing cost.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant to the recorder's timeline.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// record adds a span that ran from start to end.
func (r *recorder) record(layer, name, reqID, session string, start, end time.Time, status int) {
	if r == nil {
		return
	}
	r.add(span{Layer: layer, Name: name, ReqID: reqID, Session: session,
		Start: r.at(start), End: r.at(end), Status: status})
}

// parentRule names, for a span, the layer its parent lives in and the
// key it is found by.
type parentRule struct {
	layer     string
	bySession bool
}

func parentRules(s *span) []parentRule {
	switch s.Layer {
	case layerFleet:
		return []parentRule{{layerClient, false}}
	case layerFleetOut:
		return []parentRule{{layerFleet, false}}
	case layerService:
		if strings.HasPrefix(s.Name, "PUT /v1/replica/") {
			return []parentRule{{layerReplica, true}}
		}
		return []parentRule{{layerFleetOut, false}, {layerClient, false}}
	case layerReplica:
		return []parentRule{{layerService, true}}
	}
	return nil
}

// link resolves every span's parent and self time.
func link(spans []span) {
	index := map[string][]int{}
	key := func(layer, k string) string { return layer + "\x00" + k }
	for i := range spans {
		s := &spans[i]
		s.Parent = -1
		if s.ReqID != "" {
			index[key(s.Layer, "r:"+s.ReqID)] = append(index[key(s.Layer, "r:"+s.ReqID)], i)
		}
		if s.Session != "" {
			index[key(s.Layer, "s:"+s.Session)] = append(index[key(s.Layer, "s:"+s.Session)], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		for _, rule := range parentRules(s) {
			k := "r:" + s.ReqID
			if rule.bySession {
				k = "s:" + s.Session
			}
			if k == "r:" || k == "s:" {
				continue
			}
			best := -1
			for _, j := range index[key(rule.layer, k)] {
				p := &spans[j]
				if j == i || p.Start > s.Start || p.End < s.End {
					continue
				}
				if best < 0 || p.Start > spans[best].Start {
					best = j
				}
			}
			if best >= 0 {
				s.Parent = best
				break
			}
		}
	}
	children := make([][][2]int64, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], [2]int64{spans[i].Start, spans[i].End})
		}
	}
	for i := range spans {
		spans[i].Self = selfTime(spans[i].Start, spans[i].End, children[i])
	}
}

// selfTime is the part of [start, end] that no child interval covers:
// the span minus the union of its children, so overlapping children
// (concurrent replica pushes, say) are not subtracted twice.
func selfTime(start, end int64, children [][2]int64) int64 {
	if end <= start {
		return 0
	}
	cs := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if hi > lo {
			cs = append(cs, [2]int64{lo, hi})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
	covered := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, c := range cs {
		if c[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = c[0], c[1]
			continue
		}
		curHi = max(curHi, c[1])
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return end - start - covered
}

// writeSpans dumps linked spans as JSON Lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routeName normalizes a request path to its route ("GET
// /v1/sessions/{id}/queries") and extracts the session id it names.
func routeName(method, path string) (name, session string) {
	parts := strings.Split(strings.TrimPrefix(path, "/"), "/")
	for i := 0; i+1 < len(parts); i++ {
		if parts[i] == "sessions" && parts[i+1] != "" {
			session = parts[i+1]
			parts[i+1] = "{id}"
			break
		}
	}
	return method + " /" + strings.Join(parts, "/"), session
}

// spanHandler records one span per request a handler serves.
func spanHandler(rec *recorder, layer string, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		name, session := routeName(r.Method, r.URL.Path)
		rec.record(layer, name, r.Header.Get("X-Request-Id"), session, start, time.Now(), sw.code())
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// spanTransport records one span per round trip, ending when the caller
// closes the response body, so reading the body is inside the span.
type spanTransport struct {
	rec   *recorder
	layer string
	next  http.RoundTripper
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	name, session := routeName(req.Method, req.URL.Path)
	reqID := req.Header.Get("X-Request-Id")
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.rec.record(t.layer, name, reqID, session, start, time.Now(), 0)
		return nil, err
	}
	status := resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
		t.rec.record(t.layer, name, reqID, session, start, time.Now(), status)
	}}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedClient builds an HTTP client whose transport records spans at
// layer (the plain transport when rec is nil).
func tracedClient(rec *recorder, layer string, maxIdlePerHost int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = maxIdlePerHost
	if rec == nil {
		return &http.Client{Transport: tr}
	}
	return &http.Client{Transport: &spanTransport{rec: rec, layer: layer, next: tr}}
}
