// Package obs is the observability substrate of the repository: a
// concurrency-safe metrics registry (counters, gauges, histograms with
// fixed bucket layouts) plus a lightweight span tracer (trace.go) and
// an HTTP diagnostics edge (http.go) serving Prometheus text, expvar
// JSON, and pprof.
//
// The paper's whole evaluation is about *effort* — oracle queries,
// iterations, synthesis time — so effort must be measurable in a live
// process, not only in post-hoc result structs. Every layer of the
// stack (solver searches, the synthesis loop, experiment runs)
// registers instruments here when observability is enabled.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrument method is nil-safe: a
//     nil *Counter/*Gauge/*Histogram (what a nil *Registry hands out)
//     is a no-op that allocates nothing, so instrumented hot paths run
//     at full speed with observability off. Call sites that need a
//     clock sample additionally guard time.Now with their own nil
//     check so even the clock read disappears.
//  2. No perturbation of determinism. Instruments only read clocks and
//     bump atomics; they never touch an RNG, so synthesis transcripts
//     are bit-identical with observability on and off (pinned by the
//     golden-transcript tests in internal/core).
//  3. Standard library only, like the rest of the repository.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// atomicFloat is a float64 with atomic add/load via CAS on the bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counter is a monotonically increasing metric. The zero value is
// usable; a nil *Counter is a no-op.
type Counter struct {
	name, helpText string
	v              atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil *Gauge is a no-op.
type Gauge struct {
	name, helpText string
	v              atomicFloat
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add increments the gauge by v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.Add(v)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram (Prometheus
// semantics: bucket i counts observations ≤ bounds[i], plus an
// implicit +Inf bucket). A nil *Histogram is a no-op.
type Histogram struct {
	name, helpText string
	bounds         []float64 // sorted upper bounds, +Inf implicit
	counts         []atomic.Int64
	sum            atomicFloat
	count          atomic.Int64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, i.e. v ≤ bound
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveN records n identical observations of v in one shot — the
// bulk form for callers that tally per-batch (e.g. the solver's prune
// engine observing a whole frontier wave at one depth) without paying
// n bucket searches.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	h.count.Add(n)
	h.sum.Add(v * float64(n))
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// SecondsBuckets is the fixed bucket layout used for wall-clock timer
// histograms: 10µs up to 60s, roughly logarithmic. Solver searches sit
// in the µs–ms range, whole synthesis sessions in the 0.1–60s range,
// so one layout serves every timer in the stack.
func SecondsBuckets() []float64 {
	return []float64{
		1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 30, 60,
	}
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start with the given factor (> 1).
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// funcMetric is a read-through instrument: the value is produced by a
// callback at scrape time. It is how the registry exposes counters
// that already live elsewhere as atomics (solver.Stats) without adding
// a second write on hot paths.
type funcMetric struct {
	name, helpText, typ string
	fn                  func() float64
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use, and all
// getters are nil-safe: a nil *Registry hands out nil instruments,
// whose methods are no-ops — the zero-cost-when-disabled contract.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]*funcMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		funcs:      make(map[string]*funcMetric),
	}
}

// checkName panics on names outside the Prometheus metric-name grammar
// — instrument names are compile-time constants, so this is a
// programmer error, not an input error.
func checkName(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", name))
		}
	}
}

// taken reports whether the name is already registered to a different
// instrument kind.
func (r *Registry) taken(name, kind string) {
	if _, ok := r.counters[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %s already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %s already registered as a gauge", name))
	}
	if _, ok := r.histograms[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %s already registered as a histogram", name))
	}
	if _, ok := r.funcs[name]; ok && kind != "func" {
		panic(fmt.Sprintf("obs: %s already registered as a func metric", name))
	}
}

// Counter returns the named counter, creating it on first use.
// Repeated calls with the same name return the same counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.taken(name, "counter")
	c := &Counter{name: name, helpText: help}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	checkName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.taken(name, "gauge")
	g := &Gauge{name: name, helpText: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds (sorted ascending; +Inf is implicit).
// The bucket layout of an existing histogram is kept.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	checkName(name)
	if len(buckets) == 0 {
		buckets = SecondsBuckets()
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.taken(name, "histogram")
	h := &Histogram{
		name:     name,
		helpText: help,
		bounds:   append([]float64(nil), buckets...),
		counts:   make([]atomic.Int64, len(buckets)+1),
	}
	r.histograms[name] = h
	return h
}

// CounterFunc registers a read-through counter whose value is produced
// by fn at scrape time. Re-registering an existing name replaces the
// callback — sequential sessions sharing one registry (the experiment
// harness) each point the view at their own live counters; the
// exposition then reflects the most recent session.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "counter", fn)
}

// GaugeFunc registers a read-through gauge; see CounterFunc for the
// replacement semantics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, "gauge", fn)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64) {
	if r == nil {
		return
	}
	checkName(name)
	if fn == nil {
		panic("obs: nil func metric callback")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.funcs[name]; ok {
		f.typ, f.helpText, f.fn = typ, help, fn
		return
	}
	r.taken(name, "func")
	r.funcs[name] = &funcMetric{name: name, helpText: help, typ: typ, fn: fn}
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered instrument in Prometheus
// text exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.funcs))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	for n := range r.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var err error
		switch {
		case r.counters[n] != nil:
			c := r.counters[n]
			err = writeSimple(w, n, c.helpText, "counter", float64(c.Value()))
		case r.gauges[n] != nil:
			g := r.gauges[n]
			err = writeSimple(w, n, g.helpText, "gauge", g.Value())
		case r.funcs[n] != nil:
			f := r.funcs[n]
			err = writeSimple(w, n, f.helpText, f.typ, f.fn())
		case r.histograms[n] != nil:
			err = writeHistogram(w, r.histograms[n])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, typ string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	return err
}

func writeSimple(w io.Writer, name, help, typ string, v float64) error {
	if err := writeHeader(w, name, help, typ); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
	return err
}

func writeHistogram(w io.Writer, h *Histogram) error {
	if err := writeHeader(w, h.name, h.helpText, "histogram"); err != nil {
		return err
	}
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, formatFloat(bound), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", h.name, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", h.name, h.Count())
	return err
}

// Snapshot returns a plain nested map of every instrument's current
// value — the expvar / JSON view of the registry. Histograms render as
// {count, sum, buckets: {"le": cumulative}}.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, g := range r.gauges {
		out[n] = g.Value()
	}
	for n, f := range r.funcs {
		out[n] = f.fn()
	}
	for n, h := range r.histograms {
		buckets := map[string]int64{}
		var cum int64
		for i, bound := range h.bounds {
			cum += h.counts[i].Load()
			buckets[formatFloat(bound)] = cum
		}
		cum += h.counts[len(h.bounds)].Load()
		buckets["+Inf"] = cum
		out[n] = map[string]any{
			"count":   h.Count(),
			"sum":     h.Sum(),
			"buckets": buckets,
		}
	}
	return out
}

// Observer bundles the observability sinks an instrumented component
// may write to: the metrics registry, the span tracer, and the
// structured logger. A nil *Observer (or nil fields) disables the
// corresponding sink; the Reg/Trace/Log accessors are nil-safe so call
// sites never branch.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer
	Logger   *Logger
}

// Reg returns the registry, or nil when the observer (or its registry)
// is disabled.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Registry
}

// Trace returns the tracer, or nil when disabled.
func (o *Observer) Trace() *Tracer {
	if o == nil {
		return nil
	}
	return o.Tracer
}

// Log returns the structured logger, or nil when disabled (nil *Logger
// methods are no-ops, so the result is always safe to use).
func (o *Observer) Log() *Logger {
	if o == nil {
		return nil
	}
	return o.Logger
}
