// Package scenario models concrete metric combinations ("scenarios" in
// the paper's terminology) and the bounded metric space they live in.
//
// A scenario is one concrete combination of design metrics — for the
// SWAN case study, a (throughput, latency) pair. The paper's
// ClosedInRange constraint (§4.2) is represented by Space: every metric
// has a closed range, and all generated scenarios stay inside the box.
package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"compsynth/internal/interval"
)

// Scenario is a point in metric space; values are positional per the
// owning Space's metric ordering.
type Scenario []float64

// Clone returns an independent copy.
func (s Scenario) Clone() Scenario { return append(Scenario(nil), s...) }

// Equal reports exact equality of two scenarios.
func (s Scenario) Equal(other Scenario) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if s[i] != other[i] {
			return false
		}
	}
	return true
}

// AlmostEqual reports equality within tol in every coordinate.
func (s Scenario) AlmostEqual(other Scenario, tol float64) bool {
	if len(s) != len(other) {
		return false
	}
	for i := range s {
		if math.Abs(s[i]-other[i]) > tol {
			return false
		}
	}
	return true
}

// Dist returns the Euclidean distance between two scenarios.
func (s Scenario) Dist(other Scenario) float64 {
	if len(s) != len(other) {
		return math.Inf(1)
	}
	var sum float64
	for i := range s {
		d := s[i] - other[i]
		sum += d * d
	}
	return math.Sqrt(sum)
}

// Space is a bounded metric space: named metrics, each with a closed
// range. It encodes the paper's ClosedInRange constraints (for SWAN:
// throughput ∈ [0,10] Gbps, latency ∈ [0,200] ms).
type Space struct {
	names  []string
	ranges []interval.Interval
	index  map[string]int
}

// NewSpace builds a metric space. Names must be unique and ranges
// non-empty with finite bounds.
func NewSpace(names []string, ranges []interval.Interval) (*Space, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("scenario: empty metric space")
	}
	if len(names) != len(ranges) {
		return nil, fmt.Errorf("scenario: %d names but %d ranges", len(names), len(ranges))
	}
	sp := &Space{
		names:  append([]string(nil), names...),
		ranges: append([]interval.Interval(nil), ranges...),
		index:  make(map[string]int, len(names)),
	}
	for i, n := range names {
		if n == "" {
			return nil, fmt.Errorf("scenario: empty metric name at %d", i)
		}
		if _, dup := sp.index[n]; dup {
			return nil, fmt.Errorf("scenario: duplicate metric %q", n)
		}
		sp.index[n] = i
		r := ranges[i]
		if r.IsEmpty() {
			return nil, fmt.Errorf("scenario: empty range for %q", n)
		}
		if math.IsInf(r.Lo, 0) || math.IsInf(r.Hi, 0) {
			return nil, fmt.Errorf("scenario: unbounded range for %q", n)
		}
	}
	return sp, nil
}

// MustNewSpace is NewSpace but panics on error.
func MustNewSpace(names []string, ranges []interval.Interval) *Space {
	sp, err := NewSpace(names, ranges)
	if err != nil {
		panic(err)
	}
	return sp
}

// SWANSpace returns the metric space of the paper's SWAN case study:
// throughput ∈ [0, 10] Gbps and latency ∈ [0, 200] ms.
func SWANSpace() *Space {
	return MustNewSpace(
		[]string{"throughput", "latency"},
		[]interval.Interval{interval.New(0, 10), interval.New(0, 200)},
	)
}

// Dim returns the number of metrics.
func (sp *Space) Dim() int { return len(sp.names) }

// Names returns the metric names in order.
func (sp *Space) Names() []string { return append([]string(nil), sp.names...) }

// Ranges returns the metric ranges in order.
func (sp *Space) Ranges() []interval.Interval {
	return append([]interval.Interval(nil), sp.ranges...)
}

// Range returns the range of the named metric.
func (sp *Space) Range(name string) (interval.Interval, bool) {
	i, ok := sp.index[name]
	if !ok {
		return interval.Empty(), false
	}
	return sp.ranges[i], true
}

// Index returns the position of the named metric.
func (sp *Space) Index(name string) (int, bool) {
	i, ok := sp.index[name]
	return i, ok
}

// Contains reports whether s lies inside the box.
func (sp *Space) Contains(s Scenario) bool {
	if len(s) != len(sp.ranges) {
		return false
	}
	for i, v := range s {
		if !sp.ranges[i].Contains(v) {
			return false
		}
	}
	return true
}

// Clamp returns s with every coordinate clamped into its range.
func (sp *Space) Clamp(s Scenario) Scenario {
	out := make(Scenario, len(sp.ranges))
	for i := range sp.ranges {
		v := 0.0
		if i < len(s) {
			v = s[i]
		}
		out[i] = sp.ranges[i].Clamp(v)
	}
	return out
}

// Random returns a uniformly random scenario inside the box.
func (sp *Space) Random(rng *rand.Rand) Scenario {
	s := make(Scenario, len(sp.ranges))
	for i, r := range sp.ranges {
		s[i] = r.Lo + rng.Float64()*r.Width()
	}
	return s
}

// RandomN returns n independent random scenarios.
func (sp *Space) RandomN(rng *rand.Rand, n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		out[i] = sp.Random(rng)
	}
	return out
}

// Grid returns the scenarios of a regular grid with pointsPerDim points
// per metric (inclusive of both range endpoints; pointsPerDim must be
// at least 2). The grid is used for behavioral-equivalence validation.
func (sp *Space) Grid(pointsPerDim int) []Scenario {
	if pointsPerDim < 2 {
		panic("scenario: Grid needs at least 2 points per dimension")
	}
	total := 1
	for range sp.ranges {
		total *= pointsPerDim
	}
	out := make([]Scenario, 0, total)
	idx := make([]int, len(sp.ranges))
	for {
		s := make(Scenario, len(sp.ranges))
		for d, r := range sp.ranges {
			s[d] = r.Lo + r.Width()*float64(idx[d])/float64(pointsPerDim-1)
		}
		out = append(out, s)
		// Odometer increment.
		d := 0
		for ; d < len(idx); d++ {
			idx[d]++
			if idx[d] < pointsPerDim {
				break
			}
			idx[d] = 0
		}
		if d == len(idx) {
			return out
		}
	}
}

// Format renders a scenario with metric names, e.g.
// "(throughput=2.5, latency=100)".
func (sp *Space) Format(s Scenario) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, n := range sp.names {
		if i > 0 {
			b.WriteString(", ")
		}
		v := math.NaN()
		if i < len(s) {
			v = s[i]
		}
		fmt.Fprintf(&b, "%s=%.4g", n, v)
	}
	b.WriteByte(')')
	return b.String()
}

// Store assigns stable integer IDs to scenarios so they can be used as
// preference-graph vertices. Scenarios are deduplicated by tolerance:
// two scenarios within dedupTol in every coordinate share an ID, which
// keeps the preference graph free of near-duplicate vertices that would
// force numerically meaningless constraints.
type Store struct {
	space    *Space
	items    []Scenario
	dedupTol float64
}

// NewStore creates a store for scenarios of the given space. dedupTol
// may be 0 for exact matching.
func NewStore(space *Space, dedupTol float64) *Store {
	return &Store{space: space, dedupTol: dedupTol}
}

// Space returns the metric space.
func (st *Store) Space() *Space { return st.space }

// Add interns the scenario and returns its ID. Scenarios outside the
// space are rejected.
func (st *Store) Add(s Scenario) (int, error) {
	if !st.space.Contains(s) {
		return 0, fmt.Errorf("scenario: %s outside space", st.space.Format(s))
	}
	for id, existing := range st.items {
		if existing.AlmostEqual(s, st.dedupTol) {
			return id, nil
		}
	}
	st.items = append(st.items, s.Clone())
	return len(st.items) - 1, nil
}

// Find returns the ID of an already-interned scenario matching s within
// the dedup tolerance, without interning anything. It is the read-only
// side of Add, used by the query planner to test whether a sampled
// scenario is already a preference-graph vertex.
func (st *Store) Find(s Scenario) (int, bool) {
	for id, existing := range st.items {
		if existing.AlmostEqual(s, st.dedupTol) {
			return id, true
		}
	}
	return 0, false
}

// Get returns the scenario with the given ID.
func (st *Store) Get(id int) (Scenario, bool) {
	if id < 0 || id >= len(st.items) {
		return nil, false
	}
	return st.items[id], true
}

// Len returns the number of stored scenarios.
func (st *Store) Len() int { return len(st.items) }

// All returns every stored scenario, indexed by ID.
func (st *Store) All() []Scenario {
	out := make([]Scenario, len(st.items))
	for i, s := range st.items {
		out[i] = s.Clone()
	}
	return out
}
