package sketch

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"compsynth/internal/expr"
	"compsynth/internal/scenario"
)

// Scenario specialization: the solver's sweeps evaluate a sketch
// thousands of times at the same scenario with different hole vectors
// or boxes (every sampled point, branch-and-prune box, floor corner and
// learned-cache check, for every preference edge). Specialize
// partial-evaluates the scenario into the body (expr.Partial) and
// compiles the resulting hole-only program, so those evaluations skip
// the scenario binding and the scenario-dependent subexpressions
// entirely. (The solver's point checks — one hole vector against every
// constraint, as in each repair step — take the other route: one pass
// of the unspecialized body with the constraint scenarios as lanes.)
// Specialized programs are bit-exact stand-ins for evaluating the
// sketch at that scenario — expr.Partial guarantees it — which is what
// keeps synthesis transcripts identical when the solver switches to
// them.
//
// Programs are cached per scenario: preference edges reference a slowly
// growing set of scenarios (a handful per synthesis iteration), and the
// same scenario appears in many edges, so the cache converges to one
// compile per distinct scenario.

// specCacheCap bounds the number of cached specializations. Synthesis
// sessions touch at most a few scenarios per iteration, so the cap is
// generous; once full, further distinct scenarios compile without being
// retained rather than evicting (eviction order would add no value for
// the access pattern, and an unbounded map would leak under adversarial
// callers such as the distinguisher's per-iteration random pools).
const specCacheCap = 4096

type specCache struct {
	mu sync.RWMutex
	m  map[string]*expr.Program
	// hits/misses count lookups for observability (CacheStats). They
	// ride alongside the map operations the lookup already pays for, so
	// the accounting is always on; a miss that loses a compile race
	// still counts as a miss (the compile work happened).
	hits, misses atomic.Int64
}

// appendSpecKey appends the byte-exact map key of the scenario to dst.
// Float64bits distinguishes -0 from +0 and all NaN payloads, so two
// scenarios share a key only when every coordinate is bitwise
// identical. Callers pass a stack array as dst so the warm lookup path
// allocates nothing (map indexing with string(key) is copy-free).
func appendSpecKey(dst []byte, sc scenario.Scenario) []byte {
	for _, v := range sc {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// Specialize returns the hole-only program for the sketch body at the
// given scenario, and whether it was served from the cache. The
// returned program takes (nil, holes) positional arguments with holes
// in Sketch.Holes order, and its point and interval evaluation agree
// bit-exactly with evaluating the sketch at that scenario.
func (s *Sketch) Specialize(sc scenario.Scenario) (*expr.Program, bool) {
	var arr [64]byte
	key := appendSpecKey(arr[:0], sc)
	s.spec.mu.RLock()
	prog, ok := s.spec.m[string(key)]
	s.spec.mu.RUnlock()
	if ok {
		s.spec.hits.Add(1)
		return prog, true
	}
	s.spec.misses.Add(1)

	vars := make(map[string]float64, len(sc))
	for i, name := range s.space.Names() {
		vars[name] = sc[i]
	}
	// New validated every body variable against the space, so the
	// partial body is hole-only and compilation cannot fail.
	prog = expr.MustCompile(expr.Partial(s.body, vars), nil, s.holes)

	s.spec.mu.Lock()
	if cached, ok := s.spec.m[string(key)]; ok {
		// Lost a compile race; keep the first program so callers that
		// already hold it stay consistent.
		prog = cached
	} else if len(s.spec.m) < specCacheCap {
		if s.spec.m == nil {
			s.spec.m = make(map[string]*expr.Program)
		}
		s.spec.m[string(key)] = prog
	}
	s.spec.mu.Unlock()
	return prog, false
}

// SpecializedCount returns the number of cached specializations.
func (s *Sketch) SpecializedCount() int {
	s.spec.mu.RLock()
	defer s.spec.mu.RUnlock()
	return len(s.spec.m)
}

// DiffCount returns the number of cached fused difference programs.
func (s *Sketch) DiffCount() int {
	s.diff.mu.RLock()
	defer s.diff.mu.RUnlock()
	return len(s.diff.m)
}

// CacheStats reports the size and lookup outcomes of the two
// specialization caches. Entries are current sizes (gauges); the
// hit/miss counters are cumulative over the sketch's lifetime.
type CacheStats struct {
	SpecEntries, DiffEntries int
	SpecHits, SpecMisses     int64
	DiffHits, DiffMisses     int64
}

// CacheStats returns a consistent-enough snapshot of the cache
// counters (each value is read atomically; the set is not one cut).
func (s *Sketch) CacheStats() CacheStats {
	return CacheStats{
		SpecEntries: s.SpecializedCount(),
		DiffEntries: s.DiffCount(),
		SpecHits:    s.spec.hits.Load(),
		SpecMisses:  s.spec.misses.Load(),
		DiffHits:    s.diff.hits.Load(),
		DiffMisses:  s.diff.misses.Load(),
	}
}

// SpecializeDiff returns a compiled program computing f(a) − f(b) over
// the hole-only specializations of the two scenarios, and whether it
// was served from the cache. Preference constraints are differences by
// construction, so the solver evaluates one fused program per
// constraint; caching by the ordered scenario pair means repeated
// solver calls over the same constraint set (and incremental rebuilds
// of the same edges) reuse programs instead of recompiling. Fusing is
// bit-exact with evaluating the sides separately and subtracting: the
// same float operations run in the same order, and interval Sub is
// exactly the Bin/OpSub semantics.
func (s *Sketch) SpecializeDiff(a, b scenario.Scenario) (*expr.Program, bool) {
	// Keys are fixed-length for a given metric space, so concatenation
	// is collision-free across ordered pairs. The warm path — repeated
	// solver calls over an unchanged constraint set — is one map lookup
	// with a stack-built key, no allocation.
	var arr [128]byte
	key := appendSpecKey(appendSpecKey(arr[:0], a), b)
	s.diff.mu.RLock()
	prog, ok := s.diff.m[string(key)]
	s.diff.mu.RUnlock()
	if ok {
		s.diff.hits.Add(1)
		return prog, true
	}
	s.diff.misses.Add(1)

	pa, _ := s.Specialize(a)
	pb, _ := s.Specialize(b)
	// Both sides compiled against the hole ordering already, so the
	// fused body cannot fail to compile.
	body := expr.Bin{Op: expr.OpSub, L: pa.Expr(), R: pb.Expr()}
	prog = expr.MustCompile(body, nil, s.holes)

	s.diff.mu.Lock()
	if cached, ok := s.diff.m[string(key)]; ok {
		prog = cached
	} else if len(s.diff.m) < specCacheCap {
		if s.diff.m == nil {
			s.diff.m = make(map[string]*expr.Program)
		}
		s.diff.m[string(key)] = prog
	}
	s.diff.mu.Unlock()
	return prog, false
}
