package solver

// The learned-prune cache: cross-iteration reuse of branch-and-prune
// work. Each synthesis iteration adds one preference edge, so the
// constraint system only ever *tightens* — facts the prune engine
// proves about a box stay true as the session progresses:
//
//   - A box refuted by one constraint's interval bounds stays refuted
//     for as long as that constraint is present (evaluation is a pure
//     function of (constraint, box)).
//   - "No constraint with add-version ≤ v refutes this box" stays true
//     for the old constraints; only constraints added after v need a
//     delta check.
//   - A point that fails Satisfies stays failing under constraint
//     additions (satisfaction is monotone-decreasing in the constraint
//     set) — but NOT under removals, which is why point-level facts are
//     guarded by a removal epoch while refutations are guarded by their
//     refuter's presence alone.
//
// The cache is strictly *result-invariant*: it never changes frontier
// composition, budget accounting, witnesses, Status, or the
// deterministic Stats counters — it only skips re-deriving per-box
// facts the monotone constraint history already proved. Golden
// transcripts are therefore bit-identical with the cache on or off
// (pinned by TestGoldenTranscriptLearnedCacheInvariance and the
// differential fuzz in learned_test.go); see DESIGN.md §11 for the
// full soundness argument.

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"compsynth/internal/interval"
)

// defaultLearnedCap bounds the number of cached box entries; beyond it
// new boxes are evaluated cold (existing entries keep serving hits).
// At ~100 bytes per entry the default is a few MB per session.
const defaultLearnedCap = 1 << 16

// Learned is a per-session learned-prune cache. It outlives System
// rebuilds: the synthesizer attaches one Learned to its System once
// (SetLearned) and the System reports every constraint addition and
// removal, so cached facts survive Reset + re-add cycles (transitive
// reduction, cycle repair) and die precisely when their supporting
// constraints do.
//
// All methods are safe for concurrent use: prune workers look up and
// insert boxes concurrently during a wave. Races only affect which
// worker pays for an insertion — the facts inserted are deterministic,
// so the cache never influences results.
type Learned struct {
	mu sync.Mutex
	// version counts constraint additions; each added constraint is
	// stamped with its add-version, and undecided box entries record the
	// version they were proven at so later lookups delta-check only the
	// constraints added since.
	version uint64
	// epoch counts constraint removals. Point-level negative facts
	// ("this midpoint/corner/hint fails Satisfies") are monotone under
	// additions but not removals, so they carry the epoch they were
	// proven in and are invalidated wholesale when it moves.
	epoch uint64
	// present counts live constraints by content key. Refuted box
	// entries name their refuting constraint's key and stay valid —
	// across rebuilds and even removal epochs — while that key's count
	// is positive.
	present map[string]int
	boxes   map[uint64][]*learnedBox
	points  map[uint64][]learnedPoint
	nBoxes  int
	nPoints int
	cap     int

	// Counters, exposed through obs as read-through views
	// (RegisterLearnedMetrics). Not part of Stats: the deterministic
	// effort counters there are pinned by invariance tests, and cache
	// traffic is by design not deterministic across cache on/off.
	boxHits       atomic.Int64
	boxMisses     atomic.Int64
	deltaRefutes  atomic.Int64
	pointHits     atomic.Int64
	invalidations atomic.Int64
}

// learnedBox is one cached box fact. Exactly one of two shapes:
//
//   - refuted: refuter names the constraint whose interval bounds
//     refute the box; valid while present[refuter] > 0.
//   - undecided: no constraint with addVersion ≤ version refutes the
//     box, its midpoint fails Satisfies, and (when cornerUnsat) so does
//     every corner at the resolution floor; valid while the removal
//     epoch matches.
type learnedBox struct {
	box         []interval.Interval // exact bounds; hash-collision guard
	refuted     bool
	refuter     string
	version     uint64
	epoch       uint64
	cornerUnsat bool
}

// learnedPoint caches "this hole vector fails Satisfies", used to skip
// re-validating warm-start hints. Monotone under additions only, so
// epoch-guarded like undecided boxes.
type learnedPoint struct {
	pt    []float64
	epoch uint64
}

// NewLearned returns an empty cache holding at most capacity box
// entries (≤ 0 selects the default).
func NewLearned(capacity int) *Learned {
	if capacity <= 0 {
		capacity = defaultLearnedCap
	}
	return &Learned{
		present: make(map[string]int),
		boxes:   make(map[uint64][]*learnedBox),
		points:  make(map[uint64][]learnedPoint),
		cap:     capacity,
	}
}

// LearnedSnapshot is a plain copy of the cache counters.
type LearnedSnapshot struct {
	BoxHits       int64 `json:"box_hits"`
	BoxMisses     int64 `json:"box_misses"`
	DeltaRefutes  int64 `json:"delta_refutes"`
	PointHits     int64 `json:"point_hits"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
}

// Snapshot copies the counters and the live entry count.
func (l *Learned) Snapshot() LearnedSnapshot {
	l.mu.Lock()
	n := l.nBoxes
	l.mu.Unlock()
	return LearnedSnapshot{
		BoxHits:       l.boxHits.Load(),
		BoxMisses:     l.boxMisses.Load(),
		DeltaRefutes:  l.deltaRefutes.Load(),
		PointHits:     l.pointHits.Load(),
		Invalidations: l.invalidations.Load(),
		Entries:       n,
	}
}

// Len returns the number of cached box entries.
func (l *Learned) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nBoxes
}

// constraintAdded registers a constraint's content key and returns its
// add-version. Called by the System on AddPref/InsertPref/AddTie.
func (l *Learned) constraintAdded(key string) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.version++
	l.present[key]++
	return l.version
}

// constraintRemoved retires one instance of a constraint key and bumps
// the removal epoch, invalidating every point-level fact. Refuted boxes
// whose refuter key still has live instances remain valid.
func (l *Learned) constraintRemoved(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.present[key]; n > 1 {
		l.present[key] = n - 1
	} else {
		delete(l.present, key)
	}
	l.epoch++
	l.invalidations.Add(1)
}

// boxFact is the snapshot a lookup hands to the prune engine; it is
// valid for the duration of one box evaluation (constraint sets are
// frozen during a search).
type boxFact struct {
	refuted     bool
	version     uint64
	cornerUnsat bool
}

// lookupBox returns the cached fact for a box, if a valid one exists.
// h must be hashBox(box).
func (l *Learned) lookupBox(h uint64, box []interval.Interval) (boxFact, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.boxes[h] {
		if !sameBox(e.box, box) {
			continue
		}
		if e.refuted {
			if l.present[e.refuter] > 0 {
				l.boxHits.Add(1)
				return boxFact{refuted: true}, true
			}
			return boxFact{}, false // refuter removed; entry is dead weight
		}
		if e.epoch == l.epoch {
			l.boxHits.Add(1)
			return boxFact{version: e.version, cornerUnsat: e.cornerUnsat}, true
		}
		return boxFact{}, false
	}
	l.boxMisses.Add(1)
	return boxFact{}, false
}

// storeBox records a fresh fact for a box. kind mirrors learnedBox: a
// non-empty refuter stores a refutation; otherwise an undecided entry
// at the current version/epoch with the given corner flag.
func (l *Learned) storeBox(h uint64, box []interval.Interval, refuter string, cornerUnsat bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.boxes[h] {
		if sameBox(e.box, box) {
			// Upgrade in place (miss → fresh fact, undecided → refuted,
			// split-entry → cornerUnsat). Races between workers insert the
			// same deterministic facts, so last-write-wins is safe.
			e.refuted = refuter != ""
			e.refuter = refuter
			e.version = l.version
			e.epoch = l.epoch
			e.cornerUnsat = e.cornerUnsat || cornerUnsat
			return
		}
	}
	if l.nBoxes >= l.cap {
		return // full: keep serving existing entries, stop learning new ones
	}
	l.boxes[h] = append(l.boxes[h], &learnedBox{
		box:         append([]interval.Interval(nil), box...),
		refuted:     refuter != "",
		refuter:     refuter,
		version:     l.version,
		epoch:       l.epoch,
		cornerUnsat: cornerUnsat,
	})
	l.nBoxes++
}

// pointKnownUnsat reports whether the hole vector is cached as failing
// Satisfies at the current epoch.
func (l *Learned) pointKnownUnsat(pt []float64) bool {
	h := hashPoint(pt)
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.points[h] {
		if e.epoch == l.epoch && samePoint(e.pt, pt) {
			l.pointHits.Add(1)
			return true
		}
	}
	return false
}

// notePointUnsat records a hole vector that failed Satisfies.
func (l *Learned) notePointUnsat(pt []float64) {
	h := hashPoint(pt)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nPoints >= l.cap {
		return
	}
	for _, e := range l.points[h] {
		if samePoint(e.pt, pt) {
			if e.epoch != l.epoch {
				break // stale entry for the same point; append a fresh one
			}
			return
		}
	}
	l.points[h] = append(l.points[h], learnedPoint{
		pt:    append([]float64(nil), pt...),
		epoch: l.epoch,
	})
	l.nPoints++
}

// forEachRefuted visits every currently valid refuted entry.
func (l *Learned) forEachRefuted(fn func(box []interval.Interval, refuter string)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, bucket := range l.boxes {
		for _, e := range bucket {
			if e.refuted && l.present[e.refuter] > 0 {
				fn(e.box, e.refuter)
			}
		}
	}
}

// LearnedSummary is the serializable slice of a learned-prune cache: the
// refuted boxes, each naming the constraint that refuted it by its index
// in the exporting System's constraint order. Sessions export it to the
// fleet's shared learned tier and to migration bundles, and other
// sessions warm their caches from it (System.WarmLearned).
//
// Only refutations are exported: re-verifying one costs a single
// interval evaluation of a constraint (importers MUST verify), whereas
// an undecided entry's facts would cost as much to verify as to
// re-derive, so shipping them buys nothing.
type LearnedSummary struct {
	// Refuted lists the proven-infeasible boxes.
	Refuted []RefutedRegion `json:"refuted"`
}

// RefutedRegion is one exported refuted box.
type RefutedRegion struct {
	// Box holds [lo, hi] per hole dimension.
	Box [][2]float64 `json:"box"`
	// Tie selects the constraint table: false indexes preferences,
	// true indexes ties.
	Tie bool `json:"tie,omitempty"`
	// Index is the refuting constraint's position in the exporting
	// System's constraint order: a hint the importer tries first before
	// scanning every constraint.
	Index int `json:"index"`
}

// hashBox is a deterministic FNV-1a hash over the box bounds' float
// bits. Deliberately not hash/maphash: its per-process random seed
// would make cache behavior differ across a daemon restart, and the
// collision guard is the exact sameBox comparison anyway.
func hashBox(box []interval.Interval) uint64 {
	h := uint64(14695981039346656037)
	for _, iv := range box {
		h = fnvMix(h, math.Float64bits(iv.Lo))
		h = fnvMix(h, math.Float64bits(iv.Hi))
	}
	return h
}

func hashPoint(pt []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range pt {
		h = fnvMix(h, math.Float64bits(v))
	}
	return h
}

func fnvMix(h, bits uint64) uint64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], bits)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func sameBox(a, b []interval.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Lo) != math.Float64bits(b[i].Lo) ||
			math.Float64bits(a[i].Hi) != math.Float64bits(b[i].Hi) {
			return false
		}
	}
	return true
}

func samePoint(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// prefKey is the content identity of a preference constraint: the exact
// float bits of both scenarios. Two constraints with equal keys compile
// to the same difference program, so a refutation proved under one
// instance holds for any other.
func prefKey(c Pref) string {
	b := make([]byte, 0, 8*(len(c.Better)+len(c.Worse))+2)
	b = append(b, 'p')
	for _, v := range c.Better {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = append(b, '|')
	for _, v := range c.Worse {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// tieKey is the content identity of an indifference constraint.
func tieKey(t Tie) string {
	b := make([]byte, 0, 8*(len(t.A)+len(t.B))+10)
	b = append(b, 't')
	for _, v := range t.A {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = append(b, '|')
	for _, v := range t.B {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Band))
	return string(b)
}
