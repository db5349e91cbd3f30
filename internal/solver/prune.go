package solver

// The parallel branch-and-prune engine. The UNSAT direction of every
// solver verdict — and therefore the convergence check that terminates
// a synthesis session — runs through here, so this is the path worth
// parallelizing. The design constraint is strict determinism: Status,
// witness, and every transcript downstream must be bit-identical for
// any PruneWorkers value, or golden-transcript reproducibility dies.
//
// The engine achieves that with a wave (frontier-at-a-time) traversal:
//
//   - The frontier is the ordered list of surviving boxes at one
//     depth, all originating from the root split tree.
//   - Evaluating one box is a deterministic function of the box and
//     the constraint set (one interval pass of the sketch body over
//     the constraint sides, a midpoint check, a corner check at the
//     resolution floor — no RNG), so boxes of a wave can be evaluated
//     in any order, by any worker, into a slot-addressed results array.
//     Each worker's batch keeps the rows of the last box it bounded and
//     re-runs only the cones of the holes that differ, which is exact,
//     so what a worker decided before never shows in a result.
//   - Work within a wave is distributed through per-worker deques of
//     index spans: owners take theirs from the head, in frontier
//     order, and idle workers steal from the tail of the next deque
//     over. Stealing reshuffles only *who* computes a slot, never
//     *what* ends up in it.
//   - The merge then runs sequentially in frontier order: the first
//     witness in wave order wins, surviving splits append their two
//     children in order, and the box budget truncates the frontier at a
//     deterministic index. Unsat (an empty next frontier) is
//     order-independent to begin with.
//
// Workers never touch randomness (sampling and repair run
// sequentially on the caller's RNG before this stage), so the worker
// count is free to follow the machine.

import (
	"context"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"compsynth/internal/interval"
)

// pruneKind classifies one box's outcome.
type pruneKind uint8

const (
	// prunePruned: interval bounds refute the box — no solution inside.
	prunePruned pruneKind = iota
	// pruneWitness: a satisfying point was found in the box.
	pruneWitness
	// pruneSplit: undecided — the box was split along its widest
	// dimension (relative to the per-dimension resolution floor).
	pruneSplit
	// pruneFloor: at the resolution floor and still undecided, with no
	// corner witness; the box is dropped (δ-unsat convention).
	pruneFloor
)

// pruneResult is the outcome of evaluating one frontier box. Results
// are written slot-addressed by whichever worker evaluated the box and
// read back in frontier order by the merge.
type pruneResult struct {
	kind        pruneKind
	witness     []float64
	left, right []interval.Interval
}

// pruneSpan is a contiguous run [lo, hi) of frontier indices.
type pruneSpan struct{ lo, hi int }

// pruneDeque is one worker's span queue, its spans in frontier order.
// The owner takes from the head, so it walks its block as the
// one-worker loop walks the wave: each span starts at the box after
// the last one it decided, which its box batch reaches by cone moves.
// Thieves take from the tail, the spans the owner would reach last. A
// plain mutex is enough: contention is one lock per span of batchLanes
// boxes, and the critical section is a slice header update.
type pruneDeque struct {
	mu    sync.Mutex
	spans []pruneSpan
}

func (d *pruneDeque) pop() (pruneSpan, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.spans) == 0 {
		return pruneSpan{}, false
	}
	sp := d.spans[0]
	d.spans = d.spans[1:]
	return sp, true
}

func (d *pruneDeque) steal() (pruneSpan, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.spans)
	if n == 0 {
		return pruneSpan{}, false
	}
	sp := d.spans[n-1]
	d.spans = d.spans[:n-1]
	return sp, true
}

// branchAndPrune exhaustively explores the hole box with the wave
// engine; see the file comment for the determinism argument and
// solver.go for the pruning rules and the δ-unsat convention.
// Constraint intervals come from one pass of the sketch body per box,
// the constraint sides as scenario lanes (evalPruneSpan), in a box
// batch each worker's Batch builds on its first span and keeps for the
// whole search.
//
// The error is non-nil exactly when ctx was canceled; the verdict is
// then StatusUnknown.
func (s *System) branchAndPrune(ctx context.Context, domains []interval.Interval, opts Options) ([]float64, Status, error) {
	stats := s.statsOf(opts)
	minWidths := make([]float64, len(domains))
	for i, d := range domains {
		minWidths[i] = math.Max(d.Width()*opts.MinBoxWidth, 1e-12)
	}
	workers := opts.PruneWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// One reusable lane-scratch Batch per worker slot, shared across all
	// waves of this search (pruneWave may clamp the worker count per
	// wave; extra batches just sit idle those waves). Each builds its
	// box batch on the first span it decides.
	batches := make([]*Batch, workers)
	for w := range batches {
		batches[w] = s.NewBatch(batchLanes)
	}

	frontier := [][]interval.Interval{append([]interval.Interval(nil), domains...)}
	budget := opts.MaxBoxes
	var results []pruneResult
	depth := 0
	s.startSearch(len(frontier))
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, StatusUnknown, err
		}
		n, truncated := len(frontier), false
		if n > budget {
			// Deterministic budget cut: only the first `budget` boxes of
			// this wave are processed, exactly as the sequential engine
			// stopped after MaxBoxes pops.
			n, truncated = budget, true
		}
		if n == 0 {
			return nil, StatusUnknown, nil
		}
		budget -= n
		if stats != nil {
			stats.Boxes.Add(int64(n))
		}
		if cap(results) < n {
			results = make([]pruneResult, n)
		}
		results = results[:n]
		if err := s.pruneWave(ctx, frontier[:n], results, minWidths, workers, batches, stats); err != nil {
			return nil, StatusUnknown, err
		}

		// Merge, in frontier order. The first witness in wave order wins
		// regardless of which worker found it first in wall time.
		pruned := 0
		witness := -1
		for i := range results {
			switch results[i].kind {
			case pruneWitness:
				if witness < 0 {
					witness = i
				}
			case prunePruned:
				pruned++
			}
		}
		if stats != nil && pruned > 0 {
			stats.BoxesPruned.Add(int64(pruned))
		}
		s.metrics.observePruneDepth(depth, n)
		s.emitWave(depth, n, pruned)
		if witness >= 0 {
			return results[witness].witness, StatusSat, nil
		}
		if truncated {
			return nil, StatusUnknown, nil
		}
		next := make([][]interval.Interval, 0, 2*(n-pruned))
		for i := range results {
			if results[i].kind == pruneSplit {
				next = append(next, results[i].left, results[i].right)
			}
			results[i] = pruneResult{} // release box references early
		}
		frontier = next
		depth++
	}
	return nil, StatusUnsat, nil
}

// pruneWave evaluates wave[i] into results[i] for every i, using up to
// `workers` goroutines over work-stealing span deques. Each span is
// decided by one evalPruneSpan call on its worker's batch, and the span
// size is the lane width of the per-worker batches. workers
// is clamped to the number of spans; at one worker the wave runs inline
// with no goroutines and no steal accounting.
func (s *System) pruneWave(ctx context.Context, wave [][]interval.Interval, results []pruneResult, minWidths []float64, workers int, batches []*Batch, stats *Stats) error {
	n := len(wave)
	span := batches[0].lanes
	if spans := (n + span - 1) / span; workers > spans {
		workers = spans
	}
	if workers <= 1 {
		b := batches[0]
		for lo := 0; lo < n; lo += span {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := min(lo+span, n)
			s.evalPruneSpan(wave, lo, hi, results, minWidths, b, stats)
		}
		return nil
	}

	// Contiguous block per worker, pre-chunked so thieves can lift work
	// off a busy owner span by span.
	deques := make([]pruneDeque, workers)
	for w := 0; w < workers; w++ {
		lo, hi := n*w/workers, n*(w+1)/workers
		for c := lo; c < hi; c += span {
			end := c + span
			if end > hi {
				end = hi
			}
			deques[w].spans = append(deques[w].spans, pruneSpan{c, end})
		}
	}
	var steals atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := batches[w]
			for {
				if ctx.Err() != nil {
					return
				}
				sp, ok := deques[w].pop()
				if !ok {
					// Deterministic victim order (w+1, w+2, ...): not needed
					// for result determinism — slots are slots — but it keeps
					// steal pressure evenly spread.
					for off := 1; off < workers && !ok; off++ {
						sp, ok = deques[(w+off)%workers].steal()
					}
					if !ok {
						return // every deque drained; in-flight spans finish elsewhere
					}
					steals.Add(1)
				}
				s.evalPruneSpan(wave, sp.lo, sp.hi, results, minWidths, b, stats)
			}
		}(w)
	}
	wg.Wait()
	if stats != nil {
		if st := steals.Load(); st > 0 {
			stats.Steals.Add(st)
		}
	}
	return ctx.Err()
}

// splitOrFloor is the undecided-box tail of the decision: split the
// widest dimension relative to its resolution floor, or at the floor
// point-check the corners (cornerWitnessBatch, one sweep pass per
// lane-width chunk of corners) and drop the box (δ-unsat convention).
func (s *System) splitOrFloor(box []interval.Interval, minWidths []float64, b *Batch, stats *Stats) pruneResult {
	widest, ratio := -1, 1.0
	for i, iv := range box {
		if r := iv.Width() / minWidths[i]; r > ratio {
			widest, ratio = i, r
		}
	}
	if widest < 0 {
		// At the resolution floor and still undecided: point-check the
		// corners.
		if w := s.cornerWitnessBatch(b, box, stats); w != nil {
			return pruneResult{kind: pruneWitness, witness: w}
		}
		return pruneResult{kind: pruneFloor}
	}
	l, r := box[widest].Split()
	left := append([]interval.Interval(nil), box...)
	right := append([]interval.Interval(nil), box...)
	left[widest] = l
	right[widest] = r
	return pruneResult{kind: pruneSplit, left: left, right: right}
}
