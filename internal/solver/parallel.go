package solver

import (
	"context"
	"math/rand"
	"sync"
)

// searchJob is one unit of parallel candidate search: a share of the
// sampling budget followed by a share of the repair restarts.
type searchJob struct {
	seed    int64
	samples int
	repairs int
}

// splitBudget divides the sampling/repair budget across workers and
// draws one derived seed per worker from the caller's RNG. The seeds
// are drawn in worker order, so the partition is a pure function of
// the caller RNG state and the worker count.
//
// Edge handling: Workers is clamped into [1, Samples+RepairRestarts]
// (floor 1 even when the total budget is zero, so callers always get a
// worker — it just does nothing). The clamp keeps the worker count from
// exceeding the total budget; it does NOT guarantee every worker gets
// work, because sample and repair remainders both go to the
// lowest-indexed workers. With Samples=4, RepairRestarts=3, Workers=7,
// workers 4–6 end up with empty budgets — they still draw their derived
// seed, which is what keeps the partition (and thus results) a pure
// function of (caller RNG state, worker count).
func splitBudget(opts Options, rng *rand.Rand) []searchJob {
	workers := opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > opts.Samples+opts.RepairRestarts {
		workers = opts.Samples + opts.RepairRestarts
		if workers < 1 {
			workers = 1
		}
	}
	jobs := make([]searchJob, workers)
	for w := range jobs {
		jobs[w].seed = rng.Int63()
		jobs[w].samples = opts.Samples / workers
		jobs[w].repairs = opts.RepairRestarts / workers
	}
	// Remainders go to the first workers.
	for i := 0; i < opts.Samples%workers; i++ {
		jobs[i].samples++
	}
	for i := 0; i < opts.RepairRestarts%workers; i++ {
		jobs[i].repairs++
	}
	return jobs
}

// parallelWitnesses runs the sampling+repair stages across workers and
// returns every consistent vector found, merged in worker order (so
// the result is deterministic for a fixed seed and worker count).
// maxPerWorker bounds each worker's output; 0 means "stop after the
// first witness" (the FindCandidate use), larger values build pools
// for FindDiverse. Workers only read the system (its constraints and
// their immutable programs) and each draws its own lane scratch from
// the pool, so no mutation races exist.
//
// Cancellation: workers poll ctx between budget units and bail; the
// call then returns (nil, ctx.Err()) and any partial findings are
// discarded, so an uncanceled run's result is never affected.
func (s *System) parallelWitnesses(ctx context.Context, opts Options, rng *rand.Rand, maxPerWorker int) ([][]float64, error) {
	domains := s.sk.Domains()
	stats := s.statsOf(opts)
	jobs := splitBudget(opts, rng)
	if maxPerWorker <= 0 {
		maxPerWorker = 1
	}
	results := make([][][]float64, len(jobs))
	var wg sync.WaitGroup
	for w, job := range jobs {
		wg.Add(1)
		go func(w int, job searchJob) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(job.seed))
			var found [][]float64
			if _, err := s.sampleSatisfying(ctx, job.samples, batchLanes, domains, wrng, stats, func(pt []float64) bool {
				found = append(found, append([]float64(nil), pt...))
				return len(found) < maxPerWorker
			}); err != nil {
				return
			}
			scratch := make([]float64, len(domains))
			for r := 0; r < job.repairs && len(found) < maxPerWorker; r++ {
				if ctx.Err() != nil {
					return
				}
				if stats != nil {
					stats.Repairs.Add(1)
				}
				fillRandomVector(scratch, domains, wrng)
				if repaired, ok := s.repair(scratch, domains, opts.RepairSteps, wrng); ok {
					found = append(found, repaired)
				}
			}
			results[w] = found
		}(w, job)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out [][]float64
	for _, r := range results {
		out = append(out, r...)
	}
	return out, nil
}
