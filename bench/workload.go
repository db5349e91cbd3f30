package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/service"
	"compsynth/internal/sketch"
)

// initialScenarios is core's default initial ranking size, which every
// workload keeps; the client needs it to tell ranking rounds apart.
const initialScenarios = 5

// checkEvery picks the sessions whose transcripts are compared byte for
// byte with service.BatchRun: pool indices divisible by it.
const checkEvery = 8

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// pool is the session seeds one pass runs. A run repeats whole
	// passes, so every run covers the same sessions in the same
	// proportions and the deterministic metrics repeat exactly; the
	// run's --seed only rotates the order clients take them in.
	pool    []int64
	clients int
	// batched answers each round in one POST, not one POST per judgment.
	batched bool
	spec    func(id string, seed int64) service.SessionSpec
	sketch  *sketch.Sketch
	user    oracle.Oracle
	run     func(w *workload, env *runEnv) (*runData, error)
	// size describes the pass for the provenance header.
	size string
}

// runEnv is one run's settings.
type runEnv struct {
	seed    int64
	seconds float64
	dir     string // the run's data directories, under .bench_build
	rec     *recorder
}

// runData is what a run measured, before metrics are derived.
type runData struct {
	setups   []float64 // set-up times, seconds
	sessions []*sessionRun
	loadWall float64 // seconds spent driving sessions
	regs     []*obs.Registry
	// restart only.
	crash, graceful []float64 // recovery times, seconds
	journalBytes    int64
	journalAnswers  int
}

func seeds(from, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(from + i)
	}
	return out
}

// synthloadBudgets are cmd/synthload's per-session search budgets.
func synthloadBudgets(spec *service.SessionSpec) {
	spec.Solver = &service.SolverSpec{Samples: 150, RepairRestarts: 5, RepairSteps: 60, Workers: 1}
	spec.Distinguish = &service.DistinguishSpec{Candidates: 6, PairSamples: 250, Gamma: 2}
}

// twoRegionSpec is sketch.MultiRegion(2) as an inline spec: 7 holes,
// nested regions with bonuses 2000 and 1000.
const twoRegionSpec = `sketch swan-2region
metric throughput 0 10
metric latency 0 200
hole tp_thrsh_1 0 10
hole l_thrsh_1 0 200
hole slope_1 0 10
hole tp_thrsh_2 0 10
hole l_thrsh_2 0 200
hole slope_2 0 10
hole slope_3 0 10
objective
if throughput >= ??tp_thrsh_1 && latency <= ??l_thrsh_1 then
    throughput - ??slope_1*throughput*latency + 2000
else
    if throughput >= ??tp_thrsh_2 && latency <= ??l_thrsh_2 then
        throughput - ??slope_2*throughput*latency + 1000
    else
        throughput - ??slope_3*throughput*latency
`

// twoRegionTarget follows experiments.multiRegionTarget's rule for n=2:
// region i has throughput bar 1+(n-i)*1.5, latency bar 40*i and slope
// i; the outer slope is 5.
var twoRegionTarget = map[string]float64{
	"tp_thrsh_1": 2.5, "l_thrsh_1": 40, "slope_1": 1,
	"tp_thrsh_2": 1, "l_thrsh_2": 80, "slope_2": 2,
	"slope_3": 5,
}

func swanUser() (*sketch.Sketch, oracle.Oracle, error) {
	sk := sketch.SWAN()
	c, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		return nil, nil, err
	}
	return sk, oracle.NewGroundTruth(c, 1e-9), nil
}

func twoRegionUser() (*sketch.Sketch, oracle.Oracle, error) {
	sk, err := sketch.ParseSpec(strings.NewReader(twoRegionSpec))
	if err != nil {
		return nil, nil, err
	}
	holes := make([]float64, sk.NumHoles())
	for i, h := range sk.Holes() {
		v, ok := twoRegionTarget[h]
		if !ok {
			return nil, nil, fmt.Errorf("no target value for hole %q", h)
		}
		holes[i] = v
	}
	c, err := sk.Candidate(holes)
	if err != nil {
		return nil, nil, err
	}
	return sk, oracle.NewGroundTruth(c, 1e-9), nil
}

// workloadNames lists the workloads in their default order.
var workloadNames = []string{"table1-batch", "swan-fleet", "multiregion-fleet", "restart"}

// newWorkload builds a workload by name. short shrinks the pools for
// the test suite.
func newWorkload(name string, short bool) (*workload, error) {
	swanSk, swanGT, err := swanUser()
	if err != nil {
		return nil, err
	}
	pool := func(from, n, shortN int) []int64 {
		if short {
			n = shortN
		}
		return seeds(from, n)
	}
	switch name {
	case "table1-batch":
		w := &workload{
			name: name, clients: loadClients(), sketch: swanSk, user: swanGT, run: runTable1,
			why:  "the paper's unit of work in-process via core.Stepper, no serving layer: serving-layer changes must not move it",
			pool: pool(1, 16, 2),
			spec: func(id string, seed int64) service.SessionSpec { return service.SessionSpec{ID: id, Seed: seed} },
		}
		w.size = fmt.Sprintf("%d SWAN sessions per pass, default budgets, k=1, %d clients in-process", len(w.pool), w.clients)
		return w, nil
	case "swan-fleet":
		w := &workload{
			name: name, clients: loadClients(), sketch: swanSk, user: swanGT, run: runFleet,
			why:  "cheap SWAN rounds, one POST per judgment through router, journal and replica: serving layers dominate",
			pool: pool(1, 64, 3),
			spec: func(id string, seed int64) service.SessionSpec {
				s := service.SessionSpec{ID: id, Seed: seed, PairsPerIteration: 3}
				synthloadBudgets(&s)
				return s
			},
		}
		w.size = fmt.Sprintf("%d SWAN sessions per pass, synthload budgets, k=3, one POST per judgment, %d clients via router", len(w.pool), w.clients)
		return w, nil
	case "multiregion-fleet":
		sk, gt, err := twoRegionUser()
		if err != nil {
			return nil, err
		}
		w := &workload{
			name: name, clients: loadClients(), batched: true, sketch: sk, user: gt, run: runFleet,
			why:  "7-hole 2-region sketch, batched POST per round: solver-bound, the only one reaching branch-and-prune",
			pool: pool(2, 8, 1),
			spec: func(id string, seed int64) service.SessionSpec {
				return service.SessionSpec{ID: id, Seed: seed, SpecText: twoRegionSpec, PairsPerIteration: 3}
			},
		}
		w.size = fmt.Sprintf("%d 2-region sessions per pass (seeds %d-%d), default budgets, k=3, one POST per round, %d clients via router",
			len(w.pool), w.pool[0], w.pool[len(w.pool)-1], w.clients)
		return w, nil
	case "restart":
		w := &workload{
			name: name, clients: loadClients(), batched: true, sketch: swanSk, user: swanGT, run: runRestart,
			why:  "member restarts on a crash image, then on a checkpointed image, and finishes sessions: prices replay",
			pool: pool(1, 16, 2),
			spec: func(id string, seed int64) service.SessionSpec {
				return service.SessionSpec{ID: id, Seed: seed, PairsPerIteration: 3}
			},
		}
		w.size = fmt.Sprintf("%d SWAN sessions (default budgets, k=3) stopped after %d judgments; cycles alternate crash and graceful images, %d clients direct",
			len(w.pool), restartAfter, w.clients)
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// loadClients is the closed-loop client count: two, or one on a
// single-CPU host, so the generator never holds more goroutines or
// connections than there are CPUs.
func loadClients() int {
	return min(2, max(1, runtime.NumCPU()))
}

// issuer hands out (pass, pool index) pairs in whole passes: once the
// run's time is up it stops at the next pass boundary, so every run
// covers complete passes. Every pass takes the pool in the same cyclic
// order, starting at an offset the seed picks; a rotation keeps which
// sessions overlap nearly the same from seed to seed.
type issuer struct {
	mu       sync.Mutex
	pool     int
	offset   int
	deadline time.Time
	k        int
	stopped  bool
}

func newIssuer(pool int, seed int64, seconds float64) *issuer {
	offset := int(seed % int64(pool))
	if offset < 0 {
		offset += pool
	}
	return &issuer{pool: pool, offset: offset, deadline: time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

func (is *issuer) next() (pass, idx int, ok bool) {
	is.mu.Lock()
	defer is.mu.Unlock()
	if is.stopped {
		return 0, 0, false
	}
	if is.k%is.pool == 0 {
		if is.k > 0 && !time.Now().Before(is.deadline) {
			is.stopped = true
			return 0, 0, false
		}
	}
	pass, idx = is.k/is.pool, (is.offset+is.k)%is.pool
	is.k++
	return pass, idx, true
}

// drain runs clients goroutines that each take sessions from the
// issuer until it stops, and returns every session run.
func drain(clients int, is *issuer, fn func(r *sessionRun)) []*sessionRun {
	var mu sync.Mutex
	var out []*sessionRun
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pass, idx, ok := is.next()
				if !ok {
					return
				}
				r := &sessionRun{pass: pass, idx: idx}
				fn(r)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

func sessionID(pass, idx int) string { return fmt.Sprintf("p%d-s%02d", pass, idx) }

func runTable1(w *workload, env *runEnv) (*runData, error) {
	d := &runData{}
	var mu sync.Mutex
	is := newIssuer(len(w.pool), env.seed, env.seconds)
	start := time.Now()
	d.sessions = drain(w.clients, is, func(r *sessionRun) {
		r.seed, r.id = w.pool[r.idx], sessionID(r.pass, r.idx)
		setup := driveStepper(r, env.rec, w.user, r.idx%checkEvery == 0)
		mu.Lock()
		d.setups = append(d.setups, setup.Seconds())
		mu.Unlock()
	})
	d.loadWall = time.Since(start).Seconds()
	return d, nil
}

// fleetSetups is how many times a fleet workload builds its system; the
// median is reported and the last one carries the load. One build takes
// a few milliseconds and varies by a fifth, so it takes dozens for the
// median to settle.
const fleetSetups = 40

func runFleet(w *workload, env *runEnv) (*runData, error) {
	d := &runData{}
	var f *fleetSys
	for i := 0; i < fleetSetups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if f, err = startFleet(filepath.Join(env.dir, fmt.Sprintf("fleet%d", i)), env.rec); err != nil {
			return nil, err
		}
		d.setups = append(d.setups, time.Since(start).Seconds())
	}
	drv := newSessionClient(f.url, w.clients, env.rec, w.user, w.batched)
	is := newIssuer(len(w.pool), env.seed, env.seconds)
	start := time.Now()
	d.sessions = drain(w.clients, is, func(r *sessionRun) {
		r.seed, r.id = w.pool[r.idx], sessionID(r.pass, r.idx)
		spec := w.spec(r.id, r.seed)
		r.err = drv.drive(r, &spec, r.idx%checkEvery == 0)
	})
	d.loadWall = time.Since(start).Seconds()
	for _, m := range f.members {
		d.regs = append(d.regs, m.reg)
	}
	if err := f.close(); err != nil {
		return nil, err
	}
	return d, nil
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cleanup:", err)
	}
}
