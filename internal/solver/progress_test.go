package solver

import (
	"context"
	"log/slog"
	"math/rand"
	"sync"
	"testing"

	"compsynth/internal/obs"
	"compsynth/internal/sketch"
)

// TestEmitWaveDisabledZeroAlloc pins the hot-path contract of the live
// introspection layer: with no Progress sink and no logger attached,
// the per-wave emission inside the prune loop allocates nothing. A
// regression here taxes every branch-and-prune wave of every search,
// observability on or off.
func TestEmitWaveDisabledZeroAlloc(t *testing.T) {
	sys := NewSystem(sketch.SWAN(), 0, nil)
	if a := testing.AllocsPerRun(200, func() {
		sys.emitWave(3, 128, 64)
	}); a != 0 {
		t.Fatalf("emitWave with no sinks: %v allocs/op, want 0", a)
	}

	// Progress alone is pure atomics — still zero.
	sys.SetProgress(&Progress{})
	if a := testing.AllocsPerRun(200, func() {
		sys.emitWave(3, 128, 64)
	}); a != 0 {
		t.Fatalf("emitWave with Progress attached: %v allocs/op, want 0", a)
	}

	// A nil logger attached explicitly must behave like no logger: the
	// obs.Logger nil-mode Event emission is the acceptance-pinned path.
	sys.SetProgress(nil)
	sys.SetLogger(nil)
	if a := testing.AllocsPerRun(200, func() {
		sys.emitWave(5, 64, 32)
	}); a != 0 {
		t.Fatalf("emitWave with nil logger: %v allocs/op, want 0", a)
	}
}

// TestProgressCountsPruneWork runs a real search with a Progress sink
// attached and checks the gauges move and agree with the Stats
// counters where they overlap.
func TestProgressCountsPruneWork(t *testing.T) {
	stats := &Stats{}
	sys := newTwoPrefSystem(t, stats)
	prog := &Progress{}
	sys.SetProgress(prog)

	rng := rand.New(rand.NewSource(7))
	opts := DefaultOptions()
	opts.Samples = 0 // force the prune engine to do the work
	opts.RepairRestarts = 0
	_, _, err := NewSearch(sys).FindCandidate(context.Background(), opts, rng)
	if err != nil {
		t.Fatalf("FindCandidate: %v", err)
	}

	snap := prog.Snapshot()
	if snap.Searches == 0 {
		t.Fatalf("progress recorded no searches: %+v", snap)
	}
	if snap.Waves == 0 {
		t.Fatalf("progress recorded no waves: %+v", snap)
	}
	if got, want := snap.BoxesPruned, stats.BoxesPruned.Load(); got != want {
		t.Fatalf("progress BoxesPruned = %d, Stats.BoxesPruned = %d", got, want)
	}
}

// TestProgressConcurrentSnapshot hammers Snapshot while a search is
// feeding the gauges — the monitoring access pattern — under -race.
func TestProgressConcurrentSnapshot(t *testing.T) {
	stats := &Stats{}
	sys := newTwoPrefSystem(t, stats)
	prog := &Progress{}
	sys.SetProgress(prog)
	sys.SetLogger(obs.NewLogger(nil, slog.LevelDebug).
		WithRecorder(obs.NewFlightRecorder(64)))

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = prog.Snapshot()
			}
		}
	}()

	rng := rand.New(rand.NewSource(11))
	opts := DefaultOptions()
	opts.Samples = 0
	opts.RepairRestarts = 0
	if _, _, err := NewSearch(sys).FindCandidate(context.Background(), opts, rng); err != nil {
		t.Fatalf("FindCandidate: %v", err)
	}
	close(done)
	wg.Wait()
	if prog.Snapshot().Waves == 0 {
		t.Fatal("no waves recorded")
	}
}

// newTwoPrefSystem builds a small real system with a couple of
// preference constraints so the prune engine has work to do.
func newTwoPrefSystem(t *testing.T, stats *Stats) *System {
	t.Helper()
	sk := sketch.SWAN()
	rng := rand.New(rand.NewSource(3))
	scs := sk.Space().RandomN(rng, 4)
	sys := NewSystem(sk, 0, stats)
	sys.AddPref(Pref{Better: scs[0], Worse: scs[1]})
	sys.AddPref(Pref{Better: scs[2], Worse: scs[3]})
	return sys
}
