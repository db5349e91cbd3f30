package main

// restart: a member recovers from its data directory and its sessions
// finish. Set-up runs the pool to restartAfter judgments twice, on two
// members that end differently: one is dropped like a kill -9
// (Manager.Abort, journals only) and one shuts down gracefully
// (Manager.Close, which checkpoints every parked session). The
// measured cycles then alternate between the two images: copy, start a
// member on the copy (its recovery), and drive every session to its
// end. Crash recovery replays each journal from the start; graceful
// recovery preloads the checkpoint.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"compsynth/internal/service"
)

// restartAfter is how many judgments each session takes before the
// member goes down; sessions stop at the first round boundary at or
// after it, with their next round parked.
const restartAfter = 15

func runRestart(w *workload, env *runEnv) (*runData, error) {
	d := &runData{}
	crashImg := filepath.Join(env.dir, "image-crash")
	gracefulImg := filepath.Join(env.dir, "image-graceful")
	for _, img := range []string{crashImg, gracefulImg} {
		if err := buildImage(w, img, img == crashImg); err != nil {
			return nil, fmt.Errorf("restart image: %w", err)
		}
	}
	var err error
	if d.journalBytes, d.journalAnswers, err = journalStats(crashImg); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(env.seconds * float64(time.Second)))
	for cycle := 0; cycle%2 == 1 || cycle == 0 || time.Now().Before(deadline); cycle++ {
		crash := cycle%2 == 0
		img := gracefulImg
		if crash {
			img = crashImg
		}
		dir := filepath.Join(env.dir, fmt.Sprintf("cycle%d", cycle))
		if err := copyDir(img, dir); err != nil {
			return nil, err
		}
		start := time.Now()
		m, err := startMember("r", dir, env.rec)
		if err != nil {
			return nil, err
		}
		if err := waitReady(m.url); err != nil {
			m.close(true)
			return nil, err
		}
		rec := time.Since(start).Seconds()
		if crash {
			d.crash = append(d.crash, rec)
			d.setups = append(d.setups, rec)
		} else {
			d.graceful = append(d.graceful, rec)
		}
		drv := newSessionClient(m.url, w.clients, env.rec, w.user, w.batched)
		runs := make([]*sessionRun, len(w.pool))
		for i := range runs {
			runs[i] = &sessionRun{pass: cycle, idx: i, seed: w.pool[i], id: restartID(i)}
		}
		forEach(w.clients, runs, func(r *sessionRun) {
			r.err = drv.drive(r, nil, r.idx%checkEvery == 0)
		})
		d.loadWall += time.Since(start).Seconds()
		d.sessions = append(d.sessions, runs...)
		d.regs = append(d.regs, m.reg)
		if err := m.close(false); err != nil {
			return nil, err
		}
		removeAll(dir)
	}
	return d, nil
}

func restartID(i int) string { return fmt.Sprintf("r%02d", i) }

// forEach runs fn over runs with clients goroutines.
func forEach(clients int, runs []*sessionRun, fn func(r *sessionRun)) {
	var wg sync.WaitGroup
	next := make(chan *sessionRun)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range next {
				fn(r)
			}
		}()
	}
	for _, r := range runs {
		next <- r
	}
	close(next)
	wg.Wait()
}

// buildImage runs every pool session to restartAfter judgments on a
// fresh member in dir, then stops the member: dropped (crash) or shut
// down gracefully.
func buildImage(w *workload, dir string, crash bool) error {
	m, err := startMember("r", dir, nil)
	if err != nil {
		return err
	}
	drv := newSessionClient(m.url, w.clients, nil, w.user, w.batched)
	runs := make([]*sessionRun, len(w.pool))
	for i := range runs {
		runs[i] = &sessionRun{idx: i, seed: w.pool[i], id: restartID(i)}
	}
	var mu sync.Mutex
	var firstErr error
	forEach(w.clients, runs, func(r *sessionRun) {
		spec := w.spec(r.id, r.seed)
		if err := drv.partial(r, &spec, restartAfter); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	if cerr := m.close(crash); firstErr == nil {
		firstErr = cerr
	}
	return firstErr
}

// partial creates a session and answers whole rounds until at least n
// judgments are in, then polls once more so the next round is parked
// (a graceful shutdown checkpoints only parked sessions).
func (d *sessionClient) partial(r *sessionRun, spec *service.SessionSpec, n int) error {
	base := "/v1/sessions/" + r.id
	if _, err := d.call(http.MethodPost, "/v1/sessions", spec, nil); err != nil {
		return err
	}
	for {
		var doc roundDoc
		if _, err := d.call(http.MethodGet, base+"/queries?wait=60s", nil, &doc); err != nil {
			return err
		}
		if doc.State != "awaiting_answer" {
			return fmt.Errorf("session %s ended (%s) before %d judgments", r.id, doc.State, n)
		}
		if r.answers >= n {
			return nil
		}
		js := make([]judgment, len(doc.Queries))
		for i, q := range doc.Queries {
			js[i] = judgment{Seq: q.Seq, Pref: prefWord(judge(nil, d.user, q.A, q.B))}
		}
		if _, err := d.call(http.MethodPost, base+"/judgments", map[string]any{"judgments": js}, nil); err != nil {
			return err
		}
		r.answers += len(js)
	}
}

// journalStats sums the journal bytes and answer records in a data
// directory.
func journalStats(dir string) (bytesTotal int64, answers int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.journal"))
	if err != nil {
		return 0, 0, err
	}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return 0, 0, err
		}
		bytesTotal += int64(len(raw))
		answers += bytes.Count(raw, []byte(`"type":"answer"`))
	}
	return bytesTotal, answers, nil
}

// copyDir copies the regular files of src into a new directory dst
// (data directories are flat, plus an optional replica subdirectory).
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
