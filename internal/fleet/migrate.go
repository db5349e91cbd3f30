package fleet

// Live session migration (DESIGN.md §14). The protocol, in order:
//
//  1. gate the session's router traffic (route.draining) and wait for
//     the in-flight count to drain — an in-flight answer either lands
//     before the export (the bundle carries it) or never reached the
//     old owner and is retried by the client against the new one;
//  2. export the migration bundle from the old owner, retrying while
//     the session is mid-step (409 + Retry-After from the daemon);
//  3. restore the session on the new owner with one PUT …/restore of
//     the raw bundle: the daemon writes the bundle's journal records
//     as its journal under the same ID and rebuilds the session by
//     deterministic replay, checking every regenerated query against
//     the journal (a resident or journaled duplicate, or a create
//     record naming another session, is a hard 409);
//  4. delete the session, journal included, from the old owner
//     (best-effort: the restored copy is authoritative from here on,
//     and a leftover source journal only wastes disk);
//  5. flip the routing entry and reopen the gate.
//
// A failure before step 4 leaves the session on the old owner and the
// route unflipped. A replay that fails on the target removes the
// journal it wrote (installJournal), so no half-built copy is left to
// clean up, and there is never a moment with two routable copies.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"compsynth/internal/service"
)

var (
	errUnknownSession = errors.New("fleet: unknown session")
	errNotMigratable  = errors.New("fleet: session is not migratable")
	errMigrating      = errors.New("fleet: migration already in progress")
	errNoTarget       = errors.New("fleet: no eligible target member")
)

// Migrate moves one session. target names the destination member;
// empty re-picks by rendezvous among the placeable members excluding
// the current owner. Returns the source and destination member names.
func (r *Router) Migrate(ctx context.Context, id, target string) (from, to string, err error) {
	rt := r.routeFor(id)
	if rt == nil {
		if owner := r.probeForSession(ctx, id); owner != nil {
			rt = r.setRoute(id, owner.Name)
		} else {
			return "", "", fmt.Errorf("%w: %s", errUnknownSession, id)
		}
	}
	rt.mu.Lock()
	srcName := rt.owner
	rt.mu.Unlock()
	src := r.memberByName(srcName)
	if src == nil {
		return "", "", fmt.Errorf("fleet: session %s: owner %s left the fleet", id, srcName)
	}
	var dst *member
	if target != "" {
		if target == srcName {
			return "", "", fmt.Errorf("%w: %s already owns %s", errNotMigratable, target, id)
		}
		dst = r.memberByName(target)
		if dst == nil || !dst.healthy.Load() {
			return "", "", fmt.Errorf("%w: %s", errNoTarget, target)
		}
	} else {
		r.mu.Lock()
		candidates := r.placeableLocked()
		r.mu.Unlock()
		filtered := candidates[:0]
		for _, m := range candidates {
			if m.Name != srcName {
				filtered = append(filtered, m)
			}
		}
		if dst = pick(filtered, id); dst == nil {
			return "", "", fmt.Errorf("%w: for %s", errNoTarget, id)
		}
	}

	// Gate the route.
	rt.mu.Lock()
	if rt.draining {
		rt.mu.Unlock()
		return "", "", fmt.Errorf("%w: %s", errMigrating, id)
	}
	rt.draining = true
	rt.unblocked = make(chan struct{})
	drained := make(chan struct{})
	if rt.inflight == 0 {
		close(drained)
	} else {
		rt.drained = drained
	}
	rt.mu.Unlock()

	start := time.Now()
	success := false
	defer func() {
		rt.mu.Lock()
		rt.draining = false
		rt.drained = nil
		if success {
			rt.owner = dst.Name
		}
		close(rt.unblocked)
		rt.mu.Unlock()
		if success {
			r.met.migrations.Inc()
			r.met.migrateSeconds.Observe(time.Since(start).Seconds())
			r.log.Info("fleet.migrate", "session", id, "from", srcName, "to", dst.Name,
				"dur_ms", time.Since(start).Seconds()*1e3)
		} else {
			r.met.migrationFailures.Inc()
			if err != nil {
				r.log.Warn("fleet.migrate.failed", "session", id, "from", srcName, "error", err.Error())
			}
		}
	}()

	dctx, cancel := context.WithTimeout(ctx, r.cfg.MigrateTimeout)
	defer cancel()
	select {
	case <-drained:
	case <-dctx.Done():
		return "", "", fmt.Errorf("fleet: session %s: drain: %w", id, dctx.Err())
	}

	rawBundle, err := r.fetchBundle(dctx, src, id)
	if err != nil {
		return "", "", err
	}

	// One call adopts the session on the target: the daemon rebuilds it
	// by deterministic replay of the bundle's journal records (the
	// bit-equal resume path). The raw bytes pass through untouched — no
	// re-encode between export and import.
	status, body, err := r.do(dctx, http.MethodPut, dst.URL+"/v1/sessions/"+id+"/restore", rawBundle)
	if err != nil {
		return "", "", fmt.Errorf("fleet: restore on %s: %w", dst.Name, err)
	}
	if status != http.StatusOK {
		return "", "", fmt.Errorf("fleet: restore on %s: %d %s", dst.Name, status, firstLine(body))
	}

	if status, body, err = r.do(dctx, http.MethodDelete, src.URL+"/v1/sessions/"+id, nil); err != nil || (status != http.StatusOK && status != http.StatusNoContent && status != http.StatusNotFound) {
		// The copy on the target is authoritative from here on; the
		// leftover source copy only wastes a journal until its daemon is
		// next asked for it.
		r.log.Warn("fleet.migrate.source_delete", "session", id, "member", srcName,
			"status", status, "detail", firstLine(body))
	}

	success = true
	return srcName, dst.Name, nil
}

// fetchBundle exports the migration bundle (returned as raw bytes so
// the restore call ships exactly what the source produced), retrying
// while the session is mid-step. The daemon distinguishes the two 409s
// by header: busy carries Retry-After (quiesce and come back), conflict
// does not (done/failed sessions are not migratable).
func (r *Router) fetchBundle(ctx context.Context, src *member, id string) ([]byte, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, src.URL+"/v1/sessions/"+id+"/bundle", nil)
		if err != nil {
			return nil, err
		}
		resp, err := r.client.Do(req)
		if err != nil {
			return nil, fmt.Errorf("fleet: bundle from %s: %w", src.Name, err)
		}
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusOK:
			var b service.MigrationBundle
			if err := json.Unmarshal(raw, &b); err != nil {
				return nil, fmt.Errorf("fleet: bundle from %s: %w", src.Name, err)
			}
			return raw, nil
		case resp.StatusCode == http.StatusConflict && resp.Header.Get("Retry-After") != "":
			select {
			case <-time.After(r.cfg.DrainRetry):
			case <-ctx.Done():
				return nil, fmt.Errorf("fleet: bundle from %s: %w", src.Name, ctx.Err())
			}
		case resp.StatusCode == http.StatusConflict:
			return nil, fmt.Errorf("%w: %s (%s)", errNotMigratable, id, firstLine(raw))
		case resp.StatusCode == http.StatusNotFound:
			return nil, fmt.Errorf("%w: %s vanished from %s", errUnknownSession, id, src.Name)
		default:
			return nil, fmt.Errorf("fleet: bundle from %s: %d %s", src.Name, resp.StatusCode, firstLine(raw))
		}
	}
}

// drainMember migrates every live session off a departed member (run
// as a goroutine per departure; r.wg accounted by the caller).
func (r *Router) drainMember(m *member) {
	defer r.wg.Done()
	r.mu.Lock()
	var ids []string
	for id, rt := range r.routes {
		rt.mu.Lock()
		if rt.owner == m.Name {
			ids = append(ids, id)
		}
		rt.mu.Unlock()
	}
	r.mu.Unlock()
	moved := 0
	for _, id := range ids {
		if m.departed.Load() == false {
			return // rejoined mid-drain
		}
		ctx, cancel := timeoutContext(r.stop, r.cfg.MigrateTimeout)
		_, _, err := r.Migrate(ctx, id, "")
		cancel()
		if err == nil {
			moved++
		} else if !errors.Is(err, errNotMigratable) {
			r.log.Warn("fleet.drain.failed", "member", m.Name, "session", id, "error", err.Error())
		}
	}
	r.log.Info("fleet.drain", "member", m.Name, "sessions", len(ids), "migrated", moved)
}

// do is the control-plane request helper (bundle/create/import/delete
// traffic — not the proxy path, which streams the client's own headers
// through).
func (r *Router) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, raw, nil
}

// firstLine trims an error body for log/error embedding.
func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
