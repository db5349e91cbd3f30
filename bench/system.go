package main

// The system under test, built in-process from the same public
// constructors the binaries use: service.New + service.Handler wired
// like compsynthd (registry and tracer, info logs, Workers 4,
// AcquireWait 2s, no idle eviction), and fleet.New + Router.Handler
// with the compsynth-router defaults (Replicas 2, WarmInterval 2,
// FailoverAfter 2). Everything talks over real loopback listeners.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"compsynth/internal/fleet"
	"compsynth/internal/obs"
	"compsynth/internal/service"
)

// server is one HTTP listener and the goroutine serving it.
type server struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*server, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + lis.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(lis) }()
	return s, nil
}

// stop closes the listener and every connection, and waits for the
// serving goroutine. It runs once the load is over; Shutdown would wait
// on connections the clients' pools opened but never used.
func (s *server) stop() {
	s.srv.Close()
	<-s.done
}

func discardLogger() *obs.Logger { return obs.NewLogger(io.Discard, slog.LevelInfo) }

// member is one daemon: a session manager behind its HTTP handler.
type member struct {
	name string
	dir  string
	mgr  *service.Manager
	reg  *obs.Registry
	*server
}

// startMember builds a member on dir, recovering whatever journals it
// holds, and serves it.
func startMember(name, dir string, rec *recorder) (*member, error) {
	logger := discardLogger()
	observer := &obs.Observer{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(0), Logger: logger}
	mgr, err := service.New(service.Config{
		DataDir:       dir,
		Workers:       4,
		AcquireWait:   2 * time.Second,
		IdleTTL:       0,
		Obs:           observer,
		Log:           logger,
		ReplicaClient: tracedClient(rec, layerReplica, 8),
	})
	if err != nil {
		return nil, err
	}
	srv, err := serve(spanHandler(rec, layerService, service.Handler(mgr)))
	if err != nil {
		mgr.Abort()
		return nil, err
	}
	return &member{name: name, dir: dir, mgr: mgr, reg: observer.Registry, server: srv}, nil
}

// close stops serving, then shuts the manager down gracefully
// (checkpointing parked sessions) or, with crash set, drops it like a
// kill -9 would.
func (m *member) close(crash bool) error {
	m.stop()
	if crash {
		m.mgr.Abort()
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return m.mgr.Close(ctx)
}

// fleetSys is two members behind a router.
type fleetSys struct {
	members []*member
	router  *fleet.Router
	*server
}

func startFleet(dir string, rec *recorder) (*fleetSys, error) {
	f := &fleetSys{}
	var ms []fleet.Member
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("m%d", i)
		m, err := startMember(name, fmt.Sprintf("%s/%s", dir, name), rec)
		if err != nil {
			f.close()
			return nil, err
		}
		f.members = append(f.members, m)
		ms = append(ms, fleet.Member{Name: name, URL: m.url})
	}
	logger := discardLogger()
	router, err := fleet.New(fleet.Config{
		Members:       ms,
		Replicas:      2,
		WarmInterval:  2,
		FailoverAfter: 2,
		Obs:           &obs.Observer{Registry: obs.NewRegistry(), Tracer: obs.NewTracer(0), Logger: logger},
		Log:           logger,
		Client:        tracedClient(rec, layerFleetOut, 32),
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = router
	if f.server, err = serve(spanHandler(rec, layerFleet, router.Handler())); err != nil {
		f.close()
		return nil, err
	}
	urls := []string{f.url}
	for _, m := range f.members {
		urls = append(urls, m.url)
	}
	if err := waitReady(urls...); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleetSys) close() error {
	if f.server != nil {
		f.stop()
	}
	if f.router != nil {
		f.router.Close()
	}
	var errs []error
	for _, m := range f.members {
		errs = append(errs, m.close(false))
	}
	return errors.Join(errs...)
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

// waitReady polls each URL's /readyz until it answers 200.
func waitReady(urls ...string) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, u := range urls {
		for {
			resp, err := probeClient.Get(u + "/readyz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after 30s", u)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}
