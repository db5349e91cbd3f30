// Command compsynthd serves comparative synthesis sessions over
// HTTP/JSON: create a session, long-poll for rounds of distinguishing
// scenario pairs, post judgments, and export or import transcripts — the
// interactive loop of cmd/compsynth inverted into a stateful service
// (see internal/service for the API).
//
// Usage:
//
//	compsynthd [-addr :8080] [-data DIR] [-workers N]
//	           [-max-sessions N] [-idle-ttl D] [-step-timeout D]
//	           [-grace D] [-log DEST] [-log-level LVL] [-flight N] [-v]
//
// Every accepted answer is journaled (fsynced) under -data before the
// solver consumes it, so killing the daemon at any point loses nothing:
// on restart sessions are rebuilt from their journals and continue
// exactly where they left off. SIGINT/SIGTERM triggers a graceful stop
// bounded by -grace: the listener drains and in-flight synthesis steps
// finish or are cancelled; unfinished sessions resume on restart by
// replaying their journals.
// SIGQUIT writes a flight-recorder dump for every resident session into
// -data (without stopping), for live post-mortems.
//
// Structured JSON logs go to -log (stderr, stdout, a file path, or
// "off"); every record carries the session and request-correlation
// attributes, and every /v1 response echoes X-Request-Id and a W3C
// traceparent so one ID links the access log, session events, solver
// spans, and — if the session fails — its <id>.flight.json dump. The
// listener binds before journal recovery replays: /healthz is live
// immediately, while /readyz (and the API) answer 503 until recovery
// completes.
//
// The observability endpoints (/metrics, /debug/vars, /debug/pprof/,
// /trace) are mounted on the same listener as the API.
//
// The session API lives under /v1: POST /v1/sessions creates, GET
// /v1/sessions/{id}/queries?wait=D long-polls for the pending round,
// and POST /v1/sessions/{id}/judgments answers it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"compsynth/internal/obs"
	"compsynth/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8080", "listen address for the API (and /metrics, /debug/pprof/, /trace)")
		dataDir     = flag.String("data", "compsynthd-data", "directory for per-session journals (crash recovery)")
		workers     = flag.Int("workers", 4, "max concurrent synthesis steps (the worker pool) and startup journal replays")
		maxSessions = flag.Int("max-sessions", 64, "max resident sessions")
		idleTTL     = flag.Duration("idle-ttl", 30*time.Minute, "evict sessions idle this long; they reload from their journals on demand (0 disables)")
		stepTimeout = flag.Duration("step-timeout", 5*time.Minute, "fail a session whose synthesis step exceeds this")
		acquireWait = flag.Duration("acquire-wait", 2*time.Second, "how long a request queues for a worker slot before 429")
		longPoll    = flag.Duration("long-poll", 30*time.Second, "cap on the ?wait= query long-poll")
		grace       = flag.Duration("grace", 15*time.Second, "graceful shutdown deadline on SIGINT/SIGTERM")
		logDest     = flag.String("log", "stderr", "structured JSON log destination: stderr, stdout, a file path, or off")
		logLevel    = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		flight      = flag.Int("flight", 0, "flight-recorder ring capacity (0 selects the default)")
		replTimeout = flag.Duration("replica-timeout", 2*time.Second, "bound on one replica push round trip (replicated fleets)")
		verbose     = flag.Bool("v", false, "shorthand for -log-level debug")
	)
	flag.Parse()

	level := *logLevel
	if *verbose {
		level = "debug"
	}
	opts := daemonOptions{
		addr:        *addr,
		dataDir:     *dataDir,
		workers:     *workers,
		maxSessions: *maxSessions,
		idleTTL:     *idleTTL,
		stepTimeout: *stepTimeout,
		acquireWait: *acquireWait,
		longPoll:    *longPoll,
		grace:       *grace,
		logDest:     *logDest,
		logLevel:    level,
		flight:      *flight,
		replTimeout: *replTimeout,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "compsynthd:", err)
		os.Exit(1)
	}
}

type daemonOptions struct {
	addr        string
	dataDir     string
	workers     int
	maxSessions int
	idleTTL     time.Duration
	stepTimeout time.Duration
	acquireWait time.Duration
	longPoll    time.Duration
	grace       time.Duration
	logDest     string
	logLevel    string
	flight      int
	replTimeout time.Duration
	// logWriter, when non-nil, overrides logDest with a direct sink
	// (tests capture the JSON stream without touching process stderr).
	logWriter interface{ Write([]byte) (int, error) }
}

// daemon is a started compsynthd: listener bound, recovery running or
// done, handler swapping from not-ready to live. Tests drive it
// directly; main wraps it with signal handling.
type daemon struct {
	mgr      *service.Manager
	lis      net.Listener
	srv      *http.Server
	closeLog func() error
	errc     chan error
}

// startDaemon binds the listener, serves the not-ready handler, runs
// journal recovery, then swaps the live API in — so /healthz answers
// from the first moment while /readyz gates traffic on recovery.
func startDaemon(opts daemonOptions) (*daemon, error) {
	var logger *obs.Logger
	closeLog := func() error { return nil }
	if opts.logWriter != nil {
		lv, err := obs.ParseLevel(opts.logLevel)
		if err != nil {
			return nil, err
		}
		logger = obs.NewLogger(opts.logWriter, lv)
	} else {
		var err error
		logger, closeLog, err = obs.OpenLogger(opts.logDest, opts.logLevel)
		if err != nil {
			return nil, err
		}
	}

	lis, err := net.Listen("tcp", opts.addr)
	if err != nil {
		closeLog()
		return nil, err
	}
	// atomic.Value demands one concrete type across stores, and the
	// not-ready and live handlers differ — box them.
	type handlerBox struct{ h http.Handler }
	var handler atomic.Value
	handler.Store(handlerBox{service.NotReadyHandler("recovering: journal replay in progress")})
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(handlerBox).h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()

	observer := &obs.Observer{
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(0),
		Logger:   logger,
	}
	mgr, err := service.New(service.Config{
		DataDir:        opts.dataDir,
		Workers:        opts.workers,
		MaxSessions:    opts.maxSessions,
		IdleTTL:        opts.idleTTL,
		StepTimeout:    opts.stepTimeout,
		AcquireWait:    opts.acquireWait,
		LongPollMax:    opts.longPoll,
		Obs:            observer,
		Log:            logger,
		FlightCapacity: opts.flight,
		ReplicaTimeout: opts.replTimeout,
	})
	if err != nil {
		srv.Close()
		closeLog()
		return nil, err
	}
	handler.Store(handlerBox{service.Handler(mgr)})
	logger.Info("daemon.start",
		"addr", lis.Addr().String(),
		"data", opts.dataDir,
		"workers", opts.workers)
	return &daemon{mgr: mgr, lis: lis, srv: srv, closeLog: closeLog, errc: errc}, nil
}

func run(opts daemonOptions) error {
	stderr := log.New(os.Stderr, "compsynthd: ", log.LstdFlags)
	d, err := startDaemon(opts)
	if err != nil {
		return err
	}
	defer d.closeLog()
	stderr.Printf("serving on http://%s/ (API under /v1/, telemetry at /metrics /debug/pprof/ /trace)", d.lis.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)

	for {
		select {
		case err := <-d.errc:
			d.mgr.Abort()
			return err
		case <-quitc:
			// Live post-mortem: dump every resident session's flight
			// recorder without stopping the daemon.
			n := d.mgr.DumpAll("sigquit")
			stderr.Printf("SIGQUIT: wrote %d flight dumps to %s", n, opts.dataDir)
			continue
		case <-ctx.Done():
		}
		break
	}

	stderr.Printf("shutting down (grace %v): draining requests and synthesis steps", opts.grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), opts.grace)
	defer cancel()
	if err := d.srv.Shutdown(shutCtx); err != nil {
		d.srv.Close()
	}
	if err := d.mgr.Close(shutCtx); err != nil {
		stderr.Printf("shutdown deadline passed; unparked sessions were cancelled (journals are intact): %v", err)
	}
	stderr.Printf("bye")
	return nil
}
