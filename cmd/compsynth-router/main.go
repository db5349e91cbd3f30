// Command compsynth-router fronts a fleet of compsynthd processes with
// consistent-hash session routing, live migration, and replica
// failover (see internal/fleet).
//
// Usage:
//
//	compsynth-router [-addr :8070]
//	                 [-member name=url]... | [-member-file PATH]
//	                 [-replicas R] [-failover-after N]
//	                 [-health-interval D] [-migrate-timeout D]
//	                 [-log DEST] [-log-level LVL] [-v]
//
// Sessions created through the router are placed on a healthy member
// by rendezvous hashing and every /v1 session route is forwarded to
// the session's owner with the correlation headers (X-Request-Id,
// Traceparent) preserved end-to-end. POST /v1/admin/migrate moves one
// session between members; removing a line from -member-file while
// that member is healthy drains all its sessions by migration.
// GET /v1/admin/members reports per-member health.
//
// With -replicas R > 1 every session's journal is replicated to the
// next R-1 members of its rendezvous ranking, and a member that fails
// -failover-after consecutive health probes has its sessions adopted
// by their surviving replicas automatically (see DESIGN.md §16 and
// OPERATIONS.md for the protocol and runbook).
//
// The observability endpoints (/metrics, /debug/vars, /debug/pprof/,
// /trace) are mounted on the same listener; fleet_* metrics cover
// proxy traffic, member health, migrations, and adoptions.
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
	"strings"
	"syscall"
	"time"

	"compsynth/internal/fleet"
	"compsynth/internal/obs"
)

// memberFlags collects repeated -member name=url values.
type memberFlags []fleet.Member

func (m *memberFlags) String() string {
	parts := make([]string, len(*m))
	for i, mm := range *m {
		parts[i] = mm.Name + "=" + mm.URL
	}
	return strings.Join(parts, ",")
}

func (m *memberFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*m = append(*m, fleet.Member{Name: name, URL: strings.TrimSuffix(url, "/")})
	return nil
}

func main() {
	var members memberFlags
	var (
		addr           = flag.String("addr", "127.0.0.1:8070", "listen address for the routed API (and /metrics, /debug/pprof/, /trace)")
		memberFile     = flag.String("member-file", "", "watched membership file, one \"name url\" per line (overrides -member once read)")
		healthInterval = flag.Duration("health-interval", time.Second, "member /readyz probe period")
		watchInterval  = flag.Duration("watch-interval", time.Second, "member-file poll period")
		migrateTimeout = flag.Duration("migrate-timeout", 60*time.Second, "end-to-end bound on one session migration, drain included")
		replicas       = flag.Int("replicas", 2, "journal copies per session, owner included (1 disables replication)")
		failoverAfter  = flag.Int("failover-after", 2, "consecutive failed health probes before a member's sessions fail over (<0 disables)")
		logDest        = flag.String("log", "stderr", "structured JSON log destination: stderr, stdout, a file path, or off")
		logLevel       = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		verbose        = flag.Bool("v", false, "shorthand for -log-level debug")
	)
	flag.Var(&members, "member", "fleet member as name=url (repeatable)")
	flag.Parse()

	level := *logLevel
	if *verbose {
		level = "debug"
	}
	if err := run(*addr, members, *memberFile, *healthInterval, *watchInterval, *migrateTimeout, *replicas, *failoverAfter, *logDest, level); err != nil {
		fmt.Fprintln(os.Stderr, "compsynth-router:", err)
		os.Exit(1)
	}
}

func run(addr string, members []fleet.Member, memberFile string, healthInterval, watchInterval, migrateTimeout time.Duration, replicas, failoverAfter int, logDest, logLevel string) error {
	if len(members) == 0 && memberFile == "" {
		return fmt.Errorf("no members: pass -member name=url or -member-file")
	}
	logger, closeLog, err := obs.OpenLogger(logDest, logLevel)
	if err != nil {
		return err
	}
	defer closeLog()

	observer := &obs.Observer{
		Registry: obs.NewRegistry(),
		Tracer:   obs.NewTracer(0),
		Logger:   logger,
	}
	router, err := fleet.New(fleet.Config{
		Members:        members,
		MemberFile:     memberFile,
		HealthInterval: healthInterval,
		WatchInterval:  watchInterval,
		MigrateTimeout: migrateTimeout,
		Replicas:       replicas,
		FailoverAfter:  failoverAfter,
		Obs:            observer,
		Log:            logger,
	})
	if err != nil {
		return err
	}
	defer router.Close()

	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           router.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(lis) }()

	stderr := log.New(os.Stderr, "compsynth-router: ", log.LstdFlags)
	stderr.Printf("routing on http://%s/ (%d static members, member-file %q)", lis.Addr(), len(members), memberFile)
	logger.Info("router.start", "addr", lis.Addr().String(), "members", len(members), "member_file", memberFile)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stderr.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	return nil
}
