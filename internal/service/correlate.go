package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"compsynth/internal/obs"
)

// Request correlation: every /v1 request carries an X-Request-Id and a
// W3C traceparent (incoming values are honored, missing ones are
// generated), both echoed on the response and stamped into the access
// log, the session lifecycle events, and the per-session span tracer —
// one ID links an HTTP access-log line to the session events and solver
// spans it caused, and to the flight-recorder dump if the session
// fails. IDs come from crypto/rand, which keeps correlation entirely
// outside the synthesis randomness (math/rand seeded per session).

type ctxKey int

const (
	ctxRequestID ctxKey = iota
	ctxTraceID
)

// RequestID returns the correlation ID bound to ctx ("" when the
// request did not pass through the correlate middleware).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxRequestID).(string)
	return id
}

// TraceID returns the W3C trace-id bound to ctx.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(ctxTraceID).(string)
	return id
}

// WithRequestID binds a correlation ID pair onto ctx (exported for
// clients embedding the manager without the HTTP layer).
func WithRequestID(ctx context.Context, requestID, traceID string) context.Context {
	ctx = context.WithValue(ctx, ctxRequestID, requestID)
	return context.WithValue(ctx, ctxTraceID, traceID)
}

// randHex returns n crypto-random bytes as lowercase hex.
func randHex(n int) string {
	b := make([]byte, n)
	rand.Read(b) //nolint:errcheck // crypto/rand.Read never fails on supported platforms
	return hex.EncodeToString(b)
}

// parseTraceparent extracts the trace-id of a W3C traceparent header
// (version-format "00-<32 hex trace-id>-<16 hex parent-id>-<2 hex
// flags>"). Malformed or all-zero values are rejected so a bad client
// header cannot poison correlation.
func parseTraceparent(h string) (traceID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) < 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 {
		return "", false
	}
	if parts[0] == "ff" {
		return "", false // forbidden version
	}
	zero := true
	for _, c := range parts[1] {
		if !isHexLower(c) {
			return "", false
		}
		if c != '0' {
			zero = false
		}
	}
	if zero {
		return "", false
	}
	return parts[1], true
}

func isHexLower(c rune) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
}

// formatTraceparent renders our side of the trace context: the caller's
// trace-id (or a fresh one) with a fresh parent-id and the sampled flag.
func formatTraceparent(traceID, parentID string) string {
	return "00-" + traceID + "-" + parentID + "-01"
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// sessionFromPath extracts the session ID from a session route. The
// middleware runs outside the ServeMux, so r.PathValue is not populated
// yet; the path shape is stable enough to parse directly.
func sessionFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// Correlate wraps a handler with the same request-correlation
// middleware the daemon API uses (exported for the fleet router, which
// must mint and log the same IDs it forwards so one X-Request-Id links
// the router access line to the member's).
func Correlate(next http.Handler, log *obs.Logger) http.Handler {
	return correlate(next, log)
}

// correlate wraps the API handler with request correlation and the
// access log. Response headers are set before next runs so handlers
// that write early still carry them.
func correlate(next http.Handler, log *obs.Logger) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requestID := strings.TrimSpace(r.Header.Get("X-Request-Id"))
		if requestID == "" || len(requestID) > 128 {
			requestID = randHex(8)
		}
		traceID, ok := parseTraceparent(r.Header.Get("Traceparent"))
		if !ok {
			traceID = randHex(16)
		}
		w.Header().Set("X-Request-Id", requestID)
		w.Header().Set("Traceparent", formatTraceparent(traceID, randHex(8)))

		ctx := WithRequestID(r.Context(), requestID, traceID)
		sr := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sr, r.WithContext(ctx))

		if log.Enabled(slog.LevelInfo) {
			attrs := []any{
				"method", r.Method,
				"path", r.URL.Path,
				"status", sr.status,
				"dur_ms", time.Since(start).Seconds() * 1e3,
				"request_id", requestID,
				"trace_id", traceID,
			}
			if id := sessionFromPath(r.URL.Path); id != "" {
				attrs = append(attrs, "session", id)
			}
			log.Info("http.access", attrs...)
		}
	})
}
