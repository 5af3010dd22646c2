package serve

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// DefaultMaxBody is the request body cap (-max-body) of both binaries.
const DefaultMaxBody = 4 << 20

// Flags holds the serving flags both binaries declare: read admission
// (-concurrency, -queue-depth, -queue-wait), the match deadline and the
// request body cap.
type Flags struct {
	Concurrency   int
	QueueDepth    int
	QueueWait     time.Duration
	MatchDeadline time.Duration
	MaxBody       int64
}

// Register declares the serving flags on fs with their defaults.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Concurrency, "concurrency", 0, "concurrent match requests admitted; 0 sizes the pool to the match worker count")
	fs.IntVar(&f.QueueDepth, "queue-depth", 0, "bounded admission queue per pool; arrivals beyond it are rejected with 429 immediately; 0 means 8x the pool's concurrency")
	fs.DurationVar(&f.QueueWait, "queue-wait", time.Second, "queueing latency target: a request that waits longer for a slot is rejected with 429 and a Retry-After hint")
	fs.DurationVar(&f.MatchDeadline, "match-deadline", 30*time.Second, "end-to-end deadline per match request (a router sheds a shard that misses it and marks the reply degraded); 0 disables")
	fs.Int64Var(&f.MaxBody, "max-body", DefaultMaxBody, "request body cap in bytes; larger bodies are rejected with 413")
}

// Validate rejects negative serving flags; zero keeps each flag's
// documented default meaning.
func (f *Flags) Validate() error {
	if f.Concurrency < 0 || f.QueueDepth < 0 {
		return errors.New("-concurrency and -queue-depth must be >= 0")
	}
	if f.QueueWait < 0 || f.MatchDeadline < 0 || f.MaxBody < 0 {
		return errors.New("-queue-wait, -match-deadline and -max-body must be >= 0")
	}
	return nil
}

// ReadPool sizes the match-traffic admission pool from the flags.
func (f *Flags) ReadPool() PoolOptions {
	return PoolOptions{Slots: f.Concurrency, Queue: f.QueueDepth, MaxWait: f.QueueWait}
}

// shutdownTimeout bounds how long ListenAndDrain waits for in-flight
// requests once draining has begun.
const shutdownTimeout = 15 * time.Second

// Route is one endpoint of a route table. The table form keeps the mux,
// the command docs and docs/API.md mechanically comparable (the
// doc-conformance tests walk it).
type Route struct {
	// Method is the HTTP method the handler serves.
	Method string
	// Pattern is the net/http ServeMux path pattern.
	Pattern string
	// Handler serves the endpoint.
	Handler http.HandlerFunc
}

// Handler builds the dispatch tree for a route table. Dispatch is
// per-pattern with an explicit method map, so 405 (with a sorted Allow
// header) and 404 keep the JSON error contract instead of net/http's
// plain-text defaults. Once draining reports true, every request except
// the /healthz and /readyz probes is refused with 503 + Retry-After while
// in-flight requests finish.
func Handler(routes []Route, draining func() bool) http.Handler {
	byPattern := map[string]map[string]http.HandlerFunc{}
	var patterns []string
	for _, rt := range routes {
		if byPattern[rt.Pattern] == nil {
			byPattern[rt.Pattern] = map[string]http.HandlerFunc{}
			patterns = append(patterns, rt.Pattern)
		}
		byPattern[rt.Pattern][rt.Method] = rt.Handler
	}
	mux := http.NewServeMux()
	for _, pattern := range patterns {
		methods := byPattern[pattern]
		allowed := make([]string, 0, len(methods))
		for m := range methods {
			allowed = append(allowed, m)
		}
		sort.Strings(allowed)
		allow := strings.Join(allowed, ", ")
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if h, ok := methods[r.Method]; ok {
				h(w, r)
				return
			}
			w.Header().Set("Allow", allow)
			WriteError(w, Errorf(http.StatusMethodNotAllowed, "method %s is not allowed for %s (allowed: %s)", r.Method, r.URL.Path, allow))
		})
	}
	// Everything not matched above: JSON 404 instead of the mux default.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, Errorf(http.StatusNotFound, "no such endpoint: %s", r.URL.Path))
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if draining() && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
			WriteError(w, errShuttingDown)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// statusError carries a status code, and for overload rejections a
// Retry-After hint, from a handler helper to WriteError.
type statusError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *statusError) Error() string { return e.msg }

// Errorf returns an error that WriteError reports with the given status
// code.
func Errorf(code int, format string, args ...any) error {
	return &statusError{code: code, msg: fmt.Sprintf(format, args...)}
}

// errShuttingDown is the 503 for requests that arrive while draining.
var errShuttingDown = &statusError{code: http.StatusServiceUnavailable, msg: "server is shutting down", retryAfter: time.Second}

// OverloadError maps admission and context errors onto the HTTP overload
// contract: 429 for shed load (ErrQueueFull, ErrQueueWait) with a
// Retry-After of the pool's maxWait, and 503 for draining, a blown
// deadline and a canceled request. Every Retry-After is at least one
// second. Any other error passes through.
func OverloadError(err error, maxWait time.Duration) error {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQueueWait):
		return &statusError{code: http.StatusTooManyRequests, msg: "server overloaded: " + err.Error(), retryAfter: max(maxWait, time.Second)}
	case errors.Is(err, ErrDraining):
		return errShuttingDown
	case errors.Is(err, context.DeadlineExceeded):
		return &statusError{code: http.StatusServiceUnavailable, msg: "match deadline exceeded under load; retry", retryAfter: time.Second}
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for the access log only.
		return Errorf(http.StatusServiceUnavailable, "request canceled by client")
	}
	return err
}

// WriteJSON writes v as a compact JSON response, one line ending in
// "\n", with the given status.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("writing response: %v", err)
	}
}

// WriteError writes err as a JSON {"error": ...} object with the status
// and Retry-After hint (whole seconds, rounded up) of an Errorf or
// OverloadError error, 500 for anything else.
func WriteError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *statusError
	if errors.As(err, &he) {
		code = he.code
		if he.retryAfter > 0 {
			secs := int((he.retryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	}
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// DecodeJSON decodes a JSON request body into v. Unknown fields are
// rejected, so client typos surface as errors instead of silent defaults,
// and the body is capped at maxBody bytes (<= 0: DefaultMaxBody): beyond
// it the reply is a 413 naming -max-body and the connection is closed. A
// body whose Content-Length already passes the cap is refused unread;
// any other streams through the decoder, whose buffer grows only as bytes
// arrive (http.MaxBytesReader stops a mis-sized upload from being read to
// the end just to be refused).
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBody int64, v any) error {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	if r.ContentLength > maxBody {
		w.Header().Set("Connection", "close")
		return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes (-max-body)", maxBody)
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return Errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes (-max-body)", mbe.Limit)
		}
		return Errorf(http.StatusBadRequest, "decoding request body: %v", err)
	}
	return nil
}

// WithDeadline bounds ctx by d; d <= 0 means no deadline.
func WithDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// ListenAndDrain serves srv on srv.Addr until ctx is done, then shuts
// down gracefully: drain runs first (it stops admitting new work), then
// srv.Shutdown waits for in-flight requests. It returns nil after a clean
// drain, and the listen, serve or shutdown error otherwise.
func ListenAndDrain(ctx context.Context, srv *http.Server, drain func()) error {
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		return err
	}
	return serveAndDrain(ctx, srv, ln, drain)
}

func serveAndDrain(ctx context.Context, srv *http.Server, ln net.Listener, drain func()) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
