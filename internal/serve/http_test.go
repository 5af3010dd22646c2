package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHandlerContract drives the shared HTTP contract through a toy route
// table: JSON 404 and 405 (with the sorted Allow header), the drain-time
// 503 that spares the probes, the -max-body 413, unknown-field 400s, and
// the overload mapping of every admission and context error.
func TestHandlerContract(t *testing.T) {
	overload := map[string]error{
		"full":     ErrQueueFull,
		"wait":     ErrQueueWait,
		"draining": ErrDraining,
		"deadline": context.DeadlineExceeded,
		"canceled": context.Canceled,
		"other":    errors.New("boom"),
	}
	// The pool's queue-wait target is the 429's Retry-After hint, never
	// below one second.
	maxWait := map[string]time.Duration{"slow": 2500 * time.Millisecond, "fast": 10 * time.Millisecond}
	ok := func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
	routes := []Route{
		{Method: http.MethodPost, Pattern: "/things", Handler: func(w http.ResponseWriter, r *http.Request) {
			var req struct {
				Name string `json:"name"`
			}
			if err := DecodeJSON(w, r, 32, &req); err != nil {
				WriteError(w, err)
				return
			}
			WriteJSON(w, http.StatusCreated, req)
		}},
		{Method: http.MethodGet, Pattern: "/things", Handler: ok},
		{Method: http.MethodDelete, Pattern: "/things/{id}", Handler: ok},
		{Method: http.MethodGet, Pattern: "/fail/{pool}/{kind}", Handler: func(w http.ResponseWriter, r *http.Request) {
			WriteError(w, OverloadError(overload[r.PathValue("kind")], maxWait[r.PathValue("pool")]))
		}},
		{Method: http.MethodGet, Pattern: "/healthz", Handler: ok},
		{Method: http.MethodGet, Pattern: "/readyz", Handler: ok},
	}
	var draining bool
	h := Handler(routes, func() bool { return draining })

	cases := []struct {
		name           string
		draining       bool
		method, path   string
		body           string
		wantCode       int
		wantAllow      string
		wantRetryAfter string
		wantErr        string // substring of the JSON error; "" = no error
	}{
		{name: "served", method: http.MethodGet, path: "/things", wantCode: 200},
		{name: "unknown path", method: http.MethodGet, path: "/nope", wantCode: 404, wantErr: "no such endpoint: /nope"},
		{name: "too deep", method: http.MethodGet, path: "/things/1/2", wantCode: 404, wantErr: "no such endpoint"},
		{name: "wrong method", method: http.MethodPut, path: "/things", wantCode: 405, wantAllow: "GET, POST",
			wantErr: "method PUT is not allowed for /things (allowed: GET, POST)"},
		{name: "wrong method on pattern", method: http.MethodGet, path: "/things/7", wantCode: 405, wantAllow: "DELETE",
			wantErr: "not allowed"},
		{name: "decoded", method: http.MethodPost, path: "/things", body: `{"name":"a"}`, wantCode: 201},
		{name: "unknown field", method: http.MethodPost, path: "/things", body: `{"nmae":"a"}`, wantCode: 400,
			wantErr: "decoding request body: json: unknown field"},
		{name: "body cap", method: http.MethodPost, path: "/things", body: `{"name":"` + strings.Repeat("x", 64) + `"}`,
			wantCode: 413, wantErr: "request body exceeds 32 bytes (-max-body)"},
		{name: "queue full", method: http.MethodGet, path: "/fail/slow/full", wantCode: 429, wantRetryAfter: "3",
			wantErr: "server overloaded: serve: work queue full"},
		{name: "queue wait", method: http.MethodGet, path: "/fail/slow/wait", wantCode: 429, wantRetryAfter: "3",
			wantErr: "server overloaded: serve: queue wait exceeded latency target"},
		{name: "queue wait, sub-second target", method: http.MethodGet, path: "/fail/fast/wait", wantCode: 429, wantRetryAfter: "1",
			wantErr: "server overloaded"},
		{name: "draining error", method: http.MethodGet, path: "/fail/slow/draining", wantCode: 503, wantRetryAfter: "1",
			wantErr: "server is shutting down"},
		{name: "deadline", method: http.MethodGet, path: "/fail/slow/deadline", wantCode: 503, wantRetryAfter: "1",
			wantErr: "match deadline exceeded under load; retry"},
		{name: "canceled", method: http.MethodGet, path: "/fail/slow/canceled", wantCode: 503,
			wantErr: "request canceled by client"},
		{name: "other error", method: http.MethodGet, path: "/fail/slow/other", wantCode: 500, wantErr: "boom"},
		{name: "drain sheds", draining: true, method: http.MethodGet, path: "/things", wantCode: 503, wantRetryAfter: "1",
			wantErr: "server is shutting down"},
		{name: "drain sheds unknown paths", draining: true, method: http.MethodGet, path: "/nope", wantCode: 503,
			wantRetryAfter: "1", wantErr: "server is shutting down"},
		{name: "drain spares healthz", draining: true, method: http.MethodGet, path: "/healthz", wantCode: 200},
		{name: "drain spares readyz", draining: true, method: http.MethodGet, path: "/readyz", wantCode: 200},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			draining = c.draining
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
			if rec.Code != c.wantCode {
				t.Errorf("status %d, want %d (body %s)", rec.Code, c.wantCode, rec.Body)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			if got := rec.Header().Get("Allow"); got != c.wantAllow {
				t.Errorf("Allow %q, want %q", got, c.wantAllow)
			}
			if got := rec.Header().Get("Retry-After"); got != c.wantRetryAfter {
				t.Errorf("Retry-After %q, want %q", got, c.wantRetryAfter)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("reply is not JSON: %q", rec.Body)
			}
			if (c.wantErr == "" && body.Error != "") || !strings.Contains(body.Error, c.wantErr) {
				t.Errorf("error %q, want it to contain %q", body.Error, c.wantErr)
			}
		})
	}
}

// TestServeAndDrainFinishesInFlight cancels the serving context while a
// slow request is in flight: the drain callback runs before Shutdown
// begins, the request still completes with 200, and the loop returns nil
// once it has.
func TestServeAndDrainFinishesInFlight(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var (
		mu    sync.Mutex
		order []string
	)
	record := func(step string) {
		mu.Lock()
		defer mu.Unlock()
		order = append(order, step)
	}
	recorded := func(step string) bool {
		mu.Lock()
		defer mu.Unlock()
		return slices.Contains(order, step)
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		WriteJSON(w, http.StatusOK, map[string]string{"status": "done"})
	})}
	srv.RegisterOnShutdown(func() { record("shutdown") })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopErr := make(chan error, 1)
	go func() { loopErr <- serveAndDrain(ctx, srv, ln, func() { record("drain") }) }()

	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			status <- 0
			return
		}
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-started
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for !recorded("shutdown") {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never began")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-loopErr:
		t.Fatalf("loop returned %v with a request still in flight", err)
	default:
	}
	close(release)
	if code := <-status; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d, want 200", code)
	}
	if err := <-loopErr; err != nil {
		t.Errorf("loop returned %v, want nil", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "drain" || order[1] != "shutdown" {
		t.Errorf("steps ran in order %v, want [drain shutdown]", order)
	}
}

// TestDecodeJSONBodyLength decodes bodies whose Content-Length is missing,
// understated or overstated: each is read whole and decoded, a body past
// the cap is a 413 whatever it declares, and one that declares more than
// the cap is refused unread, with the connection closed.
func TestDecodeJSONBodyLength(t *testing.T) {
	const maxBody = 4096
	long := strings.Repeat("x", 3000) // past the decoder's first 512-byte buffer
	type req struct {
		Name string `json:"name"`
	}
	cases := []struct {
		name     string
		body     string
		length   int64 // -2: the body's own length
		wantCode int   // 0: decoded
	}{
		{name: "declared", body: `{"name":"a"}`, length: -2},
		{name: "missing", body: `{"name":"a"}`, length: -1},
		{name: "missing, long", body: `{"name":"` + long + `"}`, length: -1},
		{name: "understated", body: `{"name":"` + long + `"}`, length: 5},
		{name: "overstated", body: `{"name":"a"}`, length: 3000},
		{name: "missing, past the cap", body: `{"name":"` + long + long + `"}`, length: -1, wantCode: 413},
		{name: "understated, past the cap", body: `{"name":"` + long + long + `"}`, length: 10, wantCode: 413},
		{name: "declared past the cap", body: `{"name":"a"}`, length: maxBody + 1, wantCode: 413},
		{name: "unknown field, missing", body: `{"nmae":"a"}`, length: -1, wantCode: 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A bare io.Reader, so httptest leaves the length unknown.
			r := httptest.NewRequest(http.MethodPost, "/", struct{ io.Reader }{strings.NewReader(c.body)})
			r.ContentLength = c.length
			if c.length == -2 {
				r.ContentLength = int64(len(c.body))
			}
			w := httptest.NewRecorder()
			var got req
			err := DecodeJSON(w, r, maxBody, &got)
			var se *statusError
			switch {
			case c.wantCode == 0 && err != nil:
				t.Fatalf("error %v", err)
			case c.wantCode == 0:
				var want req
				json.Unmarshal([]byte(c.body), &want)
				if got != want {
					t.Fatalf("decoded %q, want %q", got.Name, want.Name)
				}
			case !errors.As(err, &se) || se.code != c.wantCode:
				t.Fatalf("error %v, want status %d", err, c.wantCode)
			case c.wantCode == 413 && !strings.Contains(err.Error(), "request body exceeds 4096 bytes (-max-body)"):
				t.Fatalf("error %q does not name the cap", err)
			}
			if c.length > maxBody && w.Header().Get("Connection") != "close" {
				t.Error("a body declared past the cap left the connection open")
			}
		})
	}
}

// TestDecodeJSONAllocatesAsBytesArrive sends a short body that declares
// the whole cap: the decoder must not allocate the declared length before
// the bytes arrive, or headers alone would make the server hold -max-body
// per connection.
func TestDecodeJSONAllocatesAsBytesArrive(t *testing.T) {
	const maxBody = 4 << 20
	var req struct {
		Name string `json:"name"`
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(`{"name":"a"}`))
	r.ContentLength = maxBody
	if err := DecodeJSON(httptest.NewRecorder(), r, maxBody, &req); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("decoding a 12-byte body that declares %d bytes allocated %d bytes", maxBody, got)
	}
}
