package main

// Integration coverage for WAL-shipped replication as wired into the
// server: a -follow replica converges to byte-identical /match/batch
// responses, keeps converging through cut streams and restarts (the
// HTTP-level fault injection riding on the registry-level frame-boundary
// sweep), refuses writes, and reports catching_up readiness distinctly.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// replTestServer is a server plus its httptest front and follower
// controls.
type replTestServer struct {
	s      *server
	ts     *httptest.Server
	stop   func() // cancel the follow loop and wait for it (follower only)
	closed bool
}

// newReplServer boots a WAL server on dir; follow != "" makes it a
// replica of that URL with the follow loop running.
func newReplServer(t *testing.T, dir, follow string) *replTestServer {
	t.Helper()
	s, err := newServerFromOptions(&options{dataDir: dir, follow: follow, minAccept: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	r := &replTestServer{s: s, ts: ts, stop: func() {}}
	if follow != "" {
		ctx, cancel := context.WithCancel(context.Background())
		done := s.followLoop(ctx)
		r.stop = func() {
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Error("follow loop did not stop")
			}
		}
	}
	t.Cleanup(func() { r.close(t) })
	return r
}

// close is idempotent so tests can kill a follower explicitly and let
// the cleanup run harmlessly.
func (r *replTestServer) close(t *testing.T) {
	if r.closed {
		return
	}
	r.closed = true
	r.stop()
	r.ts.Close()
	if err := r.s.close(); err != nil {
		t.Errorf("closing server: %v", err)
	}
}

// waitCaughtUp polls until the follower has applied the primary's horizon
// and holds want schemas.
func waitCaughtUp(t *testing.T, r *replTestServer, want int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		st := r.s.replState.Status()
		if st.CaughtUp && r.s.reg.Len() == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := r.s.replState.Status()
	t.Fatalf("follower never caught up: %+v, %d/%d schemas", st, r.s.reg.Len(), want)
}

// assertBatchesIdentical compares primary and follower /match/batch wire
// bytes (rawBatch from persist_test.go) for a set of probes. Both
// servers are quiescent, so every field — scores, order, stats, flags —
// must agree exactly.
func assertBatchesIdentical(t *testing.T, primary, follower *httptest.Server, probes []any) {
	t.Helper()
	for _, body := range probes {
		p := rawBatch(t, primary, body)
		f := rawBatch(t, follower, body)
		if !bytes.Equal(p, f) {
			t.Errorf("batch %v diverged:\nprimary:  %s\nfollower: %s", body, p, f)
		}
	}
}

var replProbes = []any{
	map[string]any{"source": map[string]string{"name": "orders"}, "topK": 5},
	map[string]any{"source": map[string]string{"format": "sql", "content": purchasesDDL}, "topK": 3},
	map[string]any{"source": map[string]string{"format": "json", "content": inventoryJSON}},
}

func TestReplicaConvergesToByteIdenticalBatches(t *testing.T) {
	primary := newReplServer(t, t.TempDir(), "")
	register(t, primary.ts, "orders", "sql", ordersDDL)
	register(t, primary.ts, "purchases", "sql", purchasesDDL)

	follower := newReplServer(t, t.TempDir(), primary.ts.URL)
	waitCaughtUp(t, follower, 2)

	// Live tail: a mutation after catch-up reaches the replica too.
	register(t, primary.ts, "inventory", "json", inventoryJSON)
	waitCaughtUp(t, follower, 3)

	assertBatchesIdentical(t, primary.ts, follower.ts, replProbes)

	// The replica lists the same schemas with the same fingerprints.
	var pl, fl struct {
		Schemas []serve.SchemaInfo `json:"schemas"`
	}
	call(t, primary.ts, http.MethodGet, "/schemas", nil, &pl)
	call(t, follower.ts, http.MethodGet, "/schemas", nil, &fl)
	if fmt.Sprint(pl) != fmt.Sprint(fl) {
		t.Errorf("schema lists diverged:\nprimary:  %v\nfollower: %v", pl, fl)
	}
}

func TestReplicaRefusesWritesNamingPrimary(t *testing.T) {
	primary := newReplServer(t, t.TempDir(), "")
	register(t, primary.ts, "orders", "sql", ordersDDL)
	follower := newReplServer(t, t.TempDir(), primary.ts.URL)
	waitCaughtUp(t, follower, 1)

	var errResp struct {
		Error string `json:"error"`
	}
	code := call(t, follower.ts, http.MethodPost, "/schemas",
		map[string]string{"name": "x", "format": "sql", "content": ordersDDL}, &errResp)
	if code != http.StatusForbidden {
		t.Fatalf("replica accepted a registration: status %d", code)
	}
	if !strings.Contains(errResp.Error, primary.ts.URL) {
		t.Errorf("403 does not name the primary: %q", errResp.Error)
	}
	if code := call(t, follower.ts, http.MethodDelete, "/schemas/orders", nil, &errResp); code != http.StatusForbidden {
		t.Fatalf("replica accepted a delete: status %d", code)
	}
	// The replicated entry is still there and still served.
	if follower.s.reg.Len() != 1 {
		t.Errorf("replica lost its replicated entry: %d schemas", follower.s.reg.Len())
	}
}

// chokeProxy fronts a primary and cuts every /replicate connection after
// a growing byte budget: connection n delivers limit(n) bytes and then
// drops, landing cuts at many different offsets — frame boundaries and
// torn mid-frame positions alike — until the budget exceeds the stream
// and a connection finally survives. Everything else proxies untouched.
type chokeProxy struct {
	target   string
	attempts atomic.Int64
	srv      *httptest.Server
}

func newChokeProxy(t *testing.T, target string) *chokeProxy {
	t.Helper()
	p := &chokeProxy{target: target}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.WriteHeader(resp.StatusCode)
		if r.URL.Path != "/replicate" {
			io.Copy(w, resp.Body)
			return
		}
		// The first six replication attempts are cut after 61n²
		// bytes — a quadratic stride whose offsets land mid-header,
		// mid-payload and at clean boundaries as the follower's resume
		// position shifts between attempts. After that the proxy stops
		// interfering so the test converges fast even against the
		// follower's capped reconnect backoff.
		n := p.attempts.Add(1)
		if n > 6 {
			io.Copy(w, resp.Body)
			return
		}
		budget := 61 * n * n
		flusher, _ := w.(http.Flusher)
		buf := make([]byte, 256)
		var sent int64
		for sent < budget {
			chunk := int64(len(buf))
			if rest := budget - sent; rest < chunk {
				chunk = rest
			}
			m, err := resp.Body.Read(buf[:chunk])
			if m > 0 {
				w.Write(buf[:m])
				if flusher != nil {
					flusher.Flush()
				}
				sent += int64(m)
			}
			if err != nil {
				return
			}
		}
		// Budget exhausted: drop the connection mid-stream by returning
		// (httptest closes the response); the follower must reconnect.
	}))
	t.Cleanup(p.srv.Close)
	return p
}

// TestReplicaConvergesThroughCutStreams is the HTTP face of the
// fault-injection suite (the registry-level sweep kills a follower at
// every single WAL-record boundary; see
// internal/registry.TestReplicationKilledAtEveryFrameBoundary): the
// replication stream is repeatedly cut at stride-varied byte offsets —
// torn frames included — and the follower's reconnect loop must converge
// to byte-identical batch responses anyway, never applying a partial
// record.
func TestReplicaConvergesThroughCutStreams(t *testing.T) {
	primary := newReplServer(t, t.TempDir(), "")
	register(t, primary.ts, "orders", "sql", ordersDDL)
	register(t, primary.ts, "purchases", "sql", purchasesDDL)
	register(t, primary.ts, "inventory", "json", inventoryJSON)
	// Replace one entry so the stream carries a put shadowing a put.
	register(t, primary.ts, "orders", "sql", strings.Replace(ordersDDL, "Amount", "GrandTotal", 1))

	proxy := newChokeProxy(t, primary.ts.URL)
	follower := newReplServer(t, t.TempDir(), proxy.srv.URL)
	waitCaughtUp(t, follower, 3)
	if got := proxy.attempts.Load(); got < 2 {
		t.Errorf("choke proxy saw %d replication attempts; the cuts exercised nothing", got)
	}
	assertBatchesIdentical(t, primary.ts, follower.ts, replProbes)
}

// TestReplicaRestartResumesAndConverges kills a follower (hard close of
// its journal mid-life), mutates the primary while it is down, restarts
// it on the same data dir, and requires convergence to byte-identical
// batches — then restarts again with nothing new and requires a pure
// tail resume (no resync) from the checkpoint.
func TestReplicaRestartResumesAndConverges(t *testing.T) {
	primary := newReplServer(t, t.TempDir(), "")
	register(t, primary.ts, "orders", "sql", ordersDDL)
	register(t, primary.ts, "purchases", "sql", purchasesDDL)

	dir := t.TempDir()
	f1 := newReplServer(t, dir, primary.ts.URL)
	waitCaughtUp(t, f1, 2)
	f1.close(t) // kill: follow loop canceled, journal closed

	// The primary moves on while the follower is dead.
	register(t, primary.ts, "inventory", "json", inventoryJSON)
	var del map[string]string
	if code := call(t, primary.ts, http.MethodDelete, "/schemas/purchases", nil, &del); code != http.StatusOK {
		t.Fatalf("delete on primary: %d", code)
	}

	f2 := newReplServer(t, dir, primary.ts.URL)
	waitCaughtUp(t, f2, 2) // orders + inventory
	probes := []any{
		map[string]any{"source": map[string]string{"name": "orders"}, "topK": 5},
		map[string]any{"source": map[string]string{"format": "sql", "content": purchasesDDL}, "topK": 3},
	}
	assertBatchesIdentical(t, primary.ts, f2.ts, probes)
	if f2.s.replState.Status().Resyncs > 1 {
		t.Errorf("restart fell back to %d resyncs; the checkpoint should bound it to at most one",
			f2.s.replState.Status().Resyncs)
	}
	f2.close(t)

	// Quiescent restart: everything is already applied, so the stream must
	// resume as a pure tail — zero snapshot transfers.
	f3 := newReplServer(t, dir, primary.ts.URL)
	waitCaughtUp(t, f3, 2)
	if got := f3.s.replState.Status().Resyncs; got != 0 {
		t.Errorf("quiescent restart resynced %d times; want a pure tail resume", got)
	}
	assertBatchesIdentical(t, primary.ts, f3.ts, probes)
}

// TestReadyzReportsCatchingUpDistinctly is the /readyz satellite: a
// follower that has not caught up reports catching_up (with positions),
// draining takes precedence once shutdown begins, and a non-follower
// never reports catching_up.
func TestReadyzReportsCatchingUpDistinctly(t *testing.T) {
	// A follower whose primary is unreachable stays catching_up: it has
	// never seen the primary's horizon. (No follow loop is even needed —
	// readiness is state, not liveness.)
	s, err := newServerFromOptions(&options{
		dataDir: t.TempDir(),
		follow:  "http://127.0.0.1:1", minAccept: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	var ready struct {
		Ready   bool   `json:"ready"`
		Reason  string `json:"reason"`
		Applied string `json:"applied"`
		Horizon string `json:"horizon"`
	}
	if code := call(t, ts, http.MethodGet, "/readyz", nil, &ready); code != http.StatusServiceUnavailable {
		t.Fatalf("catching-up follower readyz: status %d", code)
	}
	if ready.Reason != "catching_up" || ready.Applied == "" || ready.Horizon == "" {
		t.Errorf("catching-up readyz payload wrong: %+v", ready)
	}
	// Draining is a distinct, higher-priority reason.
	s.front.BeginDrain()
	if code := call(t, ts, http.MethodGet, "/readyz", nil, &ready); code != http.StatusServiceUnavailable || ready.Reason != "draining" {
		t.Errorf("draining follower readyz: status %d reason %q", code, ready.Reason)
	}
}

func TestFollowFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		opt  options
	}{
		{"follow without data", options{follow: "http://localhost:1", minAccept: 0.5}},
		{"relative url", options{follow: "localhost:1", dataDir: t.TempDir(), minAccept: 0.5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newServerFromOptions(&tc.opt); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
}

// TestReplicateEndpointContract pins the endpoint's refusals: 501
// without persistence, 400 on malformed resume positions.
func TestReplicateEndpointContract(t *testing.T) {
	mem := newTestServer(t)
	resp, err := http.Get(mem.URL + "/replicate")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("in-memory /replicate: want 501, got %d", resp.StatusCode)
	}

	primary := newReplServer(t, t.TempDir(), "")
	for _, q := range []string{"?base=x", "?records=-1", "?records=x"} {
		resp, err := http.Get(primary.ts.URL + "/replicate" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/replicate%s: want 400, got %d", q, resp.StatusCode)
		}
	}
}

// TestGetSchemaEndpoint pins GET /schemas/{name}: the stored source
// document round-trips on a persistent server, 404s when absent, and
// 501s without persistence.
func TestGetSchemaEndpoint(t *testing.T) {
	primary := newReplServer(t, t.TempDir(), "")
	reg := register(t, primary.ts, "orders", "sql", ordersDDL)
	var doc struct {
		Name        string `json:"name"`
		Fingerprint string `json:"fingerprint"`
		Format      string `json:"format"`
		Content     string `json:"content"`
	}
	if code := call(t, primary.ts, http.MethodGet, "/schemas/orders", nil, &doc); code != http.StatusOK {
		t.Fatalf("get schema: status %d", code)
	}
	if doc.Name != "orders" || doc.Format != "sql" || doc.Content != ordersDDL || doc.Fingerprint != reg.Fingerprint {
		t.Errorf("stored document did not round-trip: %+v", doc)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if code := call(t, primary.ts, http.MethodGet, "/schemas/ghost", nil, &errResp); code != http.StatusNotFound {
		t.Errorf("missing schema: want 404, got %d", code)
	}
	mem := newTestServer(t)
	if code := call(t, mem, http.MethodGet, "/schemas/any", nil, &errResp); code != http.StatusNotImplemented {
		t.Errorf("in-memory get schema: want 501, got %d", code)
	}
}
