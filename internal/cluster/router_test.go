package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/serve"
)

// stubShard is a minimal cupidd wire-contract stand-in: fixed batch
// results, a fixed schema document, and counters for which endpoints were
// hit. The router tests drive merge/shed/forwarding semantics against it
// without booting real registries (cmd/cupidd's cluster test does that
// end to end).
type stubShard struct {
	batch      serve.BatchReply
	batchCode  int
	batchDelay time.Duration
	// release, when closed, ends every batch request still waiting out
	// batchDelay.
	release   chan struct{}
	doc       *registry.Doc
	schemas   []map[string]any
	registers atomic.Int64
	deletes   atomic.Int64
	srv       *httptest.Server
}

func (s *stubShard) start(t *testing.T) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /match/batch", func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to EOF lets net/http watch the connection, so
		// r.Context() is cancelled as soon as the router hangs up.
		io.Copy(io.Discard, r.Body)
		if s.batchDelay > 0 {
			select {
			case <-time.After(s.batchDelay):
			case <-s.release:
			case <-r.Context().Done():
				return
			}
		}
		code := s.batchCode
		if code == 0 {
			code = http.StatusOK
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		if code == http.StatusOK {
			json.NewEncoder(w).Encode(s.batch)
		} else {
			json.NewEncoder(w).Encode(map[string]string{"error": "stub refuses"})
		}
	})
	mux.HandleFunc("GET /schemas/{name}", func(w http.ResponseWriter, r *http.Request) {
		if s.doc == nil || s.doc.Name != r.PathValue("name") {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf("schema %q is not registered", r.PathValue("name"))})
			return
		}
		json.NewEncoder(w).Encode(s.doc)
	})
	mux.HandleFunc("GET /schemas", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"schemas": s.schemas})
	})
	mux.HandleFunc("POST /schemas", func(w http.ResponseWriter, _ *http.Request) {
		s.registers.Add(1)
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]any{"created": true})
	})
	mux.HandleFunc("DELETE /schemas/{name}", func(w http.ResponseWriter, r *http.Request) {
		s.deletes.Add(1)
		json.NewEncoder(w).Encode(map[string]string{"removed": r.PathValue("name")})
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s.srv.URL
}

func newTestRouter(t *testing.T, opt Options) *Router {
	t.Helper()
	rt, err := NewRouter(opt)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (int, map[string]any) {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var v map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("%s %s: non-JSON reply %q: %v", method, path, rec.Body.String(), err)
	}
	return rec.Code, v
}

func resultNames(t *testing.T, v map[string]any) []string {
	t.Helper()
	raw, ok := v["results"].([]any)
	if !ok {
		t.Fatalf("reply has no results array: %v", v)
	}
	names := make([]string, len(raw))
	for i, r := range raw {
		names[i] = r.(map[string]any)["name"].(string)
	}
	return names
}

// TestRouterScatterGatherMergesAndFilters: a by-name source is resolved
// on its owning shard, scattered inline, the per-shard rankings merge in
// global score order, the source's own entry is dropped, and the
// aggregate fields follow the documented rules.
func TestRouterScatterGatherMergesAndFilters(t *testing.T) {
	doc := &registry.Doc{Name: "src", Fingerprint: "fpsrc", Format: "json", Content: `{"name":"src"}`}
	a := &stubShard{
		doc: doc,
		batch: serve.BatchReply{
			Source: "src", Strategy: "indexed", Planned: true,
			CandidatesScored: 4, CandidateBudget: 8,
			Results: []serve.BatchResult{
				{Name: "src", Fingerprint: "fpsrc", Score: 1.0, Leaves: []serve.Pair{}},
				{Name: "a1", Fingerprint: "fa1", Score: 0.9, Leaves: []serve.Pair{}},
				{Name: "a2", Fingerprint: "fa2", Score: 0.5, Leaves: []serve.Pair{}},
			},
		},
	}
	b := &stubShard{
		doc: doc, // either shard can resolve the source; ownership is the router's choice
		batch: serve.BatchReply{
			Source: "src", Strategy: "indexed", Planned: true,
			CandidatesScored: 3, CandidateBudget: 7,
			Results: []serve.BatchResult{
				{Name: "b1", Fingerprint: "fb1", Score: 0.7, Leaves: []serve.Pair{}},
				{Name: "b2", Fingerprint: "fb2", Score: 0.6, Leaves: []serve.Pair{}},
			},
		},
	}
	rt := newTestRouter(t, Options{Shards: []string{a.start(t), b.start(t)}})
	code, v := doJSON(t, rt, http.MethodPost, "/match/batch", `{"source":{"name":"src"},"topK":3}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, v)
	}
	names := resultNames(t, v)
	want := []string{"a1", "b1", "b2"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("merged ranking %v, want %v", names, want)
	}
	if v["source"] != "src" || v["strategy"] != "indexed" || v["planned"] != true {
		t.Errorf("aggregate header wrong: %v", v)
	}
	if v["candidates_scored"].(float64) != 7 || v["candidate_budget"].(float64) != 15 {
		t.Errorf("sums wrong: scored=%v budget=%v", v["candidates_scored"], v["candidate_budget"])
	}
	if v["degraded"] != false {
		t.Errorf("healthy scatter marked degraded")
	}
	shards := v["shards"].([]any)
	if len(shards) != 2 {
		t.Fatalf("want 2 shard statuses, got %d", len(shards))
	}
	for _, s := range shards {
		if s.(map[string]any)["ok"] != true {
			t.Errorf("healthy shard reported not ok: %v", s)
		}
	}
}

// TestRouterShedsDeadShard: a shard that cannot answer within the match
// deadline is dropped from the merge — the reply is partial, degraded,
// and arrives without waiting out the dead member.
func TestRouterShedsDeadShard(t *testing.T) {
	live := &stubShard{
		batch: serve.BatchReply{
			Source: "inline", Strategy: "exact",
			Results: []serve.BatchResult{{Name: "a1", Fingerprint: "fa1", Score: 0.9, Leaves: []serve.Pair{}}},
		},
	}
	dead := &stubShard{batchDelay: 10 * time.Second}
	rt := newTestRouter(t, Options{
		Shards:        []string{live.start(t), dead.start(t)},
		MatchDeadline: 300 * time.Millisecond,
	})
	start := time.Now()
	code, v := doJSON(t, rt, http.MethodPost, "/match/batch",
		`{"source":{"format":"json","content":"{\"name\":\"probe\"}"},"topK":5}`)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("router hung %v past the 300ms deadline", el)
	}
	if code != http.StatusOK {
		t.Fatalf("partial result should still be 200, got %d: %v", code, v)
	}
	if v["degraded"] != true {
		t.Errorf("shed shard must mark the reply degraded: %v", v)
	}
	names := resultNames(t, v)
	if len(names) != 1 || names[0] != "a1" {
		t.Errorf("want the live shard's results only, got %v", names)
	}
	shards := v["shards"].([]any)
	oks := 0
	for _, s := range shards {
		m := s.(map[string]any)
		if m["ok"] == true {
			oks++
		} else if m["error"] == "" {
			t.Errorf("shed shard carries no error: %v", m)
		}
	}
	if oks != 1 {
		t.Errorf("want exactly 1 ok shard, got %d", oks)
	}
}

// TestRouterAllShardsDead: nothing to merge is an error, not an empty
// ranking.
func TestRouterAllShardsDead(t *testing.T) {
	a := &stubShard{batchCode: http.StatusInternalServerError}
	b := &stubShard{batchCode: http.StatusInternalServerError}
	rt := newTestRouter(t, Options{Shards: []string{a.start(t), b.start(t)}})
	code, v := doJSON(t, rt, http.MethodPost, "/match/batch",
		`{"source":{"format":"json","content":"{\"name\":\"probe\"}"}}`)
	if code != http.StatusBadGateway {
		t.Fatalf("want 502 when every shard fails, got %d: %v", code, v)
	}
}

// TestRouterMixedStrategies: shards that ran different retrieval paths
// merge under the literal strategy "mixed".
func TestRouterMixedStrategies(t *testing.T) {
	a := &stubShard{batch: serve.BatchReply{Strategy: "indexed", Planned: true}}
	b := &stubShard{batch: serve.BatchReply{Strategy: "pruned", Planned: true}}
	rt := newTestRouter(t, Options{Shards: []string{a.start(t), b.start(t)}})
	code, v := doJSON(t, rt, http.MethodPost, "/match/batch",
		`{"source":{"format":"json","content":"{\"name\":\"probe\"}"}}`)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, v)
	}
	if v["strategy"] != "mixed" {
		t.Errorf("want strategy mixed, got %v", v["strategy"])
	}
}

// TestRouterRegisterRoutesToOwner: a registration lands on exactly the
// ring owner, and the shard's 201 passes through.
func TestRouterRegisterRoutesToOwner(t *testing.T) {
	a, b := &stubShard{}, &stubShard{}
	rt := newTestRouter(t, Options{Shards: []string{a.start(t), b.start(t)}})
	const name = "orders"
	code, _ := doJSON(t, rt, http.MethodPost, "/schemas",
		fmt.Sprintf(`{"name":%q,"format":"json","content":"{\"name\":\"orders\"}"}`, name))
	if code != http.StatusCreated {
		t.Fatalf("shard's 201 not relayed: %d", code)
	}
	owner := rt.Ring().Owner(name)
	got := []int64{a.registers.Load(), b.registers.Load()}
	for i, n := range got {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if n != want {
			t.Errorf("shard %d saw %d registrations, want %d (owner=%d)", i, n, want, owner)
		}
	}
	// A nameless registration has no placement; refused before any shard.
	if code, _ := doJSON(t, rt, http.MethodPost, "/schemas", `{"format":"json","content":"{}"}`); code != http.StatusBadRequest {
		t.Errorf("nameless registration: want 400, got %d", code)
	}
}

// TestRouterListMergesAllShards: GET /schemas unions every shard's list
// sorted by name, and fails loudly (no silent partial listing) when a
// member is down.
func TestRouterListMergesAllShards(t *testing.T) {
	a := &stubShard{schemas: []map[string]any{{"name": "zeta"}, {"name": "alpha"}}}
	b := &stubShard{schemas: []map[string]any{{"name": "mid"}}}
	rt := newTestRouter(t, Options{Shards: []string{a.start(t), b.start(t)}})
	code, v := doJSON(t, rt, http.MethodGet, "/schemas", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, v)
	}
	var names []string
	for _, s := range v["schemas"].([]any) {
		names = append(names, s.(map[string]any)["name"].(string))
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{"alpha", "mid", "zeta"}) {
		t.Errorf("merged list %v not the sorted union", names)
	}
	b.srv.Close()
	if code, _ := doJSON(t, rt, http.MethodGet, "/schemas", ""); code != http.StatusBadGateway {
		t.Errorf("listing with a dead shard: want 502, got %d", code)
	}
}

// TestRouterSourceNotFoundPropagates: resolving a by-name source that no
// shard has keeps cupidd's 404 contract.
func TestRouterSourceNotFound(t *testing.T) {
	a := &stubShard{}
	rt := newTestRouter(t, Options{Shards: []string{a.start(t)}})
	code, v := doJSON(t, rt, http.MethodPost, "/match/batch", `{"source":{"name":"ghost"}}`)
	if code != http.StatusNotFound {
		t.Fatalf("want 404 for unknown source, got %d: %v", code, v)
	}
	if !strings.Contains(v["error"].(string), "ghost") {
		t.Errorf("error does not name the schema: %v", v["error"])
	}
}

// TestRouterDrainAndProbes: the drain guard rejects new work with 503
// while /healthz stays live and /readyz reports the reason — the same
// lifecycle contract as a single cupidd.
func TestRouterDrainAndProbes(t *testing.T) {
	a := &stubShard{}
	rt := newTestRouter(t, Options{Shards: []string{a.start(t)}})
	if code, v := doJSON(t, rt, http.MethodGet, "/readyz", ""); code != http.StatusOK || v["ready"] != true {
		t.Fatalf("fresh router not ready: %d %v", code, v)
	}
	rt.BeginDrain()
	if code, _ := doJSON(t, rt, http.MethodGet, "/schemas", ""); code != http.StatusServiceUnavailable {
		t.Errorf("draining router still admits work")
	}
	if code, v := doJSON(t, rt, http.MethodGet, "/readyz", ""); code != http.StatusServiceUnavailable || v["reason"] != "draining" {
		t.Errorf("draining readyz: %d %v", code, v)
	}
	if code, v := doJSON(t, rt, http.MethodGet, "/healthz", ""); code != http.StatusOK || v["status"] != "ok" {
		t.Errorf("draining healthz must stay live: %d %v", code, v)
	}
}

// TestRouterAdmission: with a zero-slot... pools default to >0 slots, so
// saturate a 1-slot pool with a held request and verify the overflow is
// shed with 429 + Retry-After instead of queueing unbounded.
func TestRouterAdmission(t *testing.T) {
	slow := &stubShard{batchDelay: 2 * time.Second, release: make(chan struct{})}
	rt := newTestRouter(t, Options{
		Shards: []string{slow.start(t)},
		Read:   serve.PoolOptions{Slots: 1, Queue: 1, MaxWait: 20 * time.Millisecond},
	})
	// Occupy the only slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		doJSON(t, rt, http.MethodPost, "/match/batch",
			`{"source":{"format":"json","content":"{\"name\":\"p\"}"}}`)
	}()
	// Wait until the slot is actually held.
	deadline := time.Now().Add(2 * time.Second)
	for rt.ReadPool().InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	req := httptest.NewRequest(http.MethodPost, "/match/batch",
		strings.NewReader(`{"source":{"format":"json","content":"{\"name\":\"q\"}"}}`))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("overflow request: want 429, got %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Errorf("429 without Retry-After hint")
	}
	close(slow.release)
	<-done
}

// TestRouterMethodAndPathContract: unknown endpoints and wrong methods
// keep the JSON error contract with an Allow header, mirroring cupidd.
func TestRouterMethodAndPathContract(t *testing.T) {
	a := &stubShard{}
	rt := newTestRouter(t, Options{Shards: []string{a.start(t)}})
	if code, _ := doJSON(t, rt, http.MethodGet, "/nope", ""); code != http.StatusNotFound {
		t.Errorf("unknown path: want 404, got %d", code)
	}
	req := httptest.NewRequest(http.MethodPut, "/match/batch", strings.NewReader("{}"))
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") == "" {
		t.Errorf("wrong method: want 405+Allow, got %d %q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestRouterRejectsBadConfig pins the constructor's validation.
func TestRouterRejectsBadConfig(t *testing.T) {
	if _, err := NewRouter(Options{}); err == nil {
		t.Error("empty shard list accepted")
	}
	if _, err := NewRouter(Options{Shards: []string{"not a url"}}); err == nil {
		t.Error("relative shard URL accepted")
	}
}
