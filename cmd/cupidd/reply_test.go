package main

// Reply cost and shape: every route writes one compact JSON line, an
// inline batch source is keyed by its reference so a cache hit never
// parses it, and a parse error is never cached.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	cupid "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// replyRequest is one request of the reply-shape sweep.
type replyRequest struct {
	method, path string
	body         any
	code         int
}

// checkOneCompactLine issues each request against h and asserts its
// status and that the reply is one line of compact JSON ending in "\n".
func checkOneCompactLine(t *testing.T, h http.Handler, reqs []replyRequest) {
	t.Helper()
	for _, rq := range reqs {
		var body io.Reader
		if rq.body != nil {
			b, err := json.Marshal(rq.body)
			if err != nil {
				t.Fatal(err)
			}
			body = bytes.NewReader(b)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(rq.method, rq.path, body))
		got := rec.Body.Bytes()
		what := fmt.Sprintf("%s %s", rq.method, rq.path)
		if rec.Code != rq.code {
			t.Errorf("%s: status %d, want %d: %s", what, rec.Code, rq.code, got)
			continue
		}
		if !bytes.HasSuffix(got, []byte("\n")) || bytes.Count(got, []byte("\n")) != 1 {
			t.Errorf("%s: reply is not one line ending in a newline:\n%q", what, got)
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, got); err != nil {
			t.Errorf("%s: reply is not JSON: %v\n%s", what, err, got)
			continue
		}
		if !bytes.Equal(compact.Bytes(), bytes.TrimSuffix(got, []byte("\n"))) {
			t.Errorf("%s: reply is not compact:\n%s", what, got)
		}
	}
}

// routesCovered asserts reqs exercise every route of table: a route
// added later must join the sweep.
func routesCovered(t *testing.T, table []serve.Route, reqs []replyRequest) {
	t.Helper()
	mux := http.NewServeMux()
	for _, rt := range table {
		mux.Handle(rt.Method+" "+rt.Pattern, http.NotFoundHandler())
	}
	seen := map[string]bool{}
	for _, rq := range reqs {
		if _, pattern := mux.Handler(httptest.NewRequest(rq.method, rq.path, nil)); pattern != "" {
			seen[pattern] = true
		}
	}
	for _, rt := range table {
		if !seen[rt.Method+" "+rt.Pattern] {
			t.Errorf("route %s %s is not in the reply sweep", rt.Method, rt.Pattern)
		}
	}
}

// TestEveryReplyIsOneCompactLine drives every route of cupidd and of
// cupidrouter, success and error replies alike, and asserts each reply
// is one line of compact JSON ending in "\n". GET /replicate streams
// frames once it starts; its JSON reply is the error before the stream.
func TestEveryReplyIsOneCompactLine(t *testing.T) {
	shard := newReplServer(t, t.TempDir(), "")
	s := shard.s
	orders := map[string]string{"name": "orders", "format": "sql", "content": ordersDDL}
	reqs := []replyRequest{
		{http.MethodPost, "/schemas", orders, http.StatusCreated},
		{http.MethodPost, "/schemas", map[string]string{"name": "purchases", "format": "sql", "content": purchasesDDL}, http.StatusCreated},
		{http.MethodPost, "/schemas", map[string]string{"name": "gone", "format": "json", "content": inventoryJSON}, http.StatusCreated},
		{http.MethodPost, "/schemas", orders, http.StatusOK},
		{http.MethodPost, "/schemas", map[string]string{"name": "bad", "format": "sql", "content": "CREATE TABLE"}, http.StatusBadRequest},
		{http.MethodGet, "/schemas", nil, http.StatusOK},
		{http.MethodGet, "/schemas/orders", nil, http.StatusOK},
		{http.MethodGet, "/schemas/ghost", nil, http.StatusNotFound},
		{http.MethodDelete, "/schemas/gone", nil, http.StatusOK},
		{http.MethodDelete, "/schemas/gone", nil, http.StatusNotFound},
		{http.MethodPost, "/match", map[string]any{"source": map[string]string{"name": "orders"}, "target": map[string]string{"format": "sql", "content": purchasesDDL}}, http.StatusOK},
		{http.MethodPost, "/match", map[string]any{"source": map[string]string{"name": "orders"}, "target": map[string]string{"format": "sql", "content": "CREATE TABLE"}}, http.StatusBadRequest},
		{http.MethodPost, "/match/batch", map[string]any{"source": map[string]string{"name": "orders"}, "topK": 1}, http.StatusOK},
		{http.MethodPost, "/match/batch", map[string]any{"source": map[string]string{"format": "sql", "content": purchasesDDL}}, http.StatusOK},
		{http.MethodPost, "/match/batch", map[string]any{"source": map[string]string{"name": "ghost"}}, http.StatusNotFound},
		{http.MethodPost, "/match/batch", map[string]any{"source": map[string]string{"name": "orders"}, "bogus": 1}, http.StatusBadRequest},
		{http.MethodGet, "/mappings/orders/purchases", nil, http.StatusOK},
		{http.MethodGet, "/mappings/orders/purchases?via=family", nil, http.StatusBadRequest},
		{http.MethodGet, "/mappings/orders/purchases?via=bogus", nil, http.StatusBadRequest},
		// The corpus clustering routes were removed.
		{http.MethodPost, "/corpus/cluster", nil, http.StatusNotFound},
		{http.MethodGet, "/corpus/cluster/1", nil, http.StatusNotFound},
		{http.MethodGet, "/corpus/families", nil, http.StatusNotFound},
		{http.MethodGet, "/replicate?base=x", nil, http.StatusBadRequest},
		{http.MethodGet, "/healthz", nil, http.StatusOK},
		{http.MethodGet, "/readyz", nil, http.StatusOK},
		{http.MethodGet, "/nowhere", nil, http.StatusNotFound},
		{http.MethodPut, "/schemas", nil, http.StatusMethodNotAllowed},
	}
	checkOneCompactLine(t, s.routes(), reqs)
	routesCovered(t, s.routeTable(), reqs)

	rt, err := cluster.NewRouter(cluster.Options{Shards: []string{shard.ts.URL}})
	if err != nil {
		t.Fatal(err)
	}
	routed := []replyRequest{
		{http.MethodPost, "/schemas", map[string]string{"name": "gone", "format": "json", "content": inventoryJSON}, http.StatusCreated},
		{http.MethodPost, "/schemas", map[string]string{"format": "sql", "content": ordersDDL}, http.StatusBadRequest},
		{http.MethodGet, "/schemas", nil, http.StatusOK},
		{http.MethodGet, "/schemas/orders", nil, http.StatusOK},
		{http.MethodDelete, "/schemas/gone", nil, http.StatusOK},
		{http.MethodDelete, "/schemas/gone", nil, http.StatusNotFound},
		{http.MethodPost, "/match/batch", map[string]any{"source": map[string]string{"name": "orders"}, "topK": 1}, http.StatusOK},
		{http.MethodPost, "/match/batch", map[string]any{"source": map[string]string{"name": "ghost"}}, http.StatusNotFound},
		{http.MethodGet, "/healthz", nil, http.StatusOK},
		{http.MethodGet, "/readyz", nil, http.StatusOK},
		{http.MethodGet, "/nowhere", nil, http.StatusNotFound},
		{http.MethodPut, "/schemas", nil, http.StatusMethodNotAllowed},
	}
	checkOneCompactLine(t, rt, routed)
	routesCovered(t, rt.RouteTable(), routed)
}

// batchSource is an inline /match/batch body for a SQL source.
func batchSource(name, content string, instances json.RawMessage) map[string]any {
	src := map[string]any{"name": name, "format": "sql", "content": content}
	if instances != nil {
		src["instances"] = instances
	}
	return map[string]any{"source": src, "topK": 3}
}

// TestInlineSourceKeyedByReference: inline references that differ only
// in name, or only in instances, are different cache entries, and each
// reply names its own source; repeating one is a hit that keeps its name.
func TestInlineSourceKeyedByReference(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	register(t, ts, "orders", "sql", ordersDDL)
	register(t, ts, "inventory", "json", inventoryJSON)

	samples := json.RawMessage(`{"purchases.Purchases.Customer": ["acme", "globex"]}`)
	type reply struct {
		Cached bool   `json:"cached"`
		Source string `json:"source"`
	}
	for i, c := range []struct {
		body       map[string]any
		wantSource string
		wantCached bool
	}{
		{batchSource("purchases", purchasesDDL, nil), "purchases", false},
		{batchSource("sales", purchasesDDL, nil), "sales", false},
		{batchSource("purchases", purchasesDDL, samples), "purchases", false},
		{batchSource("sales", purchasesDDL, nil), "sales", true},
		{batchSource("purchases", purchasesDDL, nil), "purchases", true},
	} {
		var got reply
		if code := call(t, ts, http.MethodPost, "/match/batch", c.body, &got); code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if got.Source != c.wantSource || got.Cached != c.wantCached {
			t.Errorf("request %d: source %q cached %t, want %q cached %t", i, got.Source, got.Cached, c.wantSource, c.wantCached)
		}
	}
	if n := s.front.Stats().Cache.Len; n != 3 {
		t.Errorf("three distinct references left %d cache entries, want 3", n)
	}
}

// TestInlineParseErrorNeverCached: an inline source that fails to parse
// gets the same 400 every time, on /match/batch and /match alike, and
// never enters the cache.
func TestInlineParseErrorNeverCached(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	register(t, ts, "orders", "sql", ordersDDL)
	var warm struct{}
	if code := call(t, ts, http.MethodPost, "/match/batch", map[string]any{"source": map[string]string{"name": "orders"}}, &warm); code != http.StatusOK {
		t.Fatalf("warm-up batch: status %d", code)
	}
	before := s.front.Stats().Cache.Len

	bad := map[string]string{"format": "sql", "content": "CREATE TABLE"}
	for _, c := range []struct {
		path string
		body any
	}{
		{"/match/batch", map[string]any{"source": bad}},
		{"/match", map[string]any{"source": bad, "target": map[string]string{"name": "orders"}}},
	} {
		var msgs []string
		for i := 0; i < 2; i++ {
			var e struct {
				Error string `json:"error"`
			}
			if code := call(t, ts, http.MethodPost, c.path, c.body, &e); code != http.StatusBadRequest {
				t.Fatalf("POST %s with a malformed source: status %d, want 400", c.path, code)
			}
			msgs = append(msgs, e.Error)
		}
		if !strings.HasPrefix(msgs[0], "parsing inline schema: ") || msgs[0] != msgs[1] {
			t.Errorf("POST %s: errors %q, want one repeated parse error", c.path, msgs)
		}
	}
	if n := s.front.Stats().Cache.Len; n != before {
		t.Errorf("cache holds %d entries after failed parses, want %d", n, before)
	}
}

// hitFixture is a server whose repository holds a family corpus, and the
// body of an inline /match/batch request (top 10) for a synthetic probe of
// the given table count in the native JSON format.
func hitFixture(tb testing.TB, tables int) (*server, []byte) {
	tb.Helper()
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	for _, sch := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 4, Seed: 11}) {
		if _, _, err := s.reg.Register(sch.Name, sch); err != nil {
			tb.Fatal(err)
		}
	}
	probe := workloads.Synthetic(workloads.SyntheticSpec{Tables: tables, ColsPerTable: 8, Depth: 2, Seed: 5}).Source
	content, err := probe.MarshalJSON()
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(serve.BatchRequest{Source: serve.SchemaRef{Format: "json", Content: string(content)}, TopK: 10})
	if err != nil {
		tb.Fatal(err)
	}
	return s, body
}

// serveBatch sends one /match/batch body through h and returns the reply.
func serveBatch(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/match/batch", bytes.NewReader(body)))
	return rec
}

// TestCachedInlineBatchHitAllocs pins what a cached inline batch hit
// costs through the whole handler stack: decode the body, hash the
// reference, look the ranking up, encode the reply. It never parses or
// prepares the source, so the count barely grows with the probe (515 and
// 1,605 allocations per hit here when the cache was keyed by the
// prepared schema's fingerprint and every hit parsed and prepared it).
func TestCachedInlineBatchHitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a repository")
	}
	if raceEnabled {
		t.Skip("the race detector drops pooled encoder state, so the count is not the build's")
	}
	const maxAllocs = 64
	for _, tables := range []int{4, 16} {
		s, body := hitFixture(t, tables)
		h := s.routes()
		cold := serveBatch(h, body)
		if cold.Code != http.StatusOK {
			t.Fatalf("%d tables: cold batch: status %d: %s", tables, cold.Code, cold.Body)
		}
		var reply serve.BatchReply
		if err := json.Unmarshal(serveBatch(h, body).Body.Bytes(), &reply); err != nil || !reply.Cached || len(reply.Results) == 0 {
			t.Fatalf("%d tables: warm batch is not a cached ranking (err %v): %+v", tables, err, reply)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if rec := serveBatch(h, body); rec.Code != http.StatusOK {
				t.Fatalf("%d tables: status %d", tables, rec.Code)
			}
		})
		t.Logf("%d tables: %.0f allocations per cached hit, %d-byte body", tables, allocs, len(body))
		if allocs > maxAllocs {
			t.Errorf("%d tables: a cached inline batch hit allocates %.0f objects, want <= %d", tables, allocs, maxAllocs)
		}
	}
}

// BenchmarkCachedBatchHit measures one cached inline /match/batch hit
// (top 10) through the handler stack, at a 4- and a 16-table probe.
func BenchmarkCachedBatchHit(b *testing.B) {
	for _, tables := range []int{4, 16} {
		b.Run(fmt.Sprintf("tables=%d", tables), func(b *testing.B) {
			s, body := hitFixture(b, tables)
			h := s.routes()
			serveBatch(h, body)
			b.ReportAllocs()
			for b.Loop() {
				if rec := serveBatch(h, body); rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}
