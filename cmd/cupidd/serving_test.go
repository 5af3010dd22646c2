package main

// Overload-resilience coverage: the JSON 404/405 contract, the 413 body
// cap, 429 + Retry-After under admission pressure, /readyz vs /healthz
// during a drain, client disconnects releasing their admission promptly,
// and a drain leaving a clean journal behind.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	cupid "repro"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// jsonErrorOf asserts a response is the JSON error contract (an
// {"error": ...} object with Content-Type application/json) and returns
// the message.
func jsonErrorOf(t *testing.T, resp *http.Response) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("%s %s: Content-Type %q, want application/json", resp.Request.Method, resp.Request.URL.Path, ct)
	}
	defer resp.Body.Close()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("%s %s: response is not the JSON error shape: %v", resp.Request.Method, resp.Request.URL.Path, err)
	}
	if body.Error == "" {
		t.Errorf("%s %s: error response has no message", resp.Request.Method, resp.Request.URL.Path)
	}
	return body.Error
}

// TestJSONErrorContractCovers404And405 walks the route table and asserts
// the error contract holds for every wrong-method request (405 with an
// Allow header naming each declared method) and for unknown paths (404)
// — an invariant over routeTable, so a route added later is covered
// automatically.
func TestJSONErrorContractCovers404And405(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	declared := map[string][]string{} // pattern -> methods
	for _, rt := range s.routeTable() {
		declared[rt.Pattern] = append(declared[rt.Pattern], rt.Method)
	}
	for pattern, methods := range declared {
		supported := map[string]bool{}
		for _, m := range methods {
			supported[m] = true
		}
		path := strings.ReplaceAll(pattern, "{name}", "some-name")
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodDelete, http.MethodPut, http.MethodPatch} {
			if supported[method] {
				continue
			}
			req, err := http.NewRequest(method, ts.URL+path, strings.NewReader("{}"))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status %d, want 405", method, path, resp.StatusCode)
			}
			allow := resp.Header.Get("Allow")
			for _, m := range methods {
				if !strings.Contains(allow, m) {
					t.Errorf("%s %s: Allow header %q missing %s", method, path, allow, m)
				}
			}
			jsonErrorOf(t, resp)
		}
	}

	for _, path := range []string{"/", "/nope", "/schemas/x/too/deep", "/match/batchx"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
		jsonErrorOf(t, resp)
	}
}

func TestRequestBodyCapReturns413(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.maxBody = 512
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	big := "CREATE TABLE T (" + strings.Repeat("LongColumnName INT, ", 200) + "ID INT);"
	var errResp struct {
		Error string `json:"error"`
	}
	code := call(t, ts, http.MethodPost, "/schemas",
		map[string]string{"name": "x", "format": "sql", "content": big}, &errResp)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized register: status %d, want 413", code)
	}
	if !strings.Contains(errResp.Error, "max-body") {
		t.Errorf("413 error %q does not point at -max-body", errResp.Error)
	}
	errResp.Error = ""
	code = call(t, ts, http.MethodPost, "/match/batch",
		map[string]any{"source": map[string]string{"format": "sql", "content": big}}, &errResp)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413", code)
	}
	// A small body still works on the same server.
	register(t, ts, "orders", "sql", "CREATE TABLE Orders (OrderID INT PRIMARY KEY);")
}

// TestOverloadReturns429WithRetryAfter saturates the read pool and
// asserts shed requests get 429 + Retry-After while the JSON error
// contract holds.
func TestOverloadReturns429WithRetryAfter(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One slot, one queue seat, 10ms latency target, no cache (a cache
	// hit would bypass admission and dodge the 429 on purpose).
	s.front = serve.NewFrontend(s.reg, serve.Options{
		Read:  serve.PoolOptions{Slots: 1, Queue: 1, MaxWait: 10 * time.Millisecond},
		Write: serve.PoolOptions{Slots: 1, Queue: 8, MaxWait: time.Second},
	})
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	register(t, ts, "orders", "sql", ordersDDL)

	// Hold the only read slot so every match request must queue.
	release, err := s.front.ReadPool().Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	body := strings.NewReader(`{"source": {"name": "orders"}}`)
	resp, err := ts.Client().Post(ts.URL+"/match/batch", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated batch: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response has no Retry-After header")
	}
	msg := jsonErrorOf(t, resp)
	if !strings.Contains(msg, "overloaded") {
		t.Errorf("429 error %q does not say overloaded", msg)
	}
	if st := s.front.ReadPool().Stats(); st.RejectedWait == 0 && st.RejectedFull == 0 {
		t.Error("pool counters recorded no shed despite the 429")
	}
}

// TestReadyzDrainAnd503 walks the shutdown sequence: ready, then
// BeginDrain flips /readyz to 503 while /healthz stays live and every
// other route sheds with 503 + Retry-After.
func TestReadyzDrainAnd503(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	register(t, ts, "orders", "sql", ordersDDL)

	var ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if code := call(t, ts, http.MethodGet, "/readyz", nil, &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("pre-drain readyz = %d %+v, want 200 ready", code, ready)
	}

	s.front.BeginDrain()

	if code := call(t, ts, http.MethodGet, "/readyz", nil, &ready); code != http.StatusServiceUnavailable || ready.Ready || ready.Reason != "draining" {
		t.Errorf("draining readyz = %d %+v, want 503 {ready:false, reason:draining}", code, ready)
	}
	var health map[string]string
	if code := call(t, ts, http.MethodGet, "/healthz", nil, &health); code != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (liveness is not readiness)", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/schemas")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /schemas during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 has no Retry-After header")
	}
	jsonErrorOf(t, resp)
}

// TestClientDisconnectReleasesAdmission covers both disconnect points: a
// client that vanishes while queued gives its queue seat back, and a
// client that vanishes mid-scoring frees its slot promptly (the context
// threads into the candidate loop, so the worker stops instead of
// finishing a ranking nobody will read).
func TestClientDisconnectReleasesAdmission(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.front = serve.NewFrontend(s.reg, serve.Options{
		Read: serve.PoolOptions{Slots: 1, Queue: 4, MaxWait: time.Minute},
	})
	// A real corpus so a batch match does meaningful scoring work.
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 8, Seed: 3})
	for _, sc := range corpus {
		if _, _, err := s.reg.Register(sc.Name, sc); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	pool := s.front.ReadPool()

	// Disconnect while queued: hold the slot, start a request, kill it.
	release, err := pool.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/match/batch",
		strings.NewReader(fmt.Sprintf(`{"source": {"name": %q}}`, corpus[0].Name)))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errc <- err
	}()
	waitForCond(t, func() bool { return pool.Queued() == 1 })
	cancel()
	if err := <-errc; err == nil {
		t.Error("canceled request reported no error to the client")
	}
	waitForCond(t, func() bool { return pool.Queued() == 0 })
	release()

	// Disconnect mid-scoring: the request now gets the slot immediately;
	// cancel once it is in flight and the slot must come back without the
	// ranking finishing on its own schedule.
	ctx2, cancel2 := context.WithCancel(context.Background())
	req2, err := http.NewRequestWithContext(ctx2, http.MethodPost, ts.URL+"/match/batch",
		strings.NewReader(fmt.Sprintf(`{"source": {"name": %q}}`, corpus[1].Name)))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := ts.Client().Do(req2)
		errc <- err
	}()
	waitForCond(t, func() bool { return pool.InFlight() == 1 || pool.Stats().Admitted >= 2 })
	cancel2()
	<-errc
	waitForCond(t, func() bool { return pool.InFlight() == 0 })

	// The server is still fully functional afterwards.
	var batch struct {
		Results []serve.BatchResult `json:"results"`
	}
	if code := call(t, ts, http.MethodPost, "/match/batch",
		map[string]any{"source": map[string]string{"name": corpus[2].Name}, "topK": 3}, &batch); code != http.StatusOK {
		t.Fatalf("post-disconnect batch: status %d", code)
	}
	if len(batch.Results) == 0 {
		t.Error("post-disconnect batch returned no results")
	}
}

// TestDrainLeavesCleanJournal drives the durable server through the
// shutdown sequence: acked registrations before the drain, 503 for the
// late arrival, then close and reopen — the journal must recover without
// a single warning and hold exactly the acked mutations.
func TestDrainLeavesCleanJournal(t *testing.T) {
	dir := t.TempDir()
	fs, opt := newFlagSet()
	if err := fs.Parse([]string{"-data", dir}); err != nil {
		t.Fatal(err)
	}
	s, err := newServerFromOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	register(t, ts, "orders", "sql", ordersDDL)
	register(t, ts, "purchases", "sql", purchasesDDL)

	s.front.BeginDrain()
	code, err := tryCall(ts, http.MethodPost, "/schemas",
		map[string]string{"name": "late", "format": "sql", "content": ordersDDL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Errorf("register during drain: status %d, want 503", code)
	}
	ts.Close()
	if err := s.close(); err != nil {
		t.Fatalf("closing drained server: %v", err)
	}

	m, err := cupid.NewMatcher(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, warns, err := cupid.OpenPersistentRegistryOptions(dir, m, cupid.DefaultPersistOptions())
	if err != nil {
		t.Fatalf("reopening journal after drain: %v", err)
	}
	defer p.Close()
	if len(warns) != 0 {
		t.Errorf("drained shutdown left recovery warnings: %v", warns)
	}
	if got := p.Registry.Len(); got != 2 {
		t.Errorf("recovered %d schemas, want the 2 acked ones", got)
	}
	for _, name := range []string{"orders", "purchases"} {
		if _, ok := p.Registry.Get(name); !ok {
			t.Errorf("acked registration %q missing after drained shutdown", name)
		}
	}
}

// TestCacheFlagAndResponseFields exercises the cached/degraded response
// fields end to end: a repeated batch is flagged cached with identical
// results, a mutation un-caches it, and -cache=0 disables caching.
func TestCacheFlagAndResponseFields(t *testing.T) {
	type batchResp struct {
		CandidatesScored int                 `json:"candidates_scored"`
		CandidateBudget  int                 `json:"candidate_budget"`
		Cached           bool                `json:"cached"`
		Degraded         bool                `json:"degraded"`
		Results          []serve.BatchResult `json:"results"`
	}
	body := map[string]any{"source": map[string]string{"name": "orders"}, "topK": 2}

	s, err := newServer(cupid.DefaultConfig()) // default -cache 1024
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	register(t, ts, "orders", "sql", ordersDDL)
	register(t, ts, "purchases", "sql", purchasesDDL)

	var cold, warm, after batchResp
	if code := call(t, ts, http.MethodPost, "/match/batch", body, &cold); code != http.StatusOK {
		t.Fatalf("cold batch: %d", code)
	}
	if cold.Cached || cold.Degraded {
		t.Errorf("cold batch flags = cached %t degraded %t, want false/false", cold.Cached, cold.Degraded)
	}
	if cold.CandidateBudget <= 0 {
		t.Errorf("candidate_budget = %d, want > 0", cold.CandidateBudget)
	}
	if code := call(t, ts, http.MethodPost, "/match/batch", body, &warm); code != http.StatusOK {
		t.Fatalf("warm batch: %d", code)
	}
	if !warm.Cached {
		t.Error("repeated batch not served from cache")
	}
	if fmt.Sprint(cold.Results) != fmt.Sprint(warm.Results) {
		t.Error("cached batch results differ from fresh ones")
	}
	// A mutation invalidates: the next identical batch recomputes.
	register(t, ts, "inventory", "json", inventoryJSON)
	if code := call(t, ts, http.MethodPost, "/match/batch", body, &after); code != http.StatusOK {
		t.Fatalf("post-mutation batch: %d", code)
	}
	if after.Cached {
		t.Error("batch after a mutation still served from cache (stale hit)")
	}

	// -cache=0 disables caching entirely.
	fs, opt := newFlagSet()
	if err := fs.Parse([]string{"-cache", "0"}); err != nil {
		t.Fatal(err)
	}
	s2, err := newServerFromOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()
	register(t, ts2, "orders", "sql", ordersDDL)
	register(t, ts2, "purchases", "sql", purchasesDDL)
	for i := 0; i < 2; i++ {
		var resp batchResp
		if code := call(t, ts2, http.MethodPost, "/match/batch", body, &resp); code != http.StatusOK {
			t.Fatalf("uncached batch %d: %d", i, code)
		}
		if resp.Cached {
			t.Errorf("batch %d flagged cached with -cache=0", i)
		}
	}
}

// rawCall is call returning the raw JSON response body.
func rawCall(t *testing.T, ts *httptest.Server, method, path string, body any) (int, json.RawMessage) {
	t.Helper()
	var raw json.RawMessage
	code := call(t, ts, method, path, body, &raw)
	return code, raw
}

// sameApartFromCached asserts two JSON object responses are byte-identical
// in every field but "cached", and that "cached" reads wantA and wantB.
func sameApartFromCached(t *testing.T, what string, a, b []byte, wantA, wantB bool) {
	t.Helper()
	fields := func(raw []byte, want bool) map[string]json.RawMessage {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("%s: response is not a JSON object: %v\n%s", what, err, raw)
		}
		if got := string(m["cached"]); got != strconv.FormatBool(want) {
			t.Errorf("%s: cached = %s, want %t", what, got, want)
		}
		delete(m, "cached")
		return m
	}
	fa, fb := fields(a, wantA), fields(b, wantB)
	var leaves []serve.Pair
	if results, ok := fa["results"]; ok {
		var rs []serve.BatchResult
		if err := json.Unmarshal(results, &rs); err != nil || len(rs) == 0 {
			t.Fatalf("%s: response has no results to compare (err %v):\n%s", what, err, a)
		}
		leaves = rs[0].Leaves
	} else if err := json.Unmarshal(fa["leaves"], &leaves); err != nil {
		t.Fatalf("%s: response has no leaf pairs (err %v):\n%s", what, err, a)
	}
	if len(leaves) == 0 {
		t.Fatalf("%s: response has no leaf pairs to compare:\n%s", what, a)
	}
	if len(fa) != len(fb) {
		t.Errorf("%s: %d fields vs %d", what, len(fa), len(fb))
	}
	for k, va := range fa {
		if vb, ok := fb[k]; !ok || !bytes.Equal(va, vb) {
			t.Errorf("%s: field %q differs:\n%s\nvs\n%s", what, k, va, vb)
		}
	}
}

// TestCachedMappingsAreByteIdentical asserts a cached reply is served
// exactly as computed: POST /match, POST /match/batch (a registered
// source, whose own entry the reply drops) and GET /mappings?via=direct
// answer byte-identically cold and warm (only "cached" changes).
func TestCachedMappingsAreByteIdentical(t *testing.T) {
	ts := newTestServer(t) // default -cache 1024
	register(t, ts, "orders", "sql", ordersDDL)
	register(t, ts, "purchases", "sql", purchasesDDL)
	match := map[string]any{
		"source": map[string]string{"name": "orders"},
		"target": map[string]string{"format": "sql", "content": purchasesDDL},
	}
	for _, c := range []struct {
		what, method, path string
		body               any
	}{
		{"POST /match", http.MethodPost, "/match", match},
		{"via=direct", http.MethodGet, "/mappings/orders/purchases?via=direct", nil},
		{"POST /match/batch", http.MethodPost, "/match/batch", map[string]any{"source": map[string]string{"name": "orders"}, "topK": 1}},
	} {
		code, cold := rawCall(t, ts, c.method, c.path, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s cold: status %d: %s", c.what, code, cold)
		}
		code, warm := rawCall(t, ts, c.method, c.path, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s warm: status %d: %s", c.what, code, warm)
		}
		sameApartFromCached(t, c.what, cold, warm, false, true)
	}

}

// TestCachedRepliesUnderConcurrentReaders: once a batch (of a registered
// source, which each reply trims out of the shared cached ranking) and a
// pair are cached, eight goroutines requesting both at once all receive
// the bytes of the warm replies. Under the race detector it also asserts
// no reader writes to the shared entries.
func TestCachedRepliesUnderConcurrentReaders(t *testing.T) {
	ts := newTestServer(t) // default -cache 1024
	register(t, ts, "orders", "sql", ordersDDL)
	register(t, ts, "purchases", "sql", purchasesDDL)
	register(t, ts, "inventory", "json", inventoryJSON)
	batch := map[string]any{"source": map[string]string{"name": "orders"}, "topK": 2}
	match := map[string]any{
		"source": map[string]string{"name": "orders"},
		"target": map[string]string{"format": "sql", "content": purchasesDDL},
	}
	rawCall(t, ts, http.MethodPost, "/match/batch", batch)
	rawCall(t, ts, http.MethodPost, "/match", match)
	_, wantBatch := rawCall(t, ts, http.MethodPost, "/match/batch", batch)
	_, wantPair := rawCall(t, ts, http.MethodPost, "/match", match)
	for what, raw := range map[string][]byte{"batch": wantBatch, "pair": wantPair} {
		var reply struct {
			Cached bool `json:"cached"`
		}
		if err := json.Unmarshal(raw, &reply); err != nil || !reply.Cached {
			t.Fatalf("warm %s reply is not cached (decode error %v):\n%s", what, err, raw)
		}
	}

	const readers = 8
	errs := make(chan error, 2*readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range []struct {
				path string
				body any
				want []byte
			}{{"/match/batch", batch, wantBatch}, {"/match", match, wantPair}} {
				var got json.RawMessage
				code, err := tryCall(ts, http.MethodPost, c.path, c.body, &got)
				switch {
				case err != nil:
					errs <- err
				case code != http.StatusOK:
					errs <- fmt.Errorf("POST %s: status %d: %s", c.path, code, got)
				case !bytes.Equal(got, c.want):
					errs <- fmt.Errorf("POST %s: concurrent reply differs from the warm one:\n%s\nvs\n%s", c.path, got, c.want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// waitForCond polls cond generously instead of sleeping fixed amounts.
func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}
