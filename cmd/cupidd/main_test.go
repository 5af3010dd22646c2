package main

// Integration coverage for the cupidd HTTP API, driven through httptest
// against the real handler stack: register (SQL DDL and native JSON),
// list, pair match, batch top-K match, delete, and the error paths.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	cupid "repro"
	"repro/internal/serve"
)

const ordersDDL = `
CREATE TABLE Orders (
    OrderID INT PRIMARY KEY,
    Customer VARCHAR(64),
    OrderDate DATE,
    Amount DECIMAL(10,2)
);`

const purchasesDDL = `
CREATE TABLE Purchases (
    PurchaseID INT PRIMARY KEY,
    Customer VARCHAR(64),
    PurchaseDate DATE,
    Total DECIMAL(10,2)
);`

const inventoryJSON = `{
  "name": "Inventory",
  "root": {
    "name": "Inventory",
    "children": [
      {"name": "Item", "kind": "element", "children": [
        {"name": "SKU", "kind": "attribute", "type": "string"},
        {"name": "Count", "kind": "attribute", "type": "int"}
      ]}
    ]
  }
}`

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts
}

// tryCall sends a JSON request and decodes the JSON response into out.
// It never calls into testing.T, so it is safe from non-test goroutines.
func tryCall(ts *httptest.Server, method, path string, body, out any) (int, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return 0, err
		}
	}
	req, err := http.NewRequest(method, ts.URL+path, &buf)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// call is tryCall for the test goroutine: request errors are fatal.
func call(t *testing.T, ts *httptest.Server, method, path string, body, out any) int {
	t.Helper()
	code, err := tryCall(ts, method, path, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func register(t *testing.T, ts *httptest.Server, name, format, content string) serve.SchemaInfo {
	t.Helper()
	var info serve.SchemaInfo
	code := call(t, ts, http.MethodPost, "/schemas",
		map[string]string{"name": name, "format": format, "content": content}, &info)
	if code != http.StatusCreated {
		t.Fatalf("registering %s: status %d", name, code)
	}
	return info
}

func TestServerRegisterListMatchBatch(t *testing.T) {
	ts := newTestServer(t)

	// Register schemas in two formats: SQL DDL and native JSON.
	orders := register(t, ts, "orders", "sql", ordersDDL)
	if orders.Name != "orders" || len(orders.Fingerprint) != 32 || orders.Leaves == 0 {
		t.Fatalf("bad register response: %+v", orders)
	}
	register(t, ts, "purchases", "sql", purchasesDDL)
	register(t, ts, "inventory", "json", inventoryJSON)

	// Idempotent re-registration returns 200, not 201.
	var again serve.SchemaInfo
	code := call(t, ts, http.MethodPost, "/schemas",
		map[string]string{"name": "orders", "format": "sql", "content": ordersDDL}, &again)
	if code != http.StatusOK {
		t.Errorf("idempotent re-register: status %d, want 200", code)
	}
	if again.Fingerprint != orders.Fingerprint {
		t.Error("re-registration changed the fingerprint")
	}

	// List is sorted by name.
	var list struct {
		Schemas []serve.SchemaInfo `json:"schemas"`
	}
	if code := call(t, ts, http.MethodGet, "/schemas", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Schemas) != 3 {
		t.Fatalf("list has %d schemas, want 3", len(list.Schemas))
	}
	for i, want := range []string{"inventory", "orders", "purchases"} {
		if list.Schemas[i].Name != want {
			t.Errorf("list[%d] = %q, want %q", i, list.Schemas[i].Name, want)
		}
	}

	// Pair match between two registered schemas.
	var pair struct {
		SourceSchema string       `json:"sourceSchema"`
		TargetSchema string       `json:"targetSchema"`
		Leaves       []serve.Pair `json:"leaves"`
	}
	code = call(t, ts, http.MethodPost, "/match", map[string]any{
		"source": map[string]string{"name": "orders"},
		"target": map[string]string{"name": "purchases"},
	}, &pair)
	if code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}
	if len(pair.Leaves) == 0 {
		t.Fatal("pair match found no leaf correspondences")
	}
	found := false
	for _, l := range pair.Leaves {
		if l.Source == "orders.Orders.Customer" && l.Target == "purchases.Purchases.Customer" {
			found = true
			if l.WSim < 0.5 {
				t.Errorf("Customer-Customer wsim %v below acceptance", l.WSim)
			}
		}
	}
	if !found {
		t.Errorf("expected Customer<->Customer leaf missing; got %+v", pair.Leaves)
	}

	// Pair match with one inline (un-registered) schema.
	code = call(t, ts, http.MethodPost, "/match", map[string]any{
		"source": map[string]string{"format": "json", "content": inventoryJSON},
		"target": map[string]string{"name": "orders"},
	}, &pair)
	if code != http.StatusOK {
		t.Fatalf("inline match: status %d", code)
	}

	// Batch: rank the repository against a registered source. The sibling
	// DDL schema must outscore the unrelated JSON one, and the source must
	// not be ranked against itself.
	var batch struct {
		Source  string              `json:"source"`
		Results []serve.BatchResult `json:"results"`
	}
	code = call(t, ts, http.MethodPost, "/match/batch", map[string]any{
		"source": map[string]string{"name": "orders"},
	}, &batch)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if batch.Source != "orders" {
		t.Errorf("batch source = %q", batch.Source)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch ranked %d schemas, want 2 (source excluded)", len(batch.Results))
	}
	if batch.Results[0].Name != "purchases" {
		t.Errorf("top batch result = %q, want purchases", batch.Results[0].Name)
	}
	if batch.Results[0].Score < batch.Results[1].Score {
		t.Error("batch ranking is not descending")
	}

	// topK counts results after self-exclusion: a registered source's
	// self-match must not eat one of the caller's slots.
	code = call(t, ts, http.MethodPost, "/match/batch", map[string]any{
		"source": map[string]string{"name": "orders"},
		"topK":   2,
	}, &batch)
	if code != http.StatusOK {
		t.Fatalf("topK batch: status %d", code)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("topK=2 with registered source returned %d results, want 2", len(batch.Results))
	}
	for _, r := range batch.Results {
		if r.Name == "orders" {
			t.Error("batch ranked the source against itself")
		}
	}

	// Batch with topK=1 and an inline source.
	code = call(t, ts, http.MethodPost, "/match/batch", map[string]any{
		"source": map[string]string{"format": "sql", "content": purchasesDDL},
		"topK":   1,
	}, &batch)
	if code != http.StatusOK {
		t.Fatalf("inline batch: status %d", code)
	}
	if len(batch.Results) != 1 {
		t.Fatalf("topK=1 returned %d results", len(batch.Results))
	}

	// Delete, then matching by the stale name 404s.
	if code := call(t, ts, http.MethodDelete, "/schemas/inventory", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	code = call(t, ts, http.MethodPost, "/match", map[string]any{
		"source": map[string]string{"name": "inventory"},
		"target": map[string]string{"name": "orders"},
	}, nil)
	if code != http.StatusNotFound {
		t.Errorf("match against deleted schema: status %d, want 404", code)
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts := newTestServer(t)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown format", http.MethodPost, "/schemas",
			map[string]string{"name": "x", "format": "yaml", "content": "a: 1"}, http.StatusBadRequest},
		{"malformed ddl", http.MethodPost, "/schemas",
			map[string]string{"name": "x", "format": "sql", "content": "DROP EVERYTHING"}, http.StatusBadRequest},
		{"unterminated dtd literal", http.MethodPost, "/schemas",
			map[string]string{"name": "x", "format": "dtd", "content": `<!ELEMENT a EMPTY><!ATTLIST a b CDATA "x>`}, http.StatusBadRequest},
		{"no name or content", http.MethodPost, "/match",
			map[string]any{"source": map[string]string{}, "target": map[string]string{}}, http.StatusBadRequest},
		{"unregistered name", http.MethodPost, "/match",
			map[string]any{
				"source": map[string]string{"name": "ghost"},
				"target": map[string]string{"name": "ghost"},
			}, http.StatusNotFound},
		{"unknown request field", http.MethodPost, "/match/batch",
			map[string]any{"sauce": map[string]string{"name": "x"}}, http.StatusBadRequest},
		{"inline without format", http.MethodPost, "/match/batch",
			map[string]any{"source": map[string]string{"content": "CREATE TABLE T (X INT);"}}, http.StatusBadRequest},
		{"delete missing", http.MethodDelete, "/schemas/ghost", nil, http.StatusNotFound},
	}
	for _, c := range cases {
		var errResp struct {
			Error string `json:"error"`
		}
		code := call(t, ts, c.method, c.path, c.body, &errResp)
		if code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
		if errResp.Error == "" {
			t.Errorf("%s: error response has no message", c.name)
		}
	}

	if code := call(t, ts, http.MethodGet, "/healthz", nil, nil); code != http.StatusOK {
		t.Error("healthz not ok")
	}
}

// TestServerConcurrentClients drives registration and batch matching from
// concurrent clients (run with -race): the registry guarantees snapshot
// isolation, so every request must succeed.
func TestServerConcurrentClients(t *testing.T) {
	ts := newTestServer(t)
	register(t, ts, "orders", "sql", ordersDDL)

	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			ddl := fmt.Sprintf("CREATE TABLE Extra%d (ID INT PRIMARY KEY, Name VARCHAR(10));", g)
			var info serve.SchemaInfo
			code, err := tryCall(ts, http.MethodPost, "/schemas",
				map[string]string{"name": fmt.Sprintf("extra%d", g), "format": "sql", "content": ddl}, &info)
			if err == nil && code != http.StatusCreated {
				err = fmt.Errorf("concurrent register %d: status %d", g, code)
			}
			done <- err
		}(g)
		go func() {
			var batch struct {
				Results []serve.BatchResult `json:"results"`
			}
			code, err := tryCall(ts, http.MethodPost, "/match/batch", map[string]any{
				"source": map[string]string{"format": "sql", "content": purchasesDDL},
			}, &batch)
			if err == nil && code != http.StatusOK {
				err = fmt.Errorf("concurrent batch: status %d", code)
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
}

// TestServerBatchRetrievalModes drives /match/batch under all four
// retrieval modes — planned (-retrieval=auto, the default), forced
// indexed, forced linear signature-pruned, forced exhaustive — and
// asserts they agree on the top result, always report candidates_scored,
// and name the strategy that ran. The repository outgrows the candidate
// floor of 16, so the indexed and pruned paths genuinely engage instead of
// falling back to the exact scan.
func TestServerBatchRetrievalModes(t *testing.T) {
	servers := map[string]*server{}
	for _, mode := range []string{"auto", "indexed", "pruned", "exact"} {
		s, err := newServer(cupid.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		switch mode {
		case "indexed":
			s.retrieval = cupid.RetrievalIndexed
		case "pruned":
			s.retrieval = cupid.RetrievalPruned
		case "exact":
			s.retrieval = cupid.RetrievalExact
		}
		servers[mode] = s
	}

	// orders + its true match, padded with seven copies of four unrelated
	// domains: 30 schemas, so the candidate budget (the floor of 16) is a
	// real subset of the repository.
	schemas := []struct{ name, ddl string }{
		{"orders", ordersDDL},
		{"purchases", purchasesDDL},
	}
	// No *ID columns and no PRIMARY KEY constraints: both leave tokens
	// ("id", "primary", "key", the identity concept) in every signature,
	// and any shared token would make a filler an index survivor.
	fillers := []struct{ name, ddl string }{
		{"telemetry", "CREATE TABLE Telemetry%d (Sensor INT, Voltage INT, Reading INT);"},
		{"payroll", "CREATE TABLE Payroll%d (Employee INT, Salary DECIMAL(10,2), Grade INT);"},
		{"astro", "CREATE TABLE Observations%d (Star INT, Magnitude INT, Redshift INT);"},
		{"library", "CREATE TABLE Books%d (Shelf INT, Edition INT, Catalog INT);"},
	}
	for i := 0; i < 7; i++ {
		for _, f := range fillers {
			schemas = append(schemas, struct{ name, ddl string }{fmt.Sprintf("%s%d", f.name, i), fmt.Sprintf(f.ddl, i)})
		}
	}
	type batchResp struct {
		Source           string              `json:"source"`
		Strategy         string              `json:"strategy"`
		Planned          bool                `json:"planned"`
		CandidatesScored int                 `json:"candidates_scored"`
		CandidateBudget  int                 `json:"candidate_budget"`
		Results          []serve.BatchResult `json:"results"`
	}
	got := map[string]batchResp{}
	for _, mode := range []string{"exact", "auto", "indexed", "pruned"} {
		s := servers[mode]
		ts := httptest.NewServer(s.routes())
		for _, sc := range schemas {
			register(t, ts, sc.name, "sql", sc.ddl)
		}
		var resp batchResp
		if code := call(t, ts, http.MethodPost, "/match/batch", map[string]any{
			"source": map[string]string{"name": "orders"},
			"topK":   1,
		}, &resp); code != http.StatusOK {
			t.Fatalf("%s: batch status %d", mode, code)
		}
		ts.Close()
		got[mode] = resp
	}
	if n := got["exact"].CandidatesScored; n != len(schemas) {
		t.Errorf("exact: candidates_scored = %d, want the whole repository (%d)", n, len(schemas))
	}
	// The indexed path must have engaged: only token-sharers are scored,
	// and the unrelated domains share nothing with orders.
	if n := got["indexed"].CandidatesScored; n <= 0 || n >= len(schemas) {
		t.Errorf("indexed: candidates_scored = %d, want in (0,%d) — the index did not engage", n, len(schemas))
	}
	for _, mode := range []string{"indexed", "pruned"} {
		if b := got[mode].CandidateBudget; b != 16 {
			t.Errorf("%s: candidate_budget = %d, want the floor of 16 — below the %d-schema repository", mode, b, len(schemas))
		}
	}
	// Forced modes report themselves; the planned mode reports a concrete
	// strategy (never "auto") and flags the decision as planned.
	for _, mode := range []string{"exact", "indexed", "pruned"} {
		if got[mode].Strategy != mode || got[mode].Planned {
			t.Errorf("%s: strategy = %q planned=%t, want the forced mode, not planned",
				mode, got[mode].Strategy, got[mode].Planned)
		}
	}
	if st := got["auto"].Strategy; st == "" || st == "auto" {
		t.Errorf("auto: strategy = %q, want the concrete strategy the planner picked", st)
	}
	if !got["auto"].Planned {
		t.Error("auto: planned = false, want true")
	}
	for mode, resp := range got {
		if resp.CandidatesScored <= 0 {
			t.Errorf("%s: candidates_scored = %d, want > 0", mode, resp.CandidatesScored)
		}
		if len(resp.Results) != 1 || len(got["exact"].Results) != 1 {
			t.Fatalf("%s: results = %+v (exact %+v), want exactly one entry each", mode, resp.Results, got["exact"].Results)
		}
		if resp.Results[0].Name != "purchases" {
			t.Errorf("%s: results = %+v, want the single entry purchases", mode, resp.Results)
		}
		if resp.Results[0].Score != got["exact"].Results[0].Score {
			t.Errorf("%s: score %v differs from exact %v", mode,
				resp.Results[0].Score, got["exact"].Results[0].Score)
		}
	}
}

// TestRetrievalFlagResolution covers the -retrieval knob: every spelling
// maps onto its strategy, and unknown values — family included, a
// strategy once — are refused with an error naming the valid ones.
func TestRetrievalFlagResolution(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		want    cupid.RetrievalStrategy
		wantErr bool
	}{
		{name: "default is the planner", args: nil, want: cupid.RetrievalAuto},
		{name: "retrieval auto", args: []string{"-retrieval=auto"}, want: cupid.RetrievalAuto},
		{name: "retrieval index", args: []string{"-retrieval=index"}, want: cupid.RetrievalIndexed},
		{name: "retrieval indexed spelling", args: []string{"-retrieval=indexed"}, want: cupid.RetrievalIndexed},
		{name: "retrieval pruned", args: []string{"-retrieval=pruned"}, want: cupid.RetrievalPruned},
		{name: "retrieval exact", args: []string{"-retrieval=exact"}, want: cupid.RetrievalExact},
		{name: "retrieval family", args: []string{"-retrieval=family"}, wantErr: true},
		{name: "unknown strategy", args: []string{"-retrieval=fuzzy"}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs, opt := newFlagSet()
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := opt.retrievalStrategy()
			if tc.wantErr {
				if err == nil {
					t.Fatalf("retrievalStrategy() = %v, want an error", got)
				}
				for _, valid := range []string{"auto", "index", "pruned", "exact"} {
					if !strings.Contains(err.Error(), valid) {
						t.Errorf("error %q does not name %s", err, valid)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("retrievalStrategy() = %v, want %v", got, tc.want)
			}
		})
	}

	// A directly constructed zero options value means the flag default.
	if got, err := (&options{}).retrievalStrategy(); err != nil || got != cupid.RetrievalAuto {
		t.Errorf("zero options: strategy = %v, err %v; want auto", got, err)
	}
}

// TestExactBatchRanksOnlyWhatTheReplyNeeds: under -retrieval=exact a
// batch request asks the serving frontend for the caller's topK (plus the
// self-match slot) like every other strategy, instead of ranking — and
// mapping and caching — every repository entry. The reply is the head of
// the full exact ranking, and the frontend's cache holds exactly the
// top-4 ranking the topK=3 request needed.
func TestExactBatchRanksOnlyWhatTheReplyNeeds(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.retrieval = cupid.RetrievalExact
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	register(t, ts, "orders", "sql", ordersDDL)
	register(t, ts, "purchases", "sql", purchasesDDL)
	for i := 0; i < 30; i++ {
		register(t, ts, fmt.Sprintf("filler%d", i), "sql",
			fmt.Sprintf("CREATE TABLE Filler%d (Customer%d INT, Amount DECIMAL(10,2), Shelf%d INT);", i, i, i))
	}

	resp := batchOf(t, ts, map[string]any{"source": map[string]string{"name": "orders"}, "topK": 3})
	src, _ := s.reg.Get("orders")
	full, _, err := s.reg.Match(src.Prepared, 0, cupid.PlanOptions{Force: cupid.RetrievalExact})
	if err != nil {
		t.Fatal(err)
	}
	full = full[1:] // the source's own entry ranks first
	if full[0].Entry.Name == "orders" || len(resp.Results) != 3 {
		t.Fatalf("unexpected rankings: full head %q, %d results", full[0].Entry.Name, len(resp.Results))
	}
	for i, got := range resp.Results {
		if got.Name != full[i].Entry.Name || got.Score != full[i].Score {
			t.Errorf("rank %d: reply (%s %v) != full exact ranking (%s %v)",
				i, got.Name, got.Score, full[i].Entry.Name, full[i].Score)
		}
	}

	res, err := s.front.MatchBatch(context.Background(), serve.PreparedSource(src.Prepared),
		serve.MatchSpec{Retrieval: cupid.RetrievalExact, TopK: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cached || len(res.Results) != 4 {
		t.Errorf("exact topK=3 batch left cached=%t with %d entries for MatchSpec{exact, TopK: 4}; want a cache hit holding 4",
			res.Cached, len(res.Results))
	}
}
