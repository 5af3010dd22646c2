package main

// Doc-conformance coverage: docs/API.md is the server's contract, and this
// file keeps it honest. The route set and flag set documented there must
// equal the ones the binary declares (both directions), every fenced JSON
// example must parse, and the documented quickstart flow must behave as
// the doc claims when driven against the real handler stack.

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	cupid "repro"
	"repro/internal/serve"
)

const apiDocPath = "../../docs/API.md"

func readAPIDoc(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("docs/API.md must exist (the cupidd API reference): %v", err)
	}
	// The document covers both binaries: cupidd's contract is everything
	// above the `## cupidrouter` heading; the router's own conformance
	// test (cmd/cupidrouter) holds the rest to the same standard.
	doc := string(b)
	if head, _, found := strings.Cut(doc, "\n## cupidrouter"); found {
		doc = head
	}
	return doc
}

func TestAPIDocRoutesMatchServer(t *testing.T) {
	doc := readAPIDoc(t)
	routeHeader := regexp.MustCompile("(?m)^### `(GET|POST|DELETE|PUT|PATCH) ([^`]+)`$")
	documented := map[string]bool{}
	for _, m := range routeHeader.FindAllStringSubmatch(doc, -1) {
		documented[m[1]+" "+m[2]] = true
	}
	if len(documented) == 0 {
		t.Fatal("docs/API.md documents no routes (### `METHOD /path` headers)")
	}

	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, rt := range s.routeTable() {
		declared[rt.Method+" "+rt.Pattern] = true
	}

	for r := range declared {
		if !documented[r] {
			t.Errorf("route %q is served but not documented in docs/API.md", r)
		}
	}
	for r := range documented {
		if !declared[r] {
			t.Errorf("route %q is documented in docs/API.md but not served", r)
		}
	}
}

func TestAPIDocFlagsMatchServer(t *testing.T) {
	doc := readAPIDoc(t)
	flagRow := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")
	documented := map[string]bool{}
	for _, m := range flagRow.FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("docs/API.md documents no flags (| `-flag` | table rows)")
	}

	fs, _ := newFlagSet()
	declared := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { declared[f.Name] = true })

	for f := range declared {
		if !documented[f] {
			t.Errorf("flag -%s is declared but not documented in docs/API.md", f)
		}
	}
	for f := range documented {
		if !declared[f] {
			t.Errorf("flag -%s is documented in docs/API.md but not declared", f)
		}
	}
}

func TestAPIDocJSONExamplesParse(t *testing.T) {
	doc := readAPIDoc(t)
	fence := regexp.MustCompile("(?s)```json\n(.*?)```")
	blocks := fence.FindAllStringSubmatch(doc, -1)
	if len(blocks) < 8 {
		t.Fatalf("docs/API.md has %d json examples, expected the full request/response tour (>= 8)", len(blocks))
	}
	for i, b := range blocks {
		var v any
		if err := json.Unmarshal([]byte(b[1]), &v); err != nil {
			snippet := b[1]
			if len(snippet) > 120 {
				snippet = snippet[:120] + "…"
			}
			t.Errorf("json example %d does not parse: %v\n%s", i, err, snippet)
		}
	}
}

// TestAPIDocQuickstartFlow drives the documented example sequence —
// register both example schemas, list, pair match, batch with topK,
// delete, healthz — against the real handler stack, asserting the status
// codes and response shapes the doc promises.
func TestAPIDocQuickstartFlow(t *testing.T) {
	ordersSQL, err := os.ReadFile("../../examples/schemas/orders.sql")
	if err != nil {
		t.Fatalf("examples/schemas/orders.sql (referenced by README and docs/API.md): %v", err)
	}
	purchasesSQL, err := os.ReadFile("../../examples/schemas/purchases.sql")
	if err != nil {
		t.Fatalf("examples/schemas/purchases.sql (referenced by README and docs/API.md): %v", err)
	}

	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// POST /schemas: 201 with name/fingerprint/elements/leaves.
	var info serve.SchemaInfo
	code := call(t, ts, http.MethodPost, "/schemas",
		map[string]string{"name": "orders", "format": "sql", "content": string(ordersSQL)}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register: status %d, want 201", code)
	}
	if info.Name != "orders" || len(info.Fingerprint) != 32 || info.Elements == 0 || info.Leaves == 0 {
		t.Fatalf("register response missing documented fields: %+v", info)
	}
	// Idempotent re-registration: 200, as documented.
	if code := call(t, ts, http.MethodPost, "/schemas",
		map[string]string{"name": "orders", "format": "sql", "content": string(ordersSQL)}, &info); code != http.StatusOK {
		t.Errorf("idempotent re-register: status %d, want 200", code)
	}
	register(t, ts, "purchases", "sql", string(purchasesSQL))

	// POST /match with documented body shape.
	var pair struct {
		SourceSchema string       `json:"sourceSchema"`
		TargetSchema string       `json:"targetSchema"`
		Leaves       []serve.Pair `json:"leaves"`
		NonLeaves    []serve.Pair `json:"nonLeaves"`
	}
	if code := call(t, ts, http.MethodPost, "/match", map[string]any{
		"source": map[string]string{"name": "orders"},
		"target": map[string]string{"name": "purchases"},
	}, &pair); code != http.StatusOK {
		t.Fatalf("match: status %d", code)
	}
	if pair.SourceSchema != "orders" || pair.TargetSchema != "purchases" || len(pair.Leaves) == 0 {
		t.Fatalf("match response missing documented fields: %+v", pair)
	}

	// POST /match/batch with the documented inline-source example.
	var batch struct {
		Source  string              `json:"source"`
		Results []serve.BatchResult `json:"results"`
	}
	if code := call(t, ts, http.MethodPost, "/match/batch", map[string]any{
		"source": map[string]any{"format": "sql",
			"content": "CREATE TABLE Sales (SaleID INT PRIMARY KEY, Customer VARCHAR(64), SaleDate DATE);"},
		"topK": 2,
	}, &batch); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if len(batch.Results) != 2 {
		t.Fatalf("batch topK=2 returned %d results", len(batch.Results))
	}

	// Error shape: one {"error": ...} object, 404 for unknown names.
	var errResp struct {
		Error string `json:"error"`
	}
	if code := call(t, ts, http.MethodPost, "/match", map[string]any{
		"source": map[string]string{"name": "ghost"},
		"target": map[string]string{"name": "orders"},
	}, &errResp); code != http.StatusNotFound || errResp.Error == "" {
		t.Errorf("error contract: status %d, error %q", code, errResp.Error)
	}

	// DELETE /schemas/{name} and GET /healthz round out the tour.
	var removed map[string]string
	if code := call(t, ts, http.MethodDelete, "/schemas/purchases", nil, &removed); code != http.StatusOK || removed["removed"] != "purchases" {
		t.Errorf("delete: status %d, body %v", code, removed)
	}
	var health map[string]string
	if code := call(t, ts, http.MethodGet, "/healthz", nil, &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: status %d, body %v", code, health)
	}
}

// TestDocsFormatListMatchesSchemaFormats holds the schema-format lists in
// docs/API.md and the command doc comment to cupid.SchemaFormats(), both
// directions: every supported format must be documented (backticked in
// the API doc's "Formats:" sentence and named in the godoc header), and
// every format the docs name must actually be supported.
func TestDocsFormatListMatchesSchemaFormats(t *testing.T) {
	supported := map[string]bool{}
	for _, f := range cupid.SchemaFormats() {
		supported[f] = true
	}

	doc := readAPIDoc(t)
	i := strings.Index(doc, "Formats:")
	if i < 0 {
		t.Fatal("docs/API.md has no \"Formats:\" sentence")
	}
	sentence, _, _ := strings.Cut(doc[i:], ".\n")
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`([a-z]+)`").FindAllStringSubmatch(sentence, -1) {
		documented[m[1]] = true
	}
	for f := range supported {
		if !documented[f] {
			t.Errorf("format %q is supported but missing from docs/API.md's Formats list", f)
		}
	}
	for f := range documented {
		if !supported[f] {
			t.Errorf("format %q is documented in docs/API.md but not supported by cupid.ParseSchema", f)
		}
	}

	head, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	src := string(head)
	if i := strings.Index(src, "package main"); i > 0 {
		src = src[:i]
	}
	for f := range supported {
		if !strings.Contains(src, f) {
			t.Errorf("command doc comment does not mention format %q", f)
		}
	}
}

// TestRegisterWithInstancesFlow drives the documented instances payload
// against the real handler stack: a registration carrying samples must
// succeed with a profile-suffixed fingerprint, and a malformed payload
// must be rejected with 400.
func TestRegisterWithInstancesFlow(t *testing.T) {
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	var info serve.SchemaInfo
	code := call(t, ts, http.MethodPost, "/schemas", map[string]any{
		"name": "orders", "format": "sql",
		"content":   "CREATE TABLE Orders (OrderID INT, Customer VARCHAR(64));",
		"instances": map[string]any{"Orders.OrderID": []any{1001, 1002, 1003}, "Orders.Customer": []any{"Ada", "Grace", nil}},
	}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register with instances: status %d, want 201", code)
	}
	if !strings.Contains(info.Fingerprint, "+") {
		t.Errorf("fingerprint %q has no profile suffix; instances dropped?", info.Fingerprint)
	}

	var errResp struct {
		Error string `json:"error"`
	}
	if code := call(t, ts, http.MethodPost, "/schemas", map[string]any{
		"name": "bad", "format": "sql",
		"content":   "CREATE TABLE T (X INT);",
		"instances": map[string]any{"T.X": []any{map[string]any{"nested": true}}},
	}, &errResp); code != http.StatusBadRequest || errResp.Error == "" {
		t.Errorf("malformed instances: status %d, error %q (want 400)", code, errResp.Error)
	}
}

// TestCommandDocMentionsEveryFlagAndRoute keeps the package comment at the
// top of main.go (the godoc face of the command) in sync with reality.
func TestCommandDocMentionsEveryFlagAndRoute(t *testing.T) {
	b, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	src := string(b)
	head := src
	if i := strings.Index(src, "package main"); i > 0 {
		head = src[:i]
	}
	fs, _ := newFlagSet()
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(head, "-"+f.Name) {
			t.Errorf("command doc comment does not mention flag -%s", f.Name)
		}
	})
	s, err := newServer(cupid.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range s.routeTable() {
		if !strings.Contains(head, rt.Pattern) {
			t.Errorf("command doc comment does not mention route %s", rt.Pattern)
		}
	}
}
