package main

// Doc-conformance coverage for the router: the `## cupidrouter` section
// of docs/API.md is this binary's contract. Its route headers and flag
// table must equal what the binary declares (both directions), mirroring
// the cupidd half of the same document (cmd/cupidd/docs_test.go reads
// everything above the marker; this test reads everything below it).

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
)

func readRouterDoc(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist: %v", err)
	}
	_, tail, found := strings.Cut(string(b), "\n## cupidrouter")
	if !found {
		t.Fatal("docs/API.md has no `## cupidrouter` section (the router's API contract)")
	}
	return tail
}

func testRouter(t *testing.T) *cluster.Router {
	t.Helper()
	rt, err := routerFromOptions(&options{shards: "http://127.0.0.1:1, http://127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestRouterDocRoutesMatchBinary(t *testing.T) {
	doc := readRouterDoc(t)
	routeHeader := regexp.MustCompile("(?m)^### `(GET|POST|DELETE|PUT|PATCH) ([^`]+)`$")
	documented := map[string]bool{}
	for _, m := range routeHeader.FindAllStringSubmatch(doc, -1) {
		documented[m[1]+" "+m[2]] = true
	}
	if len(documented) == 0 {
		t.Fatal("the cupidrouter section documents no routes (### `METHOD /path` headers)")
	}
	declared := map[string]bool{}
	for _, r := range testRouter(t).RouteTable() {
		declared[r.Method+" "+r.Pattern] = true
	}
	for r := range declared {
		if !documented[r] {
			t.Errorf("route %q is served but not documented in the cupidrouter section", r)
		}
	}
	for r := range documented {
		if !declared[r] {
			t.Errorf("route %q is documented in the cupidrouter section but not served", r)
		}
	}
}

func TestRouterDocFlagsMatchBinary(t *testing.T) {
	doc := readRouterDoc(t)
	flagRow := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|")
	documented := map[string]bool{}
	for _, m := range flagRow.FindAllStringSubmatch(doc, -1) {
		documented[m[1]] = true
	}
	if len(documented) == 0 {
		t.Fatal("the cupidrouter section documents no flags (| `-flag` | table rows)")
	}
	fs, _ := newFlagSet()
	declared := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) { declared[f.Name] = true })
	for f := range declared {
		if !documented[f] {
			t.Errorf("flag -%s is declared but not documented in the cupidrouter section", f)
		}
	}
	for f := range documented {
		if !declared[f] {
			t.Errorf("flag -%s is documented in the cupidrouter section but not declared", f)
		}
	}
}

// TestCommandDocMentionsEveryFlagAndRoute keeps the package comment at
// the top of main.go in sync with what the binary declares.
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
	for _, r := range testRouter(t).RouteTable() {
		if !strings.Contains(head, r.Pattern) {
			t.Errorf("command doc comment does not mention route %s", r.Pattern)
		}
	}
}

func TestShardsFlagValidation(t *testing.T) {
	if _, err := routerFromOptions(&options{}); err == nil {
		t.Error("empty -shards accepted")
	}
	if _, err := routerFromOptions(&options{shards: "not-a-url"}); err == nil {
		t.Error("relative shard URL accepted")
	}
	rt, err := routerFromOptions(&options{shards: "http://a:1,,http://b:2,"})
	if err != nil {
		t.Fatalf("trailing/empty list entries should be tolerated: %v", err)
	}
	if got := len(rt.Shards()); got != 2 {
		t.Errorf("parsed %d shards, want 2", got)
	}
}

// TestServingFlagValidation: negative serving flags are rejected, as
// cupidd rejects them, instead of silently mapping to defaults.
func TestServingFlagValidation(t *testing.T) {
	for _, arg := range []string{"-concurrency=-1", "-queue-depth=-1", "-queue-wait=-1s", "-match-deadline=-1s", "-max-body=-1"} {
		fs, opt := newFlagSet()
		if err := fs.Parse([]string{"-shards=http://a:1", arg}); err != nil {
			t.Fatalf("%s: %v", arg, err)
		}
		if _, err := routerFromOptions(opt); err == nil {
			t.Errorf("%s accepted", arg)
		}
	}
}
