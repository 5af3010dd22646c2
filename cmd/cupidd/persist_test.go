package main

// Integration coverage for the persistence layer as wired into the server:
// restart on a populated -data dir serves identical /match/batch rankings,
// and a torn snapshot falls back to the previous generation plus its
// journal tail.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	cupid "repro"
	"repro/internal/registry"
	"repro/internal/serve"
)

// newWALTestServer builds a server persisting under dir through the
// write-ahead journal with the default flags; the close function drains
// and closes the journal (call it before "restarting").
func newWALTestServer(t *testing.T, dir string) (*httptest.Server, func()) {
	t.Helper()
	return newOptionsTestServer(t, &options{dataDir: dir, minAccept: 0.5})
}

func newOptionsTestServer(t *testing.T, opt *options) (*httptest.Server, func()) {
	t.Helper()
	s, err := newServerFromOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.routes())
	var closed bool
	closeAll := func() {
		if closed {
			return
		}
		closed = true
		ts.Close()
		if err := s.close(); err != nil {
			t.Errorf("closing persistent server: %v", err)
		}
	}
	t.Cleanup(closeAll)
	return ts, closeAll
}

// batchResponse captures /match/batch for byte-level comparison.
type batchResponse struct {
	Source  string              `json:"source"`
	Results []serve.BatchResult `json:"results"`
}

func batchOf(t *testing.T, ts *httptest.Server, body any) batchResponse {
	t.Helper()
	var out batchResponse
	if code := call(t, ts, http.MethodPost, "/match/batch", body, &out); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	return out
}

func TestServerRestartServesIdenticalRankings(t *testing.T) {
	dir := t.TempDir()

	ts1, close1 := newWALTestServer(t, dir)
	register(t, ts1, "orders", "sql", ordersDDL)
	register(t, ts1, "purchases", "sql", purchasesDDL)
	register(t, ts1, "inventory", "json", inventoryJSON)
	req := map[string]any{"source": map[string]string{"name": "orders"}, "topK": 5}
	before := batchOf(t, ts1, req)
	if len(before.Results) == 0 {
		t.Fatal("no batch results before restart")
	}
	close1()

	// Restart on the same data dir: rankings — names, scores, fingerprints,
	// leaf mappings — must be identical.
	ts2, _ := newWALTestServer(t, dir)
	var list struct {
		Schemas []serve.SchemaInfo `json:"schemas"`
	}
	if code := call(t, ts2, http.MethodGet, "/schemas", nil, &list); code != http.StatusOK {
		t.Fatalf("list after restart: status %d", code)
	}
	if len(list.Schemas) != 3 {
		t.Fatalf("restart restored %d schemas, want 3", len(list.Schemas))
	}
	after := batchOf(t, ts2, req)
	if !reflect.DeepEqual(before, after) {
		b1, _ := json.MarshalIndent(before, "", " ")
		b2, _ := json.MarshalIndent(after, "", " ")
		t.Errorf("batch rankings differ across restart:\nbefore: %s\nafter:  %s", b1, b2)
	}
}

// TestServerRestartAfterTornSnapshot tears the newest snapshot generation:
// recovery falls back to the previous one and replays its journal tail, so
// the restarted server still serves every acknowledged schema.
func TestServerRestartAfterTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	probe := map[string]any{"source": map[string]string{"format": "sql", "content": purchasesDDL}}

	// A one-byte compaction threshold folds every mutation into a snapshot
	// generation; Close waits for the compaction, so two server lifetimes
	// leave exactly two generations.
	ts1, close1 := newOptionsTestServer(t, &options{dataDir: dir, compactThreshold: 1, minAccept: 0.5})
	register(t, ts1, "orders", "sql", ordersDDL)
	close1()
	ts2, close2 := newOptionsTestServer(t, &options{dataDir: dir, compactThreshold: 1, minAccept: 0.5})
	register(t, ts2, "inventory", "json", inventoryJSON)
	baseline := batchOf(t, ts2, probe)
	close2()

	snaps, err := filepath.Glob(filepath.Join(dir, "snapshot-*.jsonl"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >= 2 snapshot generations, got %v (err %v)", snaps, err)
	}
	newest := snaps[len(snaps)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	ts3, _ := newWALTestServer(t, dir)
	var list struct {
		Schemas []serve.SchemaInfo `json:"schemas"`
	}
	call(t, ts3, http.MethodGet, "/schemas", nil, &list)
	if len(list.Schemas) != 2 {
		t.Fatalf("torn-snapshot recovery restored %+v, want orders and inventory", list.Schemas)
	}
	if got := batchOf(t, ts3, probe); !reflect.DeepEqual(baseline, got) {
		t.Error("recovered repository serves different rankings than before the tear")
	}
}

// rawBatch captures the verbatim /match/batch response bytes for the
// byte-identical crash-recovery assertions.
func rawBatch(t *testing.T, ts *httptest.Server, body any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/match/batch", "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, b)
	}
	return b
}

func TestServerWALRestartServesIdenticalRankings(t *testing.T) {
	dir := t.TempDir()
	ts1, close1 := newWALTestServer(t, dir)
	register(t, ts1, "orders", "sql", ordersDDL)
	register(t, ts1, "purchases", "sql", purchasesDDL)
	register(t, ts1, "inventory", "json", inventoryJSON)
	req := map[string]any{"source": map[string]string{"name": "orders"}, "topK": 5}
	before := rawBatch(t, ts1, req)
	close1()

	// No compaction threshold was crossed: the journal alone must carry
	// the repository across the restart, byte-for-byte.
	if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.jsonl")); len(snaps) != 0 {
		t.Fatalf("unexpected snapshots before any compaction: %v", snaps)
	}
	ts2, _ := newWALTestServer(t, dir)
	after := rawBatch(t, ts2, req)
	if !bytes.Equal(before, after) {
		t.Errorf("batch rankings not byte-identical across WAL restart:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestServerWALCrashInjectionBitIdenticalBatch truncates the journal at
// every record boundary and asserts the recovered server's /match/batch
// response is byte-identical to a server that only ever saw that prefix
// of registrations — the server-level face of the registry crash suite.
func TestServerWALCrashInjectionBitIdenticalBatch(t *testing.T) {
	docs := []struct{ name, format, content string }{
		{"orders", "sql", ordersDDL},
		{"purchases", "sql", purchasesDDL},
		{"inventory", "json", inventoryJSON},
	}
	probe := map[string]any{
		"source": map[string]string{"format": "sql", "content": ordersDDL},
		"topK":   3,
	}

	// Expected responses per prefix, from servers that never crashed.
	expected := make([][]byte, len(docs)+1)
	for k := 0; k <= len(docs); k++ {
		dir := t.TempDir()
		ts, closeTS := newWALTestServer(t, dir)
		for _, d := range docs[:k] {
			register(t, ts, d.name, d.format, d.content)
		}
		expected[k] = rawBatch(t, ts, probe)
		closeTS()
	}

	// The crashed directory: all registrations journaled, then torn at
	// each boundary.
	master := t.TempDir()
	ts, closeTS := newWALTestServer(t, master)
	for _, d := range docs {
		register(t, ts, d.name, d.format, d.content)
	}
	closeTS()
	wals, err := filepath.Glob(filepath.Join(master, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("want one journal, got %v (err %v)", wals, err)
	}
	bounds, err := registry.WALRecordBoundaries(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != len(docs)+1 {
		t.Fatalf("%d boundaries for %d registrations", len(bounds), len(docs))
	}
	journal, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k <= len(docs); k++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(wals[0])), journal[:bounds[k]], 0o644); err != nil {
			t.Fatal(err)
		}
		tsK, closeK := newWALTestServer(t, dir)
		got := rawBatch(t, tsK, probe)
		if !bytes.Equal(got, expected[k]) {
			t.Errorf("prefix %d: recovered /match/batch differs from never-crashed server:\ngot:  %s\nwant: %s", k, got, expected[k])
		}
		closeK()
	}
}

// TestServerWALCompactionAcrossRestart forces compaction through the
// server options and checks a restart serves the folded state.
func TestServerWALCompactionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ts1, close1 := newOptionsTestServer(t, &options{dataDir: dir, compactThreshold: 1, minAccept: 0.5})
	register(t, ts1, "orders", "sql", ordersDDL)
	register(t, ts1, "purchases", "sql", purchasesDDL)
	register(t, ts1, "inventory", "json", inventoryJSON)
	req := map[string]any{"source": map[string]string{"name": "orders"}, "topK": 5}
	before := rawBatch(t, ts1, req)
	close1()

	if snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.jsonl")); len(snaps) == 0 {
		t.Fatal("compaction threshold 1 wrote no snapshot generation")
	}
	ts2, _ := newWALTestServer(t, dir)
	var list struct {
		Schemas []serve.SchemaInfo `json:"schemas"`
	}
	if code := call(t, ts2, http.MethodGet, "/schemas", nil, &list); code != http.StatusOK || len(list.Schemas) != 3 {
		t.Fatalf("restart after compaction: status %d, %d schemas", code, len(list.Schemas))
	}
	if after := rawBatch(t, ts2, req); !bytes.Equal(before, after) {
		t.Error("compacted restart serves different rankings")
	}
}

// TestPersistOptionsFlagSemantics pins how the journal flags map onto
// PersistOptions: the zero options value is the default configuration,
// set flags override it, and negative values are refused.
func TestPersistOptionsFlagSemantics(t *testing.T) {
	tuned := cupid.DefaultPersistOptions()
	tuned.CompactBytes = 4096
	cases := []struct {
		name    string
		opt     options
		want    cupid.PersistOptions
		wantErr bool
	}{
		{"default flags", options{}, cupid.DefaultPersistOptions(), false},
		{"tuned", options{compactThreshold: 4096}, tuned, false},
		{"negative threshold", options{compactThreshold: -1}, cupid.PersistOptions{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			popt, err := tc.opt.persistOptions()
			if tc.wantErr {
				if err == nil {
					t.Fatal("want an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if popt != tc.want {
				t.Errorf("persistOptions() = %+v, want %+v", popt, tc.want)
			}
		})
	}
	// The documented default flag set is the default configuration.
	fs, opt := newFlagSet()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	popt, err := opt.persistOptions()
	if err != nil || popt != cupid.DefaultPersistOptions() {
		t.Errorf("default flags: popt=%+v err=%v, want %+v", popt, err, cupid.DefaultPersistOptions())
	}
}

// TestServerExactFlagMatchesPrunedOnSmallRepo sanity-checks that
// -retrieval=exact and the pruned path agree on a small repository (pruning cannot
// engage below the candidate floor).
func TestServerExactFlagMatchesPrunedOnSmallRepo(t *testing.T) {
	build := func(strat cupid.RetrievalStrategy) batchResponse {
		s, err := newServer(cupid.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s.retrieval = strat
		ts := httptest.NewServer(s.routes())
		t.Cleanup(ts.Close)
		register(t, ts, "orders", "sql", ordersDDL)
		register(t, ts, "purchases", "sql", purchasesDDL)
		register(t, ts, "inventory", "json", inventoryJSON)
		return batchOf(t, ts, map[string]any{"source": map[string]string{"name": "orders"}, "topK": 2})
	}
	if exact, pruned := build(cupid.RetrievalExact), build(cupid.RetrievalPruned); !reflect.DeepEqual(exact, pruned) {
		t.Errorf("exact and pruned rankings differ on a small repository:\nexact:  %+v\npruned: %+v", exact, pruned)
	}
}
