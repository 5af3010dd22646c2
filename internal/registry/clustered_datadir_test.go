package registry

// Data written while the registry still persisted a corpus clustering:
// a ".corpus/families" record of format "corpus-families" in a snapshot,
// in a journal tail, or in a replication stream from an older primary.
// Recovery and replication skip it with a warning, never parse it as a
// schema, and the next compaction stops writing it.

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// clusteredFixtureDocs are the schema documents of
// testdata/clustered-datadir, written by the clustering registry:
// register orders0-2 and invoices0-2, store a clustering (snapshot-1 folds
// all seven records), then register orders3 and store a second clustering
// (the journal tail wal-1.log).
func clusteredFixtureDocs() []Doc {
	var docs []Doc
	for i, note := range []string{"AlphaNote", "BravoNote", "CharlieNote"} {
		docs = append(docs,
			sqlDoc(fmt.Sprintf("invoices%d", i), fmt.Sprintf("CREATE TABLE Invoices (InvoiceRef INT PRIMARY KEY, WarehouseCode VARCHAR(64), SkuQuantity DECIMAL(10,2), %s VARCHAR(32));", note)),
			sqlDoc(fmt.Sprintf("orders%d", i), fmt.Sprintf("CREATE TABLE Orders (OrderID INT PRIMARY KEY, CustomerName VARCHAR(64), TotalAmount DECIMAL(10,2), %s VARCHAR(32));", note)))
	}
	return append(docs, sqlDoc("orders3", "CREATE TABLE Orders (OrderID INT PRIMARY KEY, CustomerName VARCHAR(64), TotalAmount DECIMAL(10,2), DeltaNote VARCHAR(32));"))
}

// copyFixture copies a checked-in data directory into a fresh temp dir.
func copyFixture(t *testing.T, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	files, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(fixture, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestClusteredDataDirSkipsClustering: a data directory holding a
// clustering record in its snapshot and a second one in its journal tail
// opens with exactly one skip warning, restores the same entries,
// fingerprints and rankings as a fresh registration of its schema
// documents, and stops writing the record at the next compaction.
func TestClusteredDataDirSkipsClustering(t *testing.T) {
	dir := copyFixture(t, "testdata/clustered-datadir")
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, warns, err := OpenPersistentOptions(dir, m, PersistOptions{CompactRecords: 1}, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	want := []string{`skipping legacy corpus clustering record ".corpus/families"`}
	if strings.Join(warns, "\n") != strings.Join(want, "\n") {
		t.Errorf("recovery warnings %q, want %q", warns, want)
	}
	if _, ok := p.Doc(".corpus/families"); ok {
		t.Error("the clustering record is still in the live document set")
	}

	fresh := NewWithMatcher(m)
	for _, d := range clusteredFixtureDocs() {
		s, err := storeParse(d.Name, d.Format, []byte(d.Content))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fresh.Register(d.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	got, wantEntries := p.List(), fresh.List()
	if len(got) != len(wantEntries) {
		t.Fatalf("restored %d entries, want %d", len(got), len(wantEntries))
	}
	for i := range wantEntries {
		if got[i].Name != wantEntries[i].Name || got[i].Fingerprint != wantEntries[i].Fingerprint {
			t.Errorf("entry %d: restored (%s, %s), fresh (%s, %s)",
				i, got[i].Name, got[i].Fingerprint, wantEntries[i].Name, wantEntries[i].Fingerprint)
		}
	}
	probe, err := storeParse("probe", "sql", []byte(storeDDL))
	if err != nil {
		t.Fatal(err)
	}
	rank := func(r *Registry) []Ranked {
		src, err := m.Prepare(probe)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := r.MatchAll(src, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ranked
	}
	assertSameRanking(t, rank(fresh), rank(p.Registry))

	// One mutation passes the one-record threshold: the compaction folds
	// the live document set, which holds no clustering, into snapshot-2.
	if _, _, err := p.RegisterSource("billing", "sql", []byte(billingDDL)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(filepath.Join(dir, snapshotPrefix+"2"+snapshotSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snap, []byte("corpus-families")) {
		t.Errorf("compaction wrote the clustering record again:\n%s", snap)
	}
	p2, warns, err := OpenPersistentOptions(dir, m, PersistOptions{}, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for _, w := range warns {
		if strings.Contains(w, "clustering") {
			t.Errorf("reopening after compaction still skips a clustering record: %q", w)
		}
	}
	if p2.Len() != len(wantEntries)+1 {
		t.Errorf("reopened with %d entries, want %d", p2.Len(), len(wantEntries)+1)
	}
}

// TestReplicationSkipsLegacyClustering feeds a follower the stream an
// older primary sends: a resync snapshot carrying a clustering document,
// then a tail with a clustering put and del between schema puts. The
// follower skips each clustering record with one warning, still advances
// its position past it, and holds exactly the schema documents.
func TestReplicationSkipsLegacyClustering(t *testing.T) {
	m := replMatcher(t)
	follower := openRepl(t, m, t.TempDir(), PersistOptions{})
	docs := clusteredFixtureDocs()
	clustering := Doc{Name: ".corpus/families", Fingerprint: "corpus-5326e8d98f6d68c5", Format: "corpus-families",
		Content: `{"version":1,"corpus":2,"neighbors":8,"min_affinity":0.45,"families":[{"medoid":"invoices0","members":["invoices0","orders0"]}]}`}

	stream := appendReplHeader(nil)
	frame := func(f replFrame) {
		var err error
		if stream, err = encodeReplFrame(stream, f); err != nil {
			t.Fatal(err)
		}
	}
	horizon := ReplPos{Base: 3, Records: 4}
	frame(replFrame{Kind: replKindHello, Pos: ReplPos{Base: 3}, Horizon: &horizon, Resync: true, Docs: 3})
	for _, d := range []Doc{docs[0], clustering, docs[1]} {
		frame(replFrame{Kind: replKindDoc, Doc: &d})
	}
	for i, rec := range []walRecord{putRecord(docs[2]), putRecord(clustering), delRecord(clustering.Name), putRecord(docs[3])} {
		frame(replFrame{Kind: replKindRec, Pos: ReplPos{Base: 3, Records: i + 1}, Rec: &rec})
	}

	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	state := &ReplState{}
	var last ReplPos
	if err := follower.ApplyReplication(context.Background(), bytes.NewReader(stream), state, func(p ReplPos) { last = p }); err != nil {
		t.Fatal(err)
	}
	if st := state.Status(); st.Pos != horizon || !st.CaughtUp || last != horizon {
		t.Errorf("follower at %v (caught up %v, last checkpoint %v), want %v", st.Pos, st.CaughtUp, last, horizon)
	}
	if n := strings.Count(logged.String(), "skipping legacy corpus clustering record"); n != 2 {
		t.Errorf("logged %d skip warnings, want 2 (the snapshot document and the put):\n%s", n, logged.String())
	}
	var names []string
	for _, e := range follower.List() {
		names = append(names, e.Name)
	}
	if got, want := strings.Join(names, ","), "invoices0,invoices1,orders0,orders1"; got != want {
		t.Errorf("follower entries %s, want %s", got, want)
	}
	if _, ok := follower.Doc(clustering.Name); ok {
		t.Error("the follower kept the clustering document")
	}
}
