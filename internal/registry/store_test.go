package registry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sqlddl"
	"repro/internal/workloads"
)

// storeParse is the multi-format ParseFunc the cupidd server would supply,
// reduced to the two formats these tests use.
func storeParse(name, format string, data []byte) (*model.Schema, error) {
	if format == "sql" {
		return sqlddl.Parse(name, string(data))
	}
	return model.ReadJSON(strings.NewReader(string(data)))
}

const storeDDL = `CREATE TABLE Orders (
  OrderID INT PRIMARY KEY,
  Customer VARCHAR(64),
  Amount DECIMAL(10,2),
  Ref INT,
  FOREIGN KEY (Ref) REFERENCES Billing(BillID)
);
CREATE TABLE Billing (BillID INT PRIMARY KEY, Total DECIMAL(10,2));`

// writeGenerations writes each doc set as the next snapshot generation
// (1, 2, ...) straight through the Store, leaving the on-disk shape of a
// snapshot-only data directory.
func writeGenerations(t *testing.T, dir string, gens ...[]Doc) {
	t.Helper()
	st, err := OpenStore(dir, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, docs := range gens {
		if err := st.SaveAt(uint64(i+1), docs); err != nil {
			t.Fatal(err)
		}
	}
}

func sqlDoc(name, ddl string) Doc { return Doc{Name: name, Format: "sql", Content: ddl} }

const billingDDL = "CREATE TABLE Billing (BillID INT PRIMARY KEY, Total DECIMAL(10,2));"

func snapshotFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, snapshotPrefix+"*"+snapshotSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func TestPersistentRoundTripPreservesFingerprintAndRanking(t *testing.T) {
	dir := t.TempDir()

	p1 := newWAL(t, dir, PersistOptions{})
	e1, created, err := p1.RegisterSource("orders", "sql", []byte(storeDDL))
	if err != nil || !created {
		t.Fatalf("register: created=%v err=%v", created, err)
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: 3, PerFamily: 3, Seed: 5})
	for _, s := range corpus {
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p1.RegisterSource(s.Name, "json", b); err != nil {
			t.Fatal(err)
		}
	}
	probe, err := p1.Matcher().Prepare(workloads.FamilyProbe(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	before, err := p1.MatchAll(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same dir: same entries, same fingerprints, identical
	// ranking for the same probe.
	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if p2.Len() != p1.Len() {
		t.Fatalf("restart lost entries: %d vs %d", p2.Len(), p1.Len())
	}
	e2, ok := p2.Get("orders")
	if !ok {
		t.Fatal("orders not restored")
	}
	if e2.Fingerprint != e1.Fingerprint {
		t.Errorf("fingerprint drifted across restart: %s vs %s", e2.Fingerprint, e1.Fingerprint)
	}
	probe2, err := p2.Matcher().Prepare(workloads.FamilyProbe(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	after, err := p2.MatchAll(probe2, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, before, after)
	for i := range before {
		if before[i].Entry.Fingerprint != after[i].Entry.Fingerprint {
			t.Errorf("rank %d fingerprint drifted", i)
		}
	}
}

func TestPersistentRemoveSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	p1 := newWAL(t, dir, PersistOptions{})
	if _, _, err := p1.RegisterSource("orders", "sql", []byte(storeDDL)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p1.RegisterSource("billing", "sql", []byte(billingDDL)); err != nil {
		t.Fatal(err)
	}
	ok, err := p1.Remove("orders")
	if err != nil || !ok {
		t.Fatalf("remove: ok=%v err=%v", ok, err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if _, ok := p2.Get("orders"); ok {
		t.Error("removed entry came back after restart")
	}
	if _, ok := p2.Get("billing"); !ok {
		t.Error("surviving entry lost after restart")
	}
}

// TestCrashRecoveryTornSnapshot simulates a crash that tears the newest
// snapshot mid-write (truncated file): restart must fall back to the last
// consistent snapshot and serve its exact state.
func TestCrashRecoveryTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	orders := sqlDoc("orders", storeDDL)
	writeGenerations(t, dir, []Doc{orders}, []Doc{orders, sqlDoc("billing", billingDDL)})

	files := snapshotFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("expected 2 retained snapshot generations, got %v", files)
	}
	// Tear the newest snapshot: keep the header and half a record.
	newest := files[len(files)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, warns, err := OpenPersistentOptions(dir, m, PersistOptions{}, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if len(warns) == 0 {
		t.Error("recovery from a torn snapshot produced no warning")
	}
	// The last consistent snapshot held only "orders".
	if _, ok := p2.Get("orders"); !ok {
		t.Error("last consistent snapshot's entry missing")
	}
	if _, ok := p2.Get("billing"); ok {
		t.Error("torn snapshot's entry leaked into the restored state")
	}
}

// TestCrashRecoveryGarbageSnapshot: a snapshot overwritten with garbage is
// skipped the same way.
func TestCrashRecoveryGarbageSnapshot(t *testing.T) {
	dir := t.TempDir()
	orders := sqlDoc("orders", storeDDL)
	writeGenerations(t, dir, []Doc{orders}, []Doc{orders, sqlDoc("extra", "CREATE TABLE Extra (ID INT PRIMARY KEY);")})
	files := snapshotFiles(t, dir)
	if err := os.WriteFile(files[len(files)-1], []byte("{\"magic\":\"not-a-registry\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if p2.Len() != 1 {
		t.Fatalf("restored %d entries from fallback snapshot, want 1", p2.Len())
	}
}

func TestPersistentEmptyDirStartsEmpty(t *testing.T) {
	p := newWAL(t, t.TempDir(), PersistOptions{})
	defer p.Close()
	if p.Len() != 0 {
		t.Fatalf("fresh store restored %d entries", p.Len())
	}
}

func TestPersistentNativeJSONFallbackRegister(t *testing.T) {
	dir := t.TempDir()
	p1 := newWAL(t, dir, PersistOptions{})
	w := workloads.Figure2()
	if _, _, err := p1.Register("po", w.Source); err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	e, ok := p2.Get("po")
	if !ok {
		t.Fatal("library-registered schema not restored")
	}
	// The restored schema must match like the original: same leaf count,
	// and a self-match against the original scores 1-ish per leaf.
	if got, want := e.Prepared.Tree().NumLeaves(), 8; got != want {
		t.Errorf("restored schema has %d leaves, want %d", got, want)
	}
	// Fingerprint may have normalized once; a second restart is stable.
	fp := e.Fingerprint
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3 := newWAL(t, dir, PersistOptions{})
	defer p3.Close()
	e3, _ := p3.Get("po")
	if e3.Fingerprint != fp {
		t.Errorf("native-JSON fallback fingerprint unstable across restarts: %s vs %s", e3.Fingerprint, fp)
	}
}

// TestRecoverRefusesNewerSnapshotVersion: a snapshot written by a newer
// format version hard-fails the open (mirroring the journal policy) —
// deleting it or silently serving an older generation would destroy or
// hide committed data after a binary downgrade.
func TestRecoverRefusesNewerSnapshotVersion(t *testing.T) {
	dir := t.TempDir()
	future := "{\"magic\":\"cupid-registry\",\"version\":2,\"seq\":5,\"count\":0}\n{\"eof\":true,\"count\":0}\n"
	path := filepath.Join(dir, snapshotPrefix+"5"+snapshotSuffix)
	if err := os.WriteFile(path, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(); err == nil {
		t.Fatal("recovery over a newer snapshot version did not refuse")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("refused snapshot was deleted: %v", err)
	}
}

// TestRecoverKeepsSnapshotItCannotParse: a snapshot whose documents this
// store's parse function cannot handle is skipped with a warning but
// never deleted — a correctly configured reopen must still be able to
// read it.
func TestRecoverKeepsSnapshotItCannotParse(t *testing.T) {
	dir := t.TempDir()
	writeGenerations(t, dir, []Doc{sqlDoc("orders", storeDDL)})

	// nil parse restricts the store to native JSON: the sql document is
	// unreadable here, but its snapshot must survive untouched.
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Docs) != 0 {
		t.Fatalf("json-only store parsed %d docs from a sql snapshot", len(rec.Docs))
	}
	if len(rec.Warnings) == 0 {
		t.Error("skipping an unparseable snapshot produced no warning")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if _, ok := p2.Get("orders"); !ok {
		t.Error("snapshot was damaged by the json-only open; reopen with the right parser lost the entry")
	}
}

func TestStoreSnapshotRetention(t *testing.T) {
	dir := t.TempDir()
	var gens [][]Doc
	var docs []Doc
	for i := 0; i < 5; i++ {
		ddl := "CREATE TABLE T" + string(rune('A'+i)) + " (ID INT PRIMARY KEY);"
		docs = append(docs, sqlDoc("t"+string(rune('a'+i)), ddl))
		gens = append(gens, append([]Doc(nil), docs...))
	}
	writeGenerations(t, dir, gens...)
	if got := len(snapshotFiles(t, dir)); got != snapshotsKept {
		t.Errorf("%d snapshot generations retained, want %d", got, snapshotsKept)
	}
}

// viewDDL has every link the native JSON format carries outside its
// refints section: primary-key aggregates and a view's member columns.
const viewDDL = `CREATE TABLE Orders (ID INT PRIMARY KEY, Total DECIMAL);
CREATE TABLE Lines (OrderID INT REFERENCES Orders(ID), Qty INT);
CREATE VIEW Big AS SELECT Orders.ID, Orders.Total FROM Orders;`

// TestPersistentRegisterKeepsViewLinks: an in-memory schema with a view
// and keys, registered without a source document, is persisted in the
// native JSON format and reopens as the same expanded tree — the view's
// join-view node included — and the same mapping against a probe.
func TestPersistentRegisterKeepsViewLinks(t *testing.T) {
	s, err := sqlddl.Parse("shop", viewDDL)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := sqlddl.Parse("probe", strings.ReplaceAll(viewDDL, "Total", "Amount"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	p1 := newWAL(t, dir, PersistOptions{})
	e1, _, err := p1.Register("shop", s)
	if err != nil {
		t.Fatal(err)
	}
	if got := e1.Prepared.Tree().Len(); got != 15 {
		t.Fatalf("registered tree has %d nodes, want 15", got)
	}
	want := e1.Prepared.Tree().Dump()
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := m.Match(probe, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	e2, ok := p2.Get("shop")
	if !ok {
		t.Fatal("registered schema not restored")
	}
	if got := e2.Prepared.Tree().Dump(); got != want {
		t.Errorf("reopened tree differs:\n%s\nwant:\n%s", got, want)
	}
	gotRes, err := m.Match(probe, e2.Prepared.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := gotRes.Mapping.String(), wantRes.Mapping.String(); got != want {
		t.Errorf("reopened schema maps differently:\n%s\nwant:\n%s", got, want)
	}
}
