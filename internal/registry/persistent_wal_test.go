package registry

// Persistent coverage: durability round trips, replace/remove replay,
// group commit batching concurrent writers into shared fsyncs, background
// compaction folding the journal into snapshot generations, opening a
// snapshot-only data directory, torn-tail recovery, and the Close
// drain/idempotency contract.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// newWAL opens a Persistent over dir with the given options (zero-valued
// fields take the defaults).
func newWAL(t *testing.T, dir string, opts PersistOptions) *Persistent {
	t.Helper()
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, warns, err := OpenPersistentOptions(dir, m, opts, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range warns {
		t.Logf("open warning: %s", w)
	}
	return p
}

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, walPrefix+"*"+walSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

func TestWALRoundTripPreservesFingerprintAndRanking(t *testing.T) {
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
	// WAL mode never snapshotted (threshold untouched): the journal alone
	// must carry the repository.
	if snaps := snapshotFiles(t, dir); len(snaps) != 0 {
		t.Fatalf("unexpected snapshots before any compaction: %v", snaps)
	}
	if len(walFiles(t, dir)) != 1 {
		t.Fatalf("want exactly one journal, got %v", walFiles(t, dir))
	}

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
}

func TestWALReplaceAndRemoveReplayInOrder(t *testing.T) {
	dir := t.TempDir()
	p1 := newWAL(t, dir, PersistOptions{})
	if _, _, err := p1.RegisterSource("orders", "sql", []byte(storeDDL)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p1.RegisterSource("billing", "sql",
		[]byte("CREATE TABLE Billing (BillID INT PRIMARY KEY, Total DECIMAL(10,2));")); err != nil {
		t.Fatal(err)
	}
	// Replace orders with different content (new fingerprint), then remove
	// billing: replay must land on exactly this final state.
	replaced := "CREATE TABLE Orders (OrderID INT PRIMARY KEY, Shipped DATE);"
	e, created, err := p1.RegisterSource("orders", "sql", []byte(replaced))
	if err != nil || !created {
		t.Fatalf("replace: created=%v err=%v", created, err)
	}
	if ok, err := p1.Remove("billing"); err != nil || !ok {
		t.Fatalf("remove: ok=%v err=%v", ok, err)
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if p2.Len() != 1 {
		t.Fatalf("restored %d entries, want 1", p2.Len())
	}
	got, ok := p2.Get("orders")
	if !ok {
		t.Fatal("orders missing after replay")
	}
	if got.Fingerprint != e.Fingerprint {
		t.Errorf("replay restored pre-replacement content: fingerprint %s, want %s", got.Fingerprint, e.Fingerprint)
	}
	if _, ok := p2.Get("billing"); ok {
		t.Error("removed entry resurrected by replay")
	}
}

// TestWALGroupCommitSharesFsyncs proves the group-commit loop batches
// concurrent writers: with a linger window, 8 writers registering
// concurrently must complete in far fewer fsyncs than mutations.
func TestWALGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{GroupCommitWindow: 40 * time.Millisecond})
	defer p.Close()

	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ddl := fmt.Sprintf("CREATE TABLE W%d (ID INT PRIMARY KEY, Val%d VARCHAR(8));", i, i)
			_, _, errs[i] = p.RegisterSource(fmt.Sprintf("w%d", i), "sql", []byte(ddl))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	if p.wal.records != writers {
		t.Fatalf("journal holds %d records, want %d", p.wal.records, writers)
	}
	if p.wal.syncs >= writers {
		t.Errorf("group commit degenerated: %d fsyncs for %d concurrent writers", p.wal.syncs, writers)
	}
	t.Logf("group commit: %d writers, %d fsyncs", writers, p.wal.syncs)
}

// TestWALCompactionFoldsTailIntoSnapshot drives the background compactor
// with a tiny byte threshold and checks the steady-state invariants: at
// most two snapshot generations, at most two journals, and a restart that
// restores the full repository.
func TestWALCompactionFoldsTailIntoSnapshot(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{CompactBytes: 1})
	const n = 6
	for i := 0; i < n; i++ {
		ddl := fmt.Sprintf("CREATE TABLE C%d (ID INT PRIMARY KEY, F%d VARCHAR(16));", i, i)
		if _, _, err := p.RegisterSource(fmt.Sprintf("c%d", i), "sql", []byte(ddl)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	snaps := snapshotFiles(t, dir)
	if len(snaps) == 0 || len(snaps) > snapshotsKept {
		t.Fatalf("compaction left %v, want 1..%d snapshot generations", snaps, snapshotsKept)
	}
	if wals := walFiles(t, dir); len(wals) == 0 || len(wals) > snapshotsKept {
		t.Fatalf("compaction left %v, want 1..%d journals", wals, snapshotsKept)
	}
	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if p2.Len() != n {
		t.Fatalf("restart after compaction restored %d entries, want %d", p2.Len(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := p2.Get(fmt.Sprintf("c%d", i)); !ok {
			t.Errorf("entry c%d lost across compaction", i)
		}
	}
}

// legacyFixtureDocs is the final document set of testdata/legacy-datadir,
// a snapshot-only data directory written by the retired
// snapshot-per-mutation mode: register orders, billing, shipping and
// customers, replace orders, remove shipping. Each mutation wrote one
// generation; the last two (snapshot-5, snapshot-6) were retained.
var legacyFixtureDocs = []Doc{
	sqlDoc("billing", "CREATE TABLE Billing (BillID INT PRIMARY KEY, Total DECIMAL(10,2), Customer VARCHAR(64));"),
	sqlDoc("customers", "CREATE TABLE Customers (CustomerID INT PRIMARY KEY, Name VARCHAR(64), Phone VARCHAR(32));"),
	sqlDoc("orders", "CREATE TABLE Orders (OrderID INT PRIMARY KEY, Customer VARCHAR(64), Qty INT, Shipped DATE);"),
}

// TestLegacyDataDirOpensAsBaseGeneration: a snapshot-only data directory
// opens as the journal's base generation. It restores the same entries,
// fingerprints and rankings as a fresh registration of its documents, and
// the first mutation lands in wal-<seq>.log beside the newest snapshot.
func TestLegacyDataDirOpensAsBaseGeneration(t *testing.T) {
	const fixture = "testdata/legacy-datadir"
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
	p := newWAL(t, dir, PersistOptions{})
	defer p.Close()

	fresh, err := New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range legacyFixtureDocs {
		s, err := storeParse(d.Name, d.Format, []byte(d.Content))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := fresh.Register(d.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	got, want := p.List(), fresh.List()
	if len(got) != len(want) {
		t.Fatalf("restored %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Fingerprint != want[i].Fingerprint {
			t.Errorf("entry %d: restored (%s, %s), fresh (%s, %s)",
				i, got[i].Name, got[i].Fingerprint, want[i].Name, want[i].Fingerprint)
		}
	}
	probe, err := storeParse("probe", "sql", []byte(storeDDL))
	if err != nil {
		t.Fatal(err)
	}
	rank := func(r *Registry) []Ranked {
		src, err := r.Matcher().Prepare(probe)
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

	if _, _, err := p.RegisterSource("shipping", "sql",
		[]byte("CREATE TABLE Shipping (ShipID INT PRIMARY KEY);")); err != nil {
		t.Fatal(err)
	}
	if wals := walFiles(t, dir); len(wals) != 1 || filepath.Base(wals[0]) != walPrefix+"6"+walSuffix {
		t.Fatalf("first mutation journaled into %v, want %s6%s beside snapshot-6", wals, walPrefix, walSuffix)
	}
	if p.wal.records != 1 {
		t.Errorf("journal holds %d records after the first mutation, want 1", p.wal.records)
	}
}

func TestWALTornTailTruncatedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	p1 := newWAL(t, dir, PersistOptions{})
	for i := 0; i < 3; i++ {
		ddl := fmt.Sprintf("CREATE TABLE T%d (ID INT PRIMARY KEY);", i)
		if _, _, err := p1.RegisterSource(fmt.Sprintf("t%d", i), "sql", []byte(ddl)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.Close(); err != nil {
		t.Fatal(err)
	}
	wal := walFiles(t, dir)[0]
	fi, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	goodSize := fi.Size()
	f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("\x00\x00\x01torn"))
	f.Close()

	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p2, warns, err := OpenPersistentOptions(dir, m, PersistOptions{}, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Len() != 3 {
		t.Fatalf("recovery restored %d entries, want 3", p2.Len())
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "torn tail") {
			found = true
		}
	}
	if !found {
		t.Errorf("no torn-tail warning in %v", warns)
	}
	if fi, err := os.Stat(wal); err != nil || fi.Size() != goodSize {
		t.Errorf("journal not truncated back to %d bytes (got %v, err %v)", goodSize, fi, err)
	}
	// The truncated journal keeps accepting appends.
	if _, _, err := p2.RegisterSource("t3", "sql", []byte("CREATE TABLE T3 (ID INT PRIMARY KEY);")); err != nil {
		t.Fatal(err)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3 := newWAL(t, dir, PersistOptions{})
	defer p3.Close()
	if p3.Len() != 4 {
		t.Fatalf("post-truncation append lost: %d entries, want 4", p3.Len())
	}
}

// TestWALIdempotentReRegisterSemantics: re-registering content whose put
// is confirmed durable is a free no-op (no record, no fsync), but while
// the put is unconfirmed — its commit failed or is still in flight — the
// re-registration re-journals before acknowledging (closing the hole
// where a retry after a failed commit was acknowledged without anything
// ever reaching the journal).
func TestWALIdempotentReRegisterSemantics(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{})
	_, created, err := p.RegisterSource("orders", "sql", []byte(storeDDL))
	if err != nil || !created {
		t.Fatalf("register: created=%v err=%v", created, err)
	}
	// Confirmed content: the re-registration must not touch the journal.
	if _, created, err := p.RegisterSource("orders", "sql", []byte(storeDDL)); err != nil || created {
		t.Fatalf("re-register: created=%v err=%v, want idempotent success", created, err)
	}
	if p.wal.records != 1 {
		t.Fatalf("re-registering confirmed content journaled %d records, want 1 (free no-op)", p.wal.records)
	}
	// Synthesize an unconfirmed put (the state after "registered but
	// journaling failed"): the retry must append a fresh record and clear
	// the marker.
	p.mu.Lock()
	p.markLocked("orders", walOpPut)
	p.mu.Unlock()
	if _, created, err := p.RegisterSource("orders", "sql", []byte(storeDDL)); err != nil || created {
		t.Fatalf("retry re-register: created=%v err=%v", created, err)
	}
	if p.wal.records != 2 {
		t.Fatalf("retrying an unconfirmed put journaled %d records, want 2", p.wal.records)
	}
	p.mu.Lock()
	_, pending := p.unjournaled["orders"]
	p.mu.Unlock()
	if pending {
		t.Error("confirmed retry left its unjournaled marker set")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if p2.Len() != 1 {
		t.Fatalf("replay of duplicate puts restored %d entries, want 1", p2.Len())
	}
}

// TestWALOversizedRecordFailsOnlyItsWriter: a record beyond the size
// limit is refused at encode time and fails only its own writer — the
// rest of the batch still commits and stays durable.
func TestWALOversizedRecordFailsOnlyItsWriter(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{})
	defer p.Close()
	p.mu.Lock()
	dBig := p.enqueueLocked(walRecord{Op: walOpPut, Name: "big", Format: "json",
		Content: strings.Repeat("a", walMaxPayload)})
	dOK := p.enqueueLocked(delRecord("ghost"))
	p.mu.Unlock()
	if err := <-dBig; err == nil {
		t.Error("oversized record committed")
	}
	if err := <-dOK; err != nil {
		t.Errorf("valid record in the same window failed: %v", err)
	}
	if p.wal.records != 1 {
		t.Errorf("journal holds %d records, want 1 (the valid one)", p.wal.records)
	}
}

// TestDataDirLockedAgainstSecondProcess: the data directory refuses a
// second concurrent open (two writers would truncate each other's
// journal) and frees the lock on Close.
func TestDataDirLockedAgainstSecondProcess(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{})
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenPersistentOptions(dir, m, PersistOptions{}, storeParse); err == nil {
		t.Fatal("second open of a live data directory succeeded")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, _, err := OpenPersistentOptions(dir, m, PersistOptions{}, storeParse)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	p2.Close()
}

// TestWALAppendFailureNeverSilentlyAcks: once the journal cannot commit,
// every mutation — including retries of ones already applied in memory —
// must keep failing rather than acknowledge undurable state, and a
// restart must serve exactly what was acknowledged before the failure.
func TestWALAppendFailureNeverSilentlyAcks(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{})
	if _, _, err := p.RegisterSource("orders", "sql", []byte(storeDDL)); err != nil {
		t.Fatal(err)
	}
	// Fail all further appends: closing the descriptor makes the next
	// write error and the rollback truncate fail, poisoning the journal.
	if err := p.wal.f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.RegisterSource("billing", "sql",
		[]byte("CREATE TABLE Billing (BillID INT PRIMARY KEY);")); err == nil {
		t.Fatal("registration acknowledged while the journal could not commit")
	}
	// The retry hole: billing is now in memory, so a naive idempotent
	// path would acknowledge this without journaling anything.
	if _, _, err := p.RegisterSource("billing", "sql",
		[]byte("CREATE TABLE Billing (BillID INT PRIMARY KEY);")); err == nil {
		t.Fatal("retried registration acknowledged without a durable record")
	}
	if _, err := p.Remove("orders"); err == nil {
		t.Fatal("removal acknowledged while the journal could not commit")
	}
	if _, err := p.Remove("orders"); err == nil {
		t.Fatal("retried removal acknowledged without a durable record")
	}
	p.Close() // surfaces the journal failure; the double close of f is expected

	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if _, ok := p2.Get("orders"); !ok {
		t.Error("the one acknowledged registration did not survive")
	}
	if _, ok := p2.Get("billing"); ok {
		t.Error("a never-acknowledged registration leaked to disk")
	}
}

// TestWALRemoveRetryJournalsDeletion: after "removed but journaling
// failed", the entry is gone from memory; the client's retry must land
// the del record, not be told "already gone" while the entry would
// resurrect on restart.
func TestWALRemoveRetryJournalsDeletion(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{})
	if _, _, err := p.RegisterSource("orders", "sql", []byte(storeDDL)); err != nil {
		t.Fatal(err)
	}
	// Synthesize the post-failure state: in-memory removal done, del
	// record never committed, marker pending.
	p.mu.Lock()
	p.Registry.Remove("orders")
	delete(p.docs, "orders")
	p.markLocked("orders", walOpDel)
	p.mu.Unlock()

	existed, err := p.Remove("orders")
	if err != nil {
		t.Fatalf("retried remove: %v", err)
	}
	if existed {
		t.Error("retried remove reported existed=true for an entry already gone from memory")
	}
	p.mu.Lock()
	_, marked := p.unjournaled["orders"]
	p.mu.Unlock()
	if marked {
		t.Error("confirmed removal left its unjournaled marker set")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2 := newWAL(t, dir, PersistOptions{})
	defer p2.Close()
	if _, ok := p2.Get("orders"); ok {
		t.Error("removed entry resurrected: the retried del never reached the journal")
	}
}

// TestMutateAfterCloseFails: Close is idempotent and safe to call
// concurrently — every call returns the same outcome — and afterwards
// mutations fail while reads keep serving the in-memory state.
func TestMutateAfterCloseFails(t *testing.T) {
	// One subtest per write mode; the journal (wal) is the only one.
	t.Run("wal", func(t *testing.T) {
		p := newWAL(t, t.TempDir(), PersistOptions{})
		if _, _, err := p.RegisterSource("orders", "sql", []byte(storeDDL)); err != nil {
			t.Fatal(err)
		}
		const closers = 6
		errs := make([]error, closers)
		var wg sync.WaitGroup
		for i := 0; i < closers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = p.Close()
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("Close call %d: %v", i, err)
			}
		}
		if _, _, err := p.RegisterSource("late", "sql", []byte("CREATE TABLE L (ID INT);")); err == nil {
			t.Error("registration after Close succeeded")
		}
		if _, err := p.Remove("orders"); err == nil {
			t.Error("removal after Close succeeded")
		}
		// Reads keep serving the in-memory state.
		if _, ok := p.Get("orders"); !ok {
			t.Error("read after Close lost the entry")
		}
	})
}
