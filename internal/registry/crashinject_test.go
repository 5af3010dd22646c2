package registry

// The crash-injection harness: build a journal from a known mutation
// sequence, then simulate a crash at every record boundary — clean
// truncation, mid-record truncation, and bit corruption — and assert that
// recovery always lands on a consistent prefix of the acknowledged order,
// serving rankings identical to a registry built fresh from that prefix.
// This is the executable form of docs/PERSISTENCE.md's crash matrix.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workloads"
)

// crashOp is one mutation in the injected sequence.
type crashOp struct {
	op      string // "put" or "del"
	name    string
	format  string
	content string
}

// crashOps is the journal-building sequence: registrations across two
// formats, a replacement, and a removal, so every record kind appears and
// prefixes differ meaningfully from each other.
func crashOps(t *testing.T) []crashOp {
	t.Helper()
	ops := []crashOp{
		{op: "put", name: "orders", format: "sql", content: storeDDL},
		{op: "put", name: "billing", format: "sql", content: "CREATE TABLE Billing (BillID INT PRIMARY KEY, Total DECIMAL(10,2), Payer VARCHAR(32));"},
		{op: "put", name: "shipping", format: "sql", content: "CREATE TABLE Shipping (ShipID INT PRIMARY KEY, Carrier VARCHAR(24), Weight DECIMAL(8,2));"},
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{Families: 2, PerFamily: 2, Seed: 9})
	for _, s := range corpus {
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, crashOp{op: "put", name: s.Name, format: "json", content: string(b)})
	}
	ops = append(ops,
		// Replace an early registration with different content…
		crashOp{op: "put", name: "billing", format: "sql", content: "CREATE TABLE Billing (BillID INT PRIMARY KEY, Amount DECIMAL(12,2), Currency VARCHAR(3));"},
		// …and remove another, so replay order is observable.
		crashOp{op: "del", name: "shipping"},
	)
	return ops
}

// applyPrefix replays ops[:n] into a fresh in-memory registry — the
// oracle a crashed-and-recovered store is compared against.
func applyPrefix(t *testing.T, m *core.Matcher, ops []crashOp, n int) *Registry {
	t.Helper()
	reg := NewWithMatcher(m)
	for _, op := range ops[:n] {
		switch op.op {
		case "put":
			s, err := storeParse(op.name, op.format, []byte(op.content))
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := reg.Register(op.name, s); err != nil {
				t.Fatal(err)
			}
		case "del":
			reg.Remove(op.name)
		}
	}
	return reg
}

// rankingOf renders a registry's full MatchAll ranking for a fixed probe
// into a comparable, fully precise string (names, scores, every leaf
// pair) — "byte-identical rankings" without depending on JSON field
// order.
func rankingOf(t *testing.T, reg *Registry, m *core.Matcher) string {
	t.Helper()
	probe, err := m.Prepare(workloads.FamilyProbe(1, 77))
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := reg.MatchAll(probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := ""
	for _, rk := range ranked {
		out += fmt.Sprintf("%s %s %x\n", rk.Entry.Name, rk.Entry.Fingerprint, rk.Score)
		for _, e := range rk.Result.Mapping.Leaves {
			out += fmt.Sprintf("  %s -> %s %x %x %x\n", e.Source.Path(), e.Target.Path(), e.WSim, e.SSim, e.LSim)
		}
	}
	return out
}

// buildCrashDir journals the full op sequence in WAL mode (compaction
// disabled by a huge threshold so every op stays in the tail) and returns
// the data dir and the journal path.
func buildCrashDir(t *testing.T, ops []crashOp) (dir, journal string) {
	t.Helper()
	dir = t.TempDir()
	p := newWAL(t, dir, PersistOptions{CompactBytes: 1 << 40, CompactRecords: 1 << 30})
	for _, op := range ops {
		switch op.op {
		case "put":
			if _, _, err := p.RegisterSource(op.name, op.format, []byte(op.content)); err != nil {
				t.Fatal(err)
			}
		case "del":
			if ok, err := p.Remove(op.name); err != nil || !ok {
				t.Fatalf("remove %s: ok=%v err=%v", op.name, ok, err)
			}
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wals := walFiles(t, dir)
	if len(wals) != 1 {
		t.Fatalf("want one journal, got %v", wals)
	}
	return dir, wals[0]
}

// copyCrashDir clones a data directory so each injection mutates a fresh
// copy.
func copyCrashDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverCrashDir reopens an injected directory and returns the restored
// registry (closed via cleanup).
func recoverCrashDir(t *testing.T, dir string, m *core.Matcher) *Persistent {
	t.Helper()
	p, warns, err := OpenPersistentOptions(dir, m, PersistOptions{}, storeParse)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	_ = warns
	return p
}

// assertPrefixState checks the recovered registry equals the oracle for
// prefix n: same entry set, same fingerprints, identical full rankings.
func assertPrefixState(t *testing.T, label string, rec *Persistent, oracle *Registry, oracleRanking string, m *core.Matcher) {
	t.Helper()
	if rec.Len() != oracle.Len() {
		t.Fatalf("%s: recovered %d entries, oracle has %d", label, rec.Len(), oracle.Len())
	}
	for _, e := range oracle.List() {
		got, ok := rec.Get(e.Name)
		if !ok {
			t.Fatalf("%s: entry %q missing after recovery", label, e.Name)
		}
		if got.Fingerprint != e.Fingerprint {
			t.Fatalf("%s: entry %q fingerprint %s, oracle %s", label, e.Name, got.Fingerprint, e.Fingerprint)
		}
	}
	if got := rankingOf(t, rec.Registry, m); got != oracleRanking {
		t.Errorf("%s: recovered rankings differ from the oracle prefix:\n--- recovered\n%s--- oracle\n%s", label, got, oracleRanking)
	}
}

// TestCrashInjectionEveryRecordBoundary is the harness's main sweep:
// truncating the journal exactly at boundary k must recover precisely the
// first k acknowledged mutations, with rankings identical to a registry
// built fresh from that prefix.
func TestCrashInjectionEveryRecordBoundary(t *testing.T) {
	ops := crashOps(t)
	masterDir, _ := buildCrashDir(t, ops)
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	bounds, err := WALRecordBoundaries(walFiles(t, masterDir)[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != len(ops)+1 {
		t.Fatalf("%d boundaries for %d ops", len(bounds), len(ops))
	}

	for k := 0; k <= len(ops); k++ {
		oracle := applyPrefix(t, m, ops, k)
		oracleRanking := rankingOf(t, oracle, m)

		dir := copyCrashDir(t, masterDir)
		journal := walFiles(t, dir)[0]
		if err := os.Truncate(journal, bounds[k]); err != nil {
			t.Fatal(err)
		}
		rec := recoverCrashDir(t, dir, m)
		assertPrefixState(t, fmt.Sprintf("truncate@record %d", k), rec, oracle, oracleRanking, m)
	}
}

// TestCrashInjectionMidRecordAndCorruption tears the journal *inside*
// each record — a few bytes past every boundary (torn write) and a bit
// flip mid-record (rot) — and asserts recovery truncates back to the
// preceding whole record.
func TestCrashInjectionMidRecordAndCorruption(t *testing.T) {
	ops := crashOps(t)
	masterDir, _ := buildCrashDir(t, ops)
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := WALRecordBoundaries(walFiles(t, masterDir)[0])
	if err != nil {
		t.Fatal(err)
	}

	for k := 0; k < len(ops); k++ {
		oracle := applyPrefix(t, m, ops, k)
		oracleRanking := rankingOf(t, oracle, m)

		// Torn write: the record after boundary k made it only partially to
		// disk (cut 3 bytes into its frame).
		dir := copyCrashDir(t, masterDir)
		journal := walFiles(t, dir)[0]
		if err := os.Truncate(journal, bounds[k]+3); err != nil {
			t.Fatal(err)
		}
		rec := recoverCrashDir(t, dir, m)
		assertPrefixState(t, fmt.Sprintf("torn@record %d", k), rec, oracle, oracleRanking, m)

		// Bit rot: flip one byte in the middle of record k. Everything from
		// the corrupted record on is the torn tail.
		dir2 := copyCrashDir(t, masterDir)
		journal2 := walFiles(t, dir2)[0]
		b, err := os.ReadFile(journal2)
		if err != nil {
			t.Fatal(err)
		}
		mid := (bounds[k] + bounds[k+1]) / 2
		b[mid] ^= 0x20
		if err := os.WriteFile(journal2, b, 0o644); err != nil {
			t.Fatal(err)
		}
		rec2 := recoverCrashDir(t, dir2, m)
		assertPrefixState(t, fmt.Sprintf("bitflip@record %d", k), rec2, oracle, oracleRanking, m)
	}
}

// TestCrashInjectionMidCompaction simulates the compaction crash cells of
// the matrix: the rotated journal exists but the folding snapshot is
// absent, torn, or complete — recovery must serve the full state in every
// case.
func TestCrashInjectionMidCompaction(t *testing.T) {
	ops := crashOps(t)
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := applyPrefix(t, m, ops, len(ops))
	oracleRanking := rankingOf(t, oracle, m)

	// Build with compaction forced on every commit, then synthesize the
	// crash states from a copy of the healthy directory. Each op waits for
	// the compaction it triggered: a commit arriving while a compaction
	// is still writing skips its own, so a slow first compaction would
	// otherwise leave one snapshot generation and nothing for the torn
	// cell below to fall back to.
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{CompactBytes: 1})
	for _, op := range ops {
		base := p.ReplicationPos().Base
		switch op.op {
		case "put":
			if _, _, err := p.RegisterSource(op.name, op.format, []byte(op.content)); err != nil {
				t.Fatal(err)
			}
		case "del":
			if _, err := p.Remove(op.name); err != nil {
				t.Fatal(err)
			}
		}
		awaitCompaction(t, p, base)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash cell: newest snapshot torn mid-write (truncated) — recovery
	// falls back to the prior generation plus both journal tails.
	dirTorn := copyCrashDir(t, dir)
	st := &Store{dir: dirTorn}
	seqs := st.sequences()
	if len(seqs) < 2 {
		t.Fatalf("want two snapshot generations to tear the newest of, have %v", seqs)
	}
	newest := st.path(seqs[len(seqs)-1])
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	rec := recoverCrashDir(t, dirTorn, m)
	assertPrefixState(t, "torn newest snapshot", rec, oracle, oracleRanking, m)

	// Crash cell: crash before the rename — the snapshot is only a temp
	// file. Recovery ignores and removes it.
	dirTmp := copyCrashDir(t, dir)
	if err := os.WriteFile(filepath.Join(dirTmp, ".snapshot-12345.tmp"), b[:len(b)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	rec2 := recoverCrashDir(t, dirTmp, m)
	assertPrefixState(t, "snapshot temp leftover", rec2, oracle, oracleRanking, m)
	if tmps, _ := filepath.Glob(filepath.Join(dirTmp, ".snapshot-*.tmp")); len(tmps) != 0 {
		t.Errorf("recovery left snapshot temp files behind: %v", tmps)
	}

	// Crash cell: crash between the snapshot rename and the stale-journal
	// delete — a journal superseded by the newest snapshot is still on
	// disk. Recovery must ignore it (its records are folded in) and clean
	// it up, even when its content disagrees with the snapshot.
	dirStale := copyCrashDir(t, dir)
	staleFrame := appendWALHeader(nil)
	staleFrame, err = appendWALRecord(staleFrame, delRecord("orders"))
	if err != nil {
		t.Fatal(err)
	}
	stalePath := filepath.Join(dirStale, walPrefix+"0"+walSuffix)
	if err := os.WriteFile(stalePath, staleFrame, 0o644); err != nil {
		t.Fatal(err)
	}
	rec3 := recoverCrashDir(t, dirStale, m)
	assertPrefixState(t, "stale journal leftover", rec3, oracle, oracleRanking, m)
	if _, err := os.Stat(stalePath); !os.IsNotExist(err) {
		t.Errorf("stale journal not cleaned up at recovery (stat err %v)", err)
	}
}

// awaitCompaction waits until the journal has rotated past generation
// base and the compaction that rotated it has written its snapshot.
func awaitCompaction(t *testing.T, p *Persistent, base uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.ReplicationPos().Base <= base || p.Compacting() {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction past generation %d within 10s (at %d, compacting %v)",
				base, p.ReplicationPos().Base, p.Compacting())
		}
		time.Sleep(time.Millisecond)
	}
}
