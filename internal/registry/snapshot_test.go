package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// trickyDocs covers every escaping path of the JSON encoder: HTML
// characters, U+2028/U+2029, non-ASCII text, invalid UTF-8, control
// bytes and an instances payload.
func trickyDocs() []Doc {
	return []Doc{
		{Name: "zeta", Fingerprint: "f1", Format: "sql", Content: "CREATE TABLE T (X INT); -- <b>&amp;</b>   "},
		{Name: "alpha", Fingerprint: "f2", Format: "json", Content: `{"name":"Größe","root":{"name":"日本語"}}`},
		{Name: "mid dle", Fingerprint: "f3", Format: "sql", Content: "bad \xff\xfe utf8 \x00\x1f\t\n\"quoted\"\\", Instances: `{"rows":[["<x>","&"]]}`},
	}
}

// legacySnapshotBytes is the snapshot encoding as it was when the whole
// file was built in memory first: one json.Encoder over a buffer, records
// encoded by value, in name order.
func legacySnapshotBytes(t *testing.T, seq uint64, docs []Doc) []byte {
	t.Helper()
	sorted := append([]Doc(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(snapshotHeader{Magic: snapshotMagic, Version: snapshotVersion, Seq: seq, Count: len(sorted)}); err != nil {
		t.Fatal(err)
	}
	for _, d := range sorted {
		if err := enc.Encode(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(snapshotFooter{EOF: true, Count: len(sorted)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotBytesUnchanged: the streamed snapshot is byte-identical to
// the in-memory encoding, including records larger than the write buffer.
func TestSnapshotBytesUnchanged(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	big := Doc{Name: "big", Format: "sql", Content: strings.Repeat("CREATE TABLE <T> (X INT); é ", 3*snapshotBufSize/32)}
	sets := [][]Doc{nil, trickyDocs(), append(trickyDocs(), big)}
	for i, docs := range sets {
		seq := uint64(i + 1)
		if err := st.SaveAt(seq, docs); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(st.path(seq))
		if err != nil {
			t.Fatal(err)
		}
		if want := legacySnapshotBytes(t, seq, docs); !bytes.Equal(got, want) {
			t.Errorf("generation %d: streamed snapshot differs from the in-memory encoding (%d vs %d bytes)", seq, len(got), len(want))
		}
	}
}

// saveAllocBytes returns the bytes SaveAt allocates writing docs, the
// least of a few runs after a warm-up (so pooled encoder state counts
// once, not per run).
func saveAllocBytes(t *testing.T, st *Store, docs []Doc) uint64 {
	t.Helper()
	best := ^uint64(0)
	for run := 0; run < 4; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := st.SaveAt(st.seq+1, docs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if run > 0 {
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return best
}

// TestSnapshotWriteMemoryBounded: a compaction's allocation does not
// grow with the snapshot's size. 2,000 1 KB documents cost at most 1 MB
// (encoding the whole snapshot in memory first cost 6.6 MB), and ten-fold
// larger documents cost less than one extra write buffer (in memory they
// cost 2.7 MB and 25 MB).
func TestSnapshotWriteMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("writes 2,000-document snapshots")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled encoder state, so allocation is not what it measures")
	}
	st, err := OpenStore(t.TempDir(), storeParse)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	docsOf := func(n, size int) []Doc {
		content := strings.Repeat("CREATE TABLE T (X INT);\n", size/24)
		docs := make([]Doc, n)
		for i := range docs {
			docs[i] = Doc{Name: fmt.Sprintf("schema-%05d", i), Fingerprint: "0123456789abcdef0123456789abcdef", Format: "sql", Content: content}
		}
		return docs
	}
	got := saveAllocBytes(t, st, docsOf(2000, 1<<10))
	if got > 1<<20 {
		t.Errorf("SaveAt of 2,000 documents allocated %d bytes, want ≤ 1 MB", got)
	}
	small := saveAllocBytes(t, st, docsOf(200, 4<<10))
	large := saveAllocBytes(t, st, docsOf(200, 40<<10))
	t.Logf("SaveAt allocated %d bytes for 2,000 documents; %d (4 KB docs) and %d (40 KB docs) for 200", got, small, large)
	if diff := int64(large) - int64(small); diff >= 64<<10 || diff <= -64<<10 {
		t.Errorf("SaveAt allocated %d bytes with 4 KB documents and %d with 40 KB ones; want them within 64 KiB", small, large)
	}
}

// failAfter passes its first n bytes through to w and fails every write
// after that, like a disk that fills up mid-compaction.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		k, _ := f.w.Write(p[:f.n])
		f.n = 0
		return k, errDiskFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestSnapshotWriteFailurePublishesNothing: a snapshot whose write fails
// partway returns the error, leaves neither the new generation nor its
// temp file behind, and recovery serves the previous generation.
func TestSnapshotWriteFailurePublishesNothing(t *testing.T) {
	var buf bytes.Buffer
	if err := writeSnapshot(&failAfter{w: &buf, n: 100}, 1, trickyDocs()); !errors.Is(err, errDiskFull) {
		t.Fatalf("writeSnapshot over a failing writer = %v, want the write error", err)
	}

	dir := t.TempDir()
	writeGenerations(t, dir, []Doc{sqlDoc("orders", storeDDL)})
	st, err := OpenStore(dir, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.snapshotSink = func(w io.Writer) io.Writer { return &failAfter{w: w, n: snapshotBufSize} }
	docs := []Doc{sqlDoc("orders", storeDDL), sqlDoc("billing", billingDDL)}
	for i := 0; i < 64; i++ {
		docs = append(docs, Doc{Name: fmt.Sprintf("pad-%02d", i), Format: "sql", Content: strings.Repeat("x", 4<<10)})
	}
	if err := st.SaveAt(2, docs); !errors.Is(err, errDiskFull) {
		t.Fatalf("SaveAt over a failing disk = %v, want the write error", err)
	}
	if _, err := os.Stat(st.path(2)); !os.IsNotExist(err) {
		t.Errorf("a failed snapshot was published: stat = %v", err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, ".snapshot-*.tmp")); len(tmps) > 0 {
		t.Errorf("a failed snapshot left temp files %v", tmps)
	}
	rec, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 1 || len(rec.Docs) != 1 || rec.Docs[0].Doc.Name != "orders" {
		t.Errorf("recovery after a failed snapshot chose generation %d with %d docs, want generation 1 with orders", rec.SnapshotSeq, len(rec.Docs))
	}
}
