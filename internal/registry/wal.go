package registry

// The write-ahead journal behind Persistent. One WAL file holds
// the mutations that happened *after* the snapshot generation its name
// carries: wal-<base>.log contains the ordered Register/Replace/Remove
// tail on top of snapshot-<base>.jsonl (or on top of nothing for base 0).
// Recovery is newest-consistent-snapshot + ordered tail replay; a torn
// tail is truncated back to the last whole record. docs/PERSISTENCE.md is
// the byte-level specification of everything in this file, kept honest by
// a conformance test that decodes the documented example with this
// decoder.
//
// File layout:
//
//	offset  size  field
//	0       8     magic "CUPIDWAL"
//	8       4     format version, big-endian uint32 (currently 1)
//	12      ...   records, back to back
//
// Record framing (everything before the payload is big-endian):
//
//	offset  size  field
//	0       4     payload length n
//	4       4     IEEE CRC-32 of the payload bytes
//	8       n     payload: one JSON walRecord
//
// The payload is JSON (one walRecord) so the journal stays debuggable
// with standard tools, but the frame is binary: the length prefix makes
// scanning O(records) without parsing, and the checksum turns every torn
// or bit-rotted write into a detectable truncation point instead of a
// silently wrong repository.
import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	walMagic   = "CUPIDWAL"
	walVersion = 1
	walPrefix  = "wal-"
	walSuffix  = ".log"
	// walHeaderSize is the file preamble: 8 magic bytes + 4 version bytes.
	walHeaderSize = len(walMagic) + 4
	// walFrameSize is the per-record frame before the payload: 4 length
	// bytes + 4 checksum bytes.
	walFrameSize = 8
	// walMaxPayload bounds a single record (a schema source document plus
	// framing); longer length prefixes are treated as corruption.
	walMaxPayload = 64 << 20
)

// WAL record operations: a put journals a registration or replacement
// (carrying the full source document), a del journals a removal.
const (
	walOpPut = "put"
	walOpDel = "del"
)

// walRecord is one journaled mutation. Put records carry the same fields
// a snapshot record (Doc) does — the original source document — so replay
// re-parses exactly the bytes the client registered; del records carry
// only the name.
type walRecord struct {
	Op          string `json:"op"`
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Format      string `json:"format,omitempty"`
	Content     string `json:"content,omitempty"`
	Instances   string `json:"instances,omitempty"`
}

// doc converts a put record back into the snapshot-record shape.
func (r walRecord) doc() Doc {
	return Doc{Name: r.Name, Fingerprint: r.Fingerprint, Format: r.Format, Content: r.Content, Instances: r.Instances}
}

// putRecord frames a Doc as a put mutation.
func putRecord(d Doc) walRecord {
	return walRecord{Op: walOpPut, Name: d.Name, Fingerprint: d.Fingerprint, Format: d.Format, Content: d.Content, Instances: d.Instances}
}

// delRecord frames a removal.
func delRecord(name string) walRecord {
	return walRecord{Op: walOpDel, Name: name}
}

// appendWALHeader appends the file preamble to buf.
func appendWALHeader(buf []byte) []byte {
	buf = append(buf, walMagic...)
	return binary.BigEndian.AppendUint32(buf, walVersion)
}

// appendFrame appends one length+checksum frame around payload to buf.
// This is the framing primitive shared by the on-disk journal and the
// replication stream (repl.go): 4-byte big-endian payload length, 4-byte
// IEEE CRC-32 of the payload, then the payload itself.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// decodeFrame decodes one frame from b, returning the payload and the
// number of bytes consumed. Any defect — short frame, oversized length,
// checksum mismatch — is an error; the caller treats the frame and
// everything after it as torn.
func decodeFrame(b []byte) ([]byte, int, error) {
	if len(b) < walFrameSize {
		return nil, 0, fmt.Errorf("short frame: %d bytes", len(b))
	}
	n := binary.BigEndian.Uint32(b[0:4])
	sum := binary.BigEndian.Uint32(b[4:8])
	if n > walMaxPayload {
		return nil, 0, fmt.Errorf("implausible payload length %d", n)
	}
	if int64(len(b))-walFrameSize < int64(n) {
		return nil, 0, fmt.Errorf("torn payload: %d of %d bytes", len(b)-walFrameSize, n)
	}
	payload := b[walFrameSize : walFrameSize+int(n)]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, 0, fmt.Errorf("checksum mismatch: %08x, frame says %08x", got, sum)
	}
	return payload, walFrameSize + int(n), nil
}

// appendWALRecord appends one framed record to buf. A payload the
// decoder would reject as implausible is refused here, symmetrically —
// writing it would produce an acknowledged record that the next recovery
// treats as corruption, truncating it and everything after it.
func appendWALRecord(buf []byte, rec walRecord) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("registry: encoding WAL record %q: %w", rec.Name, err)
	}
	if len(payload) > walMaxPayload {
		return nil, fmt.Errorf("registry: WAL record %q is %d bytes, beyond the %d-byte record limit", rec.Name, len(payload), walMaxPayload)
	}
	return appendFrame(buf, payload), nil
}

// decodeWALRecord decodes one framed record from b, returning the record
// and the number of bytes consumed. Any defect — short frame, oversized
// length, checksum mismatch, unparseable payload, unknown op — is an
// error; the caller treats the record and everything after it as the torn
// tail.
func decodeWALRecord(b []byte) (walRecord, int, error) {
	var rec walRecord
	payload, size, err := decodeFrame(b)
	if err != nil {
		return rec, 0, err
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, 0, fmt.Errorf("decoding payload: %w", err)
	}
	switch rec.Op {
	case walOpPut, walOpDel:
	default:
		return rec, 0, fmt.Errorf("unknown op %q", rec.Op)
	}
	if rec.Name == "" {
		return rec, 0, fmt.Errorf("record without a name")
	}
	return rec, size, nil
}

// scanWAL reads a journal file and returns every whole, checksum-valid
// record plus the byte offset where the valid prefix ends. A file too
// short to carry the preamble yields validEnd 0 (the whole file is a
// torn creation). corruption describes why scanning stopped early; it is
// empty when the file was read to a clean end.
//
// A full-length preamble with the wrong magic or an unsupported version
// is a hard error, never a truncation point: the file is not something
// this code wrote (or was written by a newer format after a binary
// downgrade), and "recovering" it by truncation would destroy every
// acknowledged record it holds. Refusing to open is the only safe move.
func scanWAL(path string) (recs []walRecord, validEnd int64, corruption string, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, "", err
	}
	if len(b) < walHeaderSize {
		return nil, 0, "torn file header", nil
	}
	if string(b[:len(walMagic)]) != walMagic {
		return nil, 0, "", fmt.Errorf("registry: %s is not a cupid journal (bad magic)", path)
	}
	if v := binary.BigEndian.Uint32(b[len(walMagic):walHeaderSize]); v != walVersion {
		return nil, 0, "", fmt.Errorf("registry: %s has unsupported journal version %d (this build reads %d); refusing to open rather than truncate it", path, v, walVersion)
	}
	off := int64(walHeaderSize)
	for off < int64(len(b)) {
		rec, n, derr := decodeWALRecord(b[off:])
		if derr != nil {
			return recs, off, derr.Error(), nil
		}
		recs = append(recs, rec)
		off += int64(n)
	}
	return recs, off, "", nil
}

// WALRecordBoundaries returns the byte offsets of every record boundary
// in a journal file: the offset before the first record (the header end),
// then the offset after each whole valid record. The crash-injection
// suite truncates at (and corrupts after) each of these to prove recovery
// lands on a consistent prefix; it is exported as an operational
// introspection helper for the same reason.
func WALRecordBoundaries(path string) ([]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < walHeaderSize {
		return nil, fmt.Errorf("registry: %s: too short for a WAL header", path)
	}
	bounds := []int64{int64(walHeaderSize)}
	off := int64(walHeaderSize)
	for off < int64(len(b)) {
		_, n, derr := decodeWALRecord(b[off:])
		if derr != nil {
			break
		}
		off += int64(n)
		bounds = append(bounds, off)
	}
	return bounds, nil
}

// walFile is an open, append-only journal owned by exactly one writer
// (Persistent's group-commit loop). It tracks its own size and record
// count so the compaction trigger never needs to stat or rescan.
type walFile struct {
	f       *os.File
	path    string
	base    uint64 // snapshot generation this journal's records follow
	size    int64
	records int
	syncs   int // fsyncs issued for record appends (group-commit ratio)
	// failed poisons the journal after an append failure that could not
	// be rolled back: later records must never land behind a torn frame
	// or an unsyncable region (recovery would truncate at the damage and
	// silently discard them), so every subsequent append fails fast
	// instead. A restart recovers and reopens cleanly.
	failed bool
}

// openWAL opens (creating and preamble-initializing if needed) the
// journal for the given base generation, positioned for appending.
// records primes the record count for a file that recovery already
// scanned; pass 0 for a fresh file.
func (st *Store) openWAL(base uint64, records int) (*walFile, error) {
	path := st.walPath(base)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("registry: opening WAL: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("registry: stating WAL: %w", err)
	}
	w := &walFile{f: f, path: path, base: base, size: fi.Size(), records: records}
	if w.size == 0 {
		if _, err := f.Write(appendWALHeader(nil)); err != nil {
			f.Close()
			return nil, fmt.Errorf("registry: writing WAL header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("registry: syncing WAL header: %w", err)
		}
		w.size = int64(walHeaderSize)
		syncDir(st.dir)
	} else if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("registry: seeking WAL end: %w", err)
	}
	return w, nil
}

// append writes the given records as one contiguous write followed by one
// fsync — the group-commit primitive: however many writers are batched
// into recs, durability costs a single disk barrier.
//
// Failure handling protects later batches: a failed write may have left a
// torn frame, so the batch is rolled back (truncated off) before the
// error is returned; if the rollback cannot be made — or the fsync itself
// failed, after which the kernel may silently have dropped dirty pages —
// the journal is poisoned and every later append fails fast. Nothing is
// ever appended behind damage that recovery would truncate at.
func (w *walFile) append(recs []walRecord) error {
	buf := make([]byte, 0, 256*len(recs))
	var err error
	for _, rec := range recs {
		if buf, err = appendWALRecord(buf, rec); err != nil {
			return err
		}
	}
	return w.appendEncoded(buf, len(recs))
}

// appendEncoded is append for a pre-encoded batch — the group-commit
// loop encodes records one by one so a single unencodable record fails
// only its own writer, never the whole batch.
func (w *walFile) appendEncoded(buf []byte, records int) error {
	if w.failed {
		return fmt.Errorf("registry: journal %s is failed after an earlier unrecoverable append error; restart to recover", w.path)
	}
	start := w.size
	if _, err := w.f.Write(buf); err != nil {
		w.rollback(start)
		return fmt.Errorf("registry: appending to WAL: %w", err)
	}
	w.size = start + int64(len(buf))
	if err := w.f.Sync(); err != nil {
		w.rollback(start)
		w.failed = true
		return fmt.Errorf("registry: syncing WAL: %w", err)
	}
	w.syncs++
	w.records += records
	return nil
}

// rollback cuts a failed batch back off the journal so the file never
// carries a torn frame mid-stream; if the cut cannot be made the journal
// is poisoned (recovery truncates the tear at the next open instead).
func (w *walFile) rollback(start int64) {
	if err := w.f.Truncate(start); err != nil {
		w.failed = true
		return
	}
	if _, err := w.f.Seek(start, io.SeekStart); err != nil {
		w.failed = true
		return
	}
	w.size = start
}

// Close closes the underlying file.
func (w *walFile) Close() error { return w.f.Close() }

// walPath names the journal for a base generation.
func (st *Store) walPath(base uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%d%s", walPrefix, base, walSuffix))
}

// walSequences lists the base generations of the journal files on disk,
// ascending. Unparseable names are ignored, like snapshot names.
func (st *Store) walSequences() []uint64 {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, walPrefix), walSuffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash; failures are ignored (the caller's own fsync already
// made the data durable on filesystems that need nothing more).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
