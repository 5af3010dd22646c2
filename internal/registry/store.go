package registry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/model"
)

// Store is the registry's durability layer: versioned JSON-lines snapshot
// generations plus an append-only write-ahead journal, all under one data
// directory. docs/PERSISTENCE.md is the byte-level specification (layout,
// record formats, fsync points, crash matrix), kept honest by a
// conformance test. Each snapshot is a complete, self-validating image of
// the repository:
//
//	{"magic":"cupid-registry","version":1,"seq":3,"count":2}   header
//	{"name":"orders","fingerprint":"…","format":"sql","content":"…"}
//	{"name":"po","fingerprint":"…","format":"json","content":"…"}
//	{"eof":true,"count":2}                                     footer
//
// Snapshots are written to a temp file, fsync'd, and atomically renamed to
// snapshot-<seq>.jsonl (the directory is fsync'd too), so a crash mid-write
// never clobbers the previous image. A journal file wal-<base>.log (see
// wal.go) holds the checksummed, length-prefixed mutation records appended
// after snapshot <base>; Recover restores the newest consistent snapshot,
// replays the ordered journal tail on top of it, and truncates a torn
// tail back to the last whole record. The two most recent snapshot
// generations are retained; older ones — and journals every retained
// generation supersedes — are pruned on each save.
//
// Records persist the schema's original source document (format + raw
// content), not a re-serialization: re-parsing the same bytes is
// deterministic, so a reloaded repository serves bit-identical match
// rankings and fingerprints. Schemas registered from an in-memory graph
// (no source document) fall back to the native JSON serialization, whose
// first round-trip may normalize the fingerprint (refint reconstruction
// reorders element creation); their match behaviour is preserved, and the
// normalized form is stable from then on.
// A store holds an exclusive advisory lock on its data directory for its
// whole lifetime (see lockDataDir): a second process opening the same
// directory is refused instead of corrupting the first one's journal.
// Close releases it.
type Store struct {
	dir   string
	parse ParseFunc
	lock  *os.File
	seq   uint64 // sequence of the most recent snapshot written or seen
}

// ParseFunc turns a persisted source document back into a schema. The
// cupidd server passes the shared multi-format loader (cupid.ParseSchema);
// nil restricts the store to the native "json" format.
type ParseFunc func(name, format string, data []byte) (*model.Schema, error)

// Doc is one persisted repository entry: the registration key plus the
// source document it was parsed from.
type Doc struct {
	// Name is the repository key the schema is registered under.
	Name string `json:"name"`
	// Fingerprint is the schema's content hash (model.Fingerprint),
	// suffixed with the instance-profile hash when Instances is set.
	Fingerprint string `json:"fingerprint"`
	// Format names the source document format (sql, xsd, dtd, json,
	// jsonschema, avro).
	Format string `json:"format"`
	// Content is the original source document, byte for byte.
	Content string `json:"content"`
	// Instances is the optional sampled-instances payload attached at
	// registration (internal/instance JSON form), byte for byte; empty for
	// instance-free registrations (and omitted from the persisted record,
	// keeping the on-disk format backward compatible).
	Instances string `json:"instances,omitempty"`
}

const (
	snapshotMagic   = "cupid-registry"
	snapshotVersion = 1
	snapshotPrefix  = "snapshot-"
	snapshotSuffix  = ".jsonl"
	// snapshotsKept is how many consistent generations stay on disk: the
	// current one plus one fallback for torn-write recovery.
	snapshotsKept = 2
)

// FamiliesDocName and FamiliesDocFormat identify the reserved metadata
// document that carries the corpus clustering (internal/corpus canonical
// JSON) through the ordinary persistence machinery: journaled like any
// put, folded into snapshots, shipped to replication followers — so
// family assignments survive restarts and replicate byte-identically
// without a second durability path. The name is reserved: RegisterSource
// refuses it for ordinary schemas.
const (
	FamiliesDocName   = ".corpus/families"
	FamiliesDocFormat = "corpus-families"
)

// metaDoc reports whether a persisted record is repository metadata
// rather than a schema document: metadata is never parsed as a schema and
// never registered into the entry shards.
func metaDoc(format string) bool { return format == FamiliesDocFormat }

// Sentinel failure kinds loadNewest dispatches on: a version mismatch
// hard-fails the open, a document parse failure skips the generation
// without deleting it; everything else is structural crash damage.
var (
	errSnapshotVersion  = errors.New("unsupported snapshot version")
	errSnapshotDocParse = errors.New("re-parsing")
)

type snapshotHeader struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Seq     uint64 `json:"seq"`
	Count   int    `json:"count"`
}

type snapshotFooter struct {
	EOF   bool `json:"eof"`
	Count int  `json:"count"`
}

// OpenStore opens (creating if needed) the data directory and scans it for
// existing snapshots.
func OpenStore(dir string, parse ParseFunc) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("registry: store needs a data directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating data dir: %w", err)
	}
	if parse == nil {
		parse = func(name, format string, data []byte) (*model.Schema, error) {
			if strings.TrimPrefix(strings.ToLower(strings.TrimSpace(format)), ".") != "json" {
				return nil, fmt.Errorf("registry: store has no parser for format %q (only the native json format without one)", format)
			}
			return model.ReadJSON(bytes.NewReader(data))
		}
	}
	lock, err := lockDataDir(dir)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, parse: parse, lock: lock}
	for _, seq := range st.sequences() {
		if seq > st.seq {
			st.seq = seq
		}
	}
	return st, nil
}

// Dir returns the store's data directory.
func (st *Store) Dir() string { return st.dir }

// Close releases the data directory lock; the store must not be used
// afterwards.
func (st *Store) Close() error {
	if st.lock == nil {
		return nil
	}
	err := st.lock.Close()
	st.lock = nil
	return err
}

// sequences lists the snapshot sequence numbers present on disk,
// ascending. Unparseable names are ignored.
func (st *Store) sequences() []uint64 {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotSuffix), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

func (st *Store) path(seq uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s%d%s", snapshotPrefix, seq, snapshotSuffix))
}

// SaveAt writes the given docs as snapshot generation seq: temp file,
// fsync, atomic rename, directory fsync, then pruning of snapshot
// generations older than the retained window and of journal files every
// retained generation supersedes. Docs are written sorted by name so
// equal repository states produce byte-identical snapshots. seq must be
// newer than every snapshot already seen.
func (st *Store) SaveAt(seq uint64, docs []Doc) error {
	if seq <= st.seq {
		return fmt.Errorf("registry: snapshot generation %d is not newer than %d", seq, st.seq)
	}
	sorted := append([]Doc(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(snapshotHeader{Magic: snapshotMagic, Version: snapshotVersion, Seq: seq, Count: len(sorted)}); err != nil {
		return fmt.Errorf("registry: encoding snapshot header: %w", err)
	}
	for _, d := range sorted {
		if err := enc.Encode(d); err != nil {
			return fmt.Errorf("registry: encoding snapshot record %q: %w", d.Name, err)
		}
	}
	if err := enc.Encode(snapshotFooter{EOF: true, Count: len(sorted)}); err != nil {
		return fmt.Errorf("registry: encoding snapshot footer: %w", err)
	}

	tmp, err := os.CreateTemp(st.dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("registry: creating snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: closing snapshot: %w", err)
	}
	if err := os.Rename(tmpName, st.path(seq)); err != nil {
		return fmt.Errorf("registry: publishing snapshot: %w", err)
	}
	syncDir(st.dir)
	st.seq = seq

	// Prune snapshot generations beyond the retained window, and journal
	// files whose base predates the oldest retained generation (their
	// records are folded into every snapshot that could still be chosen).
	// Failures are cosmetic.
	seqs := st.sequences()
	for i := 0; i+snapshotsKept < len(seqs); i++ {
		os.Remove(st.path(seqs[i]))
	}
	if kept := st.sequences(); len(kept) > 0 {
		oldest := kept[0]
		for _, base := range st.walSequences() {
			if base < oldest {
				os.Remove(st.walPath(base))
			}
		}
	}
	return nil
}

// Loaded is one restored repository entry: the persisted document plus the
// schema parsed back from it.
type Loaded struct {
	// Doc is the persisted document as read back from disk.
	Doc Doc
	// Schema is the schema re-parsed from Doc's content.
	Schema *model.Schema
}

// loadNewest walks snapshots newest-first and returns the first
// consistent one — header, every record, footer, every document
// re-parseable — together with its sequence number and the sequence
// numbers of every newer generation that is *structurally* broken (torn
// writes, garbage, undecodable records: known crash damage recovery
// should clean up so retention pruning never evicts a good fallback in
// their favor). Two failure kinds are treated differently:
//
//   - an unsupported snapshot version is a hard error — the file was
//     written by a different build (e.g. before a binary downgrade) and
//     neither deleting it nor silently serving an older generation is
//     safe;
//   - a document that fails to re-parse marks the snapshot skipped (the
//     schema set may simply exceed this store's parse function) but
//     never deleted — the bytes are intact and a correctly configured
//     reopen can still read them.
//
// It ignores the write-ahead journal; Recover is the only recovery entry
// point (snapshot + ordered tail replay).
func (st *Store) loadNewest() (docs []Loaded, seq uint64, warnings []string, bad []uint64, err error) {
	seqs := st.sequences()
	for i := len(seqs) - 1; i >= 0; i-- {
		loaded, lerr := st.loadSnapshot(seqs[i])
		switch {
		case lerr == nil:
			return loaded, seqs[i], warnings, bad, nil
		case errors.Is(lerr, errSnapshotVersion):
			return nil, 0, warnings, bad, fmt.Errorf("registry: snapshot %d: %w; refusing to open rather than discard it", seqs[i], lerr)
		case errors.Is(lerr, errSnapshotDocParse):
			warnings = append(warnings, fmt.Sprintf("snapshot %d skipped (kept on disk): %v", seqs[i], lerr))
		default:
			warnings = append(warnings, fmt.Sprintf("snapshot %d unusable: %v", seqs[i], lerr))
			bad = append(bad, seqs[i])
		}
	}
	return nil, 0, warnings, bad, nil
}

// Recovery is the outcome of a Store.Recover call: the repository state a
// restart serves, plus where the write-ahead journal left off so the
// group-commit loop can keep appending.
type Recovery struct {
	// Docs is the restored repository, sorted by name: the newest
	// consistent snapshot with the ordered journal tail replayed on top.
	Docs []Loaded
	// Warnings records everything recovery had to skip, truncate or
	// delete: torn snapshots, torn journal tails, stale files.
	Warnings []string
	// SnapshotSeq is the chosen snapshot generation (0 when the directory
	// held no usable snapshot).
	SnapshotSeq uint64
	// WALBase is the journal base generation appends should continue on;
	// openWAL(WALBase, WALRecords) resumes exactly where recovery left
	// off, creating the file if none survived.
	WALBase uint64
	// WALRecords is the number of valid records already in that journal.
	WALRecords int
	// WALBytes is that journal's valid size in bytes (the file is
	// truncated to this length when a torn tail was cut).
	WALBytes int64
}

// Recover restores the repository: newest consistent snapshot + ordered
// journal tail replay. Its cleanup makes the on-disk state match the
// state it returns —
//
//   - snapshots newer than the chosen one (necessarily torn) are deleted,
//     so retention pruning can never evict the good fallback in favor of
//     a known-bad file;
//   - journal files whose base predates the chosen snapshot are deleted
//     (each of their records is already folded into it);
//   - the journal tail is truncated back to the last whole, checksummed
//     record, and journals beyond a mid-sequence tear are deleted — replay
//     always lands on a consistent, contiguous prefix of the acknowledged
//     mutation order;
//   - leftover snapshot temp files (a crash mid-compaction, before the
//     atomic rename) are removed.
//
// Replay applies put/del records in append order (last writer wins) and
// re-parses each surviving document, so the recovered repository serves
// bit-identical rankings (asserted by the crash-injection suite).
func (st *Store) Recover() (*Recovery, error) {
	docs, snapSeq, warnings, bad, err := st.loadNewest()
	if err != nil {
		return nil, err
	}
	for _, seq := range bad {
		if rmErr := os.Remove(st.path(seq)); rmErr == nil {
			warnings = append(warnings, fmt.Sprintf("deleted unusable snapshot %d", seq))
		}
	}
	if tmps, _ := filepath.Glob(filepath.Join(st.dir, ".snapshot-*.tmp")); len(tmps) > 0 {
		for _, tmp := range tmps {
			os.Remove(tmp)
		}
		warnings = append(warnings, fmt.Sprintf("removed %d leftover snapshot temp file(s)", len(tmps)))
	}
	st.seq = snapSeq
	for _, s := range st.sequences() {
		if s > st.seq {
			st.seq = s
		}
	}

	state := make(map[string]Doc, len(docs))
	// parsed carries the schemas loadSnapshot already validated; a journal
	// put invalidates its name (the replayed document must be re-parsed).
	parsed := make(map[string]*model.Schema, len(docs))
	for _, l := range docs {
		state[l.Doc.Name] = l.Doc
		parsed[l.Doc.Name] = l.Schema
	}

	rec := &Recovery{SnapshotSeq: snapSeq, WALBase: snapSeq}
	bases := st.walSequences()
	torn := false
	for _, base := range bases {
		if base < snapSeq {
			// Superseded: every record is folded into the chosen snapshot.
			if rmErr := os.Remove(st.walPath(base)); rmErr == nil {
				warnings = append(warnings, fmt.Sprintf("deleted stale journal wal-%d (superseded by snapshot %d)", base, snapSeq))
			}
			continue
		}
		if torn {
			// A tear in an earlier journal ends the consistent prefix; a
			// later journal's records must not leapfrog the gap.
			os.Remove(st.walPath(base))
			warnings = append(warnings, fmt.Sprintf("deleted journal wal-%d beyond a torn predecessor", base))
			continue
		}
		recs, validEnd, corruption, serr := scanWAL(st.walPath(base))
		if serr != nil {
			return nil, fmt.Errorf("registry: scanning journal wal-%d: %w", base, serr)
		}
		for _, r := range recs {
			switch r.Op {
			case walOpPut:
				state[r.Name] = r.doc()
				delete(parsed, r.Name)
			case walOpDel:
				delete(state, r.Name)
				delete(parsed, r.Name)
			}
		}
		if corruption != "" {
			torn = true
			if err := os.Truncate(st.walPath(base), validEnd); err != nil {
				return nil, fmt.Errorf("registry: truncating torn journal tail: %w", err)
			}
			warnings = append(warnings, fmt.Sprintf("journal wal-%d: torn tail truncated to %d whole record(s) (%s)", base, len(recs), corruption))
		}
		rec.WALBase = base
		rec.WALRecords = len(recs)
		rec.WALBytes = validEnd
	}

	// Parse the surviving state. A document that fails to re-parse is a
	// defect the checksums cannot catch (it was journaled as-is); recovery
	// surfaces it as an error rather than silently dropping an
	// acknowledged registration.
	names := make([]string, 0, len(state))
	for name := range state {
		names = append(names, name)
	}
	sort.Strings(names)
	rec.Docs = make([]Loaded, 0, len(names))
	for _, name := range names {
		d := state[name]
		if metaDoc(d.Format) {
			// Metadata replays like any other record (last writer wins) but
			// is never parsed as a schema; the opener installs it.
			rec.Docs = append(rec.Docs, Loaded{Doc: d})
			continue
		}
		s, ok := parsed[name]
		if !ok {
			var perr error
			if s, perr = st.parse(d.Name, d.Format, []byte(d.Content)); perr != nil {
				return nil, fmt.Errorf("registry: re-parsing %q during recovery: %w", name, perr)
			}
		}
		rec.Docs = append(rec.Docs, Loaded{Doc: d, Schema: s})
	}
	rec.Warnings = warnings
	return rec, nil
}

// loadSnapshot reads and fully validates one snapshot generation.
func (st *Store) loadSnapshot(seq uint64) ([]Loaded, error) {
	f, err := os.Open(st.path(seq))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("empty snapshot")
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("decoding header: %w", err)
	}
	if hdr.Magic != snapshotMagic {
		return nil, fmt.Errorf("bad magic %q", hdr.Magic)
	}
	if hdr.Version != snapshotVersion {
		return nil, fmt.Errorf("%w %d (this build reads %d)", errSnapshotVersion, hdr.Version, snapshotVersion)
	}
	out := make([]Loaded, 0, hdr.Count)
	for i := 0; i < hdr.Count; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("torn snapshot: %d of %d records", i, hdr.Count)
		}
		var d Doc
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			return nil, fmt.Errorf("decoding record %d: %w", i, err)
		}
		if metaDoc(d.Format) {
			// Repository metadata (the corpus clustering) is carried, not
			// parsed: the opener validates and installs it separately.
			out = append(out, Loaded{Doc: d})
			continue
		}
		s, err := st.parse(d.Name, d.Format, []byte(d.Content))
		if err != nil {
			return nil, fmt.Errorf("%w %q: %v", errSnapshotDocParse, d.Name, err)
		}
		out = append(out, Loaded{Doc: d, Schema: s})
	}
	if !sc.Scan() {
		return nil, fmt.Errorf("torn snapshot: missing footer")
	}
	var ftr snapshotFooter
	if err := json.Unmarshal(sc.Bytes(), &ftr); err != nil {
		return nil, fmt.Errorf("decoding footer: %w", err)
	}
	if !ftr.EOF || ftr.Count != hdr.Count {
		return nil, fmt.Errorf("inconsistent footer (eof=%v count=%d, header count=%d)", ftr.EOF, ftr.Count, hdr.Count)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
