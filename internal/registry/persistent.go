package registry

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/model"
)

// Persistent is a Registry whose contents survive restarts. It embeds the
// in-memory Registry — matching (Match, MatchAll, Get, List) is served
// straight from memory at the same cost — and makes every mutation's
// source document durable through a write-ahead journal: each
// Register/Replace/Remove appends one checksummed, length-prefixed record.
// A group-commit loop batches concurrent writers into a single fsync —
// write cost is O(record), not O(corpus) — and a background compactor
// folds the journal tail into a fresh snapshot generation once it passes
// a size/record threshold. An acknowledged mutation is on disk.
//
// Recovery (Store.Recover) restores the newest consistent snapshot and
// replays the ordered journal tail on top of it; a snapshot-only data
// directory is simply a base generation with no tail. docs/PERSISTENCE.md
// specifies the on-disk formats, fsync points and crash matrix.
//
// Mutations are serialized by an internal lock so the persisted document
// set can never disagree with the in-memory registry; reads and matching
// never take that lock. The lock covers only the in-memory commit and the
// journal enqueue — the fsync wait happens outside it, which is what lets
// concurrent writers share one disk barrier. After Close every mutation
// fails; reads keep serving the in-memory state.
type Persistent struct {
	*Registry
	store *Store
	opts  PersistOptions

	mu      sync.Mutex // serializes mutations + snapshot/journal state
	docs    map[string]Doc
	closed  bool
	pending []walReq // records awaiting the next group commit
	// unjournaled marks names whose latest in-memory mutation has not
	// been confirmed durable yet (the record is in flight or its commit
	// failed). An idempotent re-registration (or a Remove of an absent
	// name) consults it and re-journals instead of acknowledging —
	// otherwise a client retrying a failed mutation would get success
	// while nothing ever reached the journal. A confirmed commit clears
	// its own marker only (generation-matched, so a stale waiter can
	// never erase a newer in-flight mutation's marker), which keeps the
	// common idempotent re-register of durable content a free no-op.
	unjournaled map[string]pendingMark
	// markGen stamps each mutation's marker; bumped under mu.
	markGen uint64

	kick       chan struct{} // signals the committer that pending is non-empty
	stop       chan struct{}
	wg         sync.WaitGroup // the group-commit committer
	compacting atomic.Bool    // one background compaction at a time
	compactWG  sync.WaitGroup

	wal *walFile // owned by the committer once it starts
	// hub fans committed journal records out to replication followers
	// (repl.go). The committer publishes each batch after its fsync and
	// rebases the hub when compaction rotates the journal.
	hub *replHub

	closeOnce sync.Once
	closeErr  error

	errMu   sync.Mutex
	saveErr error // first background persistence failure, surfaced on Close
}

// walReq is one writer waiting for its record to become durable: the
// group-commit loop appends rec and delivers the fsync outcome on done.
type walReq struct {
	rec  walRecord
	done chan error
}

// pendingMark is one name's unconfirmed mutation: which generation of
// mutation it is (monotonic across all names) and what kind. The
// invariant, maintained under p.mu: a put marker exists only while
// p.docs holds the name, a del marker only while it does not.
type pendingMark struct {
	gen uint64
	op  string // walOpPut or walOpDel
}

// PersistOptions tunes the write-ahead journal's compaction; the zero
// value takes the default thresholds (DefaultPersistOptions spells them
// out). Group commit needs no tuning: every record queued while the
// previous fsync was in flight shares the next one.
type PersistOptions struct {
	// CompactBytes triggers background compaction: once the live journal
	// reaches this many bytes, its tail is folded into a new snapshot
	// generation. Zero takes the default (1 MiB).
	CompactBytes int64
	// CompactRecords is the record-count compaction trigger, reached
	// first on corpora of tiny documents. Zero takes the default (4096).
	CompactRecords int
}

// DefaultCompactBytes and DefaultCompactRecords are the compaction
// thresholds used when PersistOptions leaves them zero.
const (
	DefaultCompactBytes   = 1 << 20
	DefaultCompactRecords = 4096
)

// DefaultPersistOptions is the journal with the default compaction
// thresholds — the configuration cupidd runs unless flagged otherwise.
func DefaultPersistOptions() PersistOptions {
	return PersistOptions{CompactBytes: DefaultCompactBytes, CompactRecords: DefaultCompactRecords}
}

// normalized fills zero and negative thresholds with the defaults.
func (o PersistOptions) normalized() PersistOptions {
	if o.CompactBytes <= 0 {
		o.CompactBytes = DefaultCompactBytes
	}
	if o.CompactRecords <= 0 {
		o.CompactRecords = DefaultCompactRecords
	}
	return o
}

// OpenPersistentOptions opens the data directory, recovers the repository
// (newest consistent snapshot + ordered journal tail replay) into a fresh
// registry around the given matcher, and returns the durable registry
// with its group-commit loop running. Warnings describe everything
// recovery skipped, truncated or deleted (e.g. a torn journal tail). A nil
// parse restricts persisted documents to the native "json" format.
//
// A snapshot-only data directory is a valid generation: the newest
// snapshot becomes the journal's base generation, and a fresh
// wal-<seq>.log opened beside it receives the first mutation.
func OpenPersistentOptions(dir string, m *core.Matcher, opts PersistOptions, parse ParseFunc) (p *Persistent, warnings []string, err error) {
	st, err := OpenStore(dir, parse)
	if err != nil {
		return nil, nil, err
	}
	rec, err := st.Recover()
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	p = &Persistent{
		Registry:    NewWithMatcher(m),
		store:       st,
		opts:        opts.normalized(),
		docs:        make(map[string]Doc, len(rec.Docs)),
		unjournaled: make(map[string]pendingMark),
		kick:        make(chan struct{}, 1),
		stop:        make(chan struct{}),
	}
	for _, l := range rec.Docs {
		// Recover the sampled-instances payload, when the document carries
		// one, so restored entries rebuild the same value profiles (and
		// the same profile-suffixed fingerprints) the primary registered
		// with. A payload that no longer parses is dropped with a warning
		// rather than failing recovery — the schema itself is still good.
		var samples instance.Samples
		if l.Doc.Instances != "" {
			var serr error
			samples, serr = instance.ParseSamples([]byte(l.Doc.Instances))
			if serr != nil {
				rec.Warnings = append(rec.Warnings, fmt.Sprintf("dropping instance payload of %q: %v", l.Doc.Name, serr))
			}
		}
		e, _, err := p.Registry.RegisterInstances(l.Doc.Name, l.Schema, samples)
		if err != nil {
			st.Close()
			return nil, rec.Warnings, fmt.Errorf("registry: restoring %q: %w", l.Doc.Name, err)
		}
		// Keep the original document; refresh the fingerprint to the one
		// the restored entry actually carries (identical for source-doc
		// registrations, normalized once for native-JSON fallbacks).
		d := l.Doc
		d.Fingerprint = e.Fingerprint
		p.docs[e.Name] = d
	}
	w, err := st.openWAL(rec.WALBase, rec.WALRecords)
	if err != nil {
		st.Close()
		return nil, rec.Warnings, err
	}
	p.wal = w
	// Prime the replication replay buffer with the live journal's
	// recovered records, so a follower whose checkpoint predates this
	// restart can still resume as a tail instead of a full resync.
	var primed []walRecord
	if rec.WALRecords > 0 {
		if recs, _, _, err := scanWAL(st.walPath(rec.WALBase)); err == nil {
			primed = recs
		}
	}
	p.hub = newReplHub(rec.WALBase, primed)
	p.wg.Add(1)
	go p.committer()
	return p, rec.Warnings, nil
}

// committer is the WAL group-commit loop: the journal's only writer. Each
// round it takes every record queued so far — everything that arrived
// while the previous round's fsync was in flight — appends them as
// one write + one fsync, acknowledges every waiter with the outcome, and
// triggers compaction when the journal has outgrown its threshold.
func (p *Persistent) committer() {
	defer p.wg.Done()
	for {
		stopping := false
		select {
		case <-p.kick:
		case <-p.stop:
			stopping = true
		}
		p.commitPending()
		if stopping {
			// Close set closed (rejecting new enqueues) before closing
			// stop, so the drain above was complete: every acknowledged
			// waiter has its outcome and the journal is quiescent.
			return
		}
	}
}

// commitPending performs one group commit: swap out the queue, append
// the batch in one write + fsync, deliver the shared outcome to every
// batched writer. Records are encoded one by one so a record that cannot
// be encoded (e.g. beyond the record size limit) fails only its own
// writer — the rest of the batch still commits.
func (p *Persistent) commitPending() {
	p.mu.Lock()
	batch := p.pending
	p.pending = nil
	p.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	buf := make([]byte, 0, 256*len(batch))
	good := batch[:0]
	for _, r := range batch {
		next, err := appendWALRecord(buf, r.rec)
		if err != nil {
			r.done <- err
			continue
		}
		buf = next
		good = append(good, r)
	}
	if len(good) == 0 {
		return
	}
	err := p.wal.appendEncoded(buf, len(good))
	if err != nil {
		p.noteErr(err)
	}
	if err == nil {
		// Publish to replication followers only after the fsync: a
		// follower must never see a record the primary could still lose.
		recs := make([]walRecord, len(good))
		for i, r := range good {
			recs[i] = r.rec
		}
		p.hub.publish(recs)
	}
	for _, r := range good {
		r.done <- err
	}
	if err == nil {
		p.maybeCompact()
	}
}

// maybeCompact rotates the journal and folds its tail into a new snapshot
// generation once a threshold is passed. The rotation (cheap: create the
// next journal, swap the committer's handle) happens inline so record
// order is never split across an ambiguous boundary; the expensive part —
// writing the snapshot — runs in a background goroutine, so writers keep
// committing into the fresh journal meanwhile. Runs on the committer
// goroutine only.
//
// Crash-ordering: the new journal exists before the snapshot that
// supersedes the old one, so recovery always finds either (old snapshot +
// both journal tails) or (new snapshot + new tail) — never a gap. See
// docs/PERSISTENCE.md's crash matrix.
func (p *Persistent) maybeCompact() {
	if p.wal.size < p.opts.CompactBytes && p.wal.records < p.opts.CompactRecords {
		return
	}
	if !p.compacting.CompareAndSwap(false, true) {
		return // previous compaction still writing its snapshot
	}
	newBase := p.wal.base + 1
	nw, err := p.store.openWAL(newBase, 0)
	if err != nil {
		p.noteErr(fmt.Errorf("registry: rotating journal: %w", err))
		p.compacting.Store(false)
		return
	}
	old := p.wal
	p.wal = nw
	old.Close()
	// Rebase the replication buffer: followers tailing the old generation
	// fall back to a snapshot resync, exactly as a follower reconnecting
	// after the compaction would.
	p.hub.rotate(newBase)
	// The document set to fold: copied under the mutation lock *after* the
	// rotation, so it covers every record in the old journal (their
	// in-memory commits happened before their enqueue, which happened
	// before the committer appended them, which happened before now).
	// Records already queued for the new journal may also be included —
	// replay is last-writer-wins, so re-applying them is a no-op.
	p.mu.Lock()
	docs := make([]Doc, 0, len(p.docs))
	for _, d := range p.docs {
		docs = append(docs, d)
	}
	p.mu.Unlock()
	p.compactWG.Add(1)
	go func() {
		defer p.compactWG.Done()
		defer p.compacting.Store(false)
		// SaveAt also prunes snapshots beyond the retained window and the
		// journals they supersede; the old journal is deleted only once a
		// newer retained snapshot covers it.
		if err := p.store.SaveAt(newBase, docs); err != nil {
			p.noteErr(fmt.Errorf("registry: compaction: %w", err))
		}
	}()
}

func (p *Persistent) noteErr(err error) {
	p.errMu.Lock()
	if p.saveErr == nil {
		p.saveErr = err
	}
	p.errMu.Unlock()
}

// Doc returns the persisted source document registered under name — the
// exact bytes a restart (or a replication follower) re-parses. The
// cluster router uses it to resolve a by-name batch source into an
// inline document it can scatter to every shard.
func (p *Persistent) Doc(name string) (Doc, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.docs[name]
	return d, ok
}

// Compacting reports whether a background journal compaction is
// currently folding the journal tail into a new snapshot generation. The
// server's readiness probe consults it: a replica still writing its
// compaction snapshot is serving but not yet a clean handoff point.
func (p *Persistent) Compacting() bool { return p.compacting.Load() }

// Err returns the first background persistence failure, if any: a
// compaction or a group-commit append (which every batched writer also
// received synchronously).
func (p *Persistent) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.saveErr
}

// enqueueLocked queues one journal record for the next group commit and
// wakes the committer; callers hold p.mu and wait on the returned channel
// for the fsync outcome after releasing it.
func (p *Persistent) enqueueLocked(rec walRecord) chan error {
	done := make(chan error, 1)
	p.pending = append(p.pending, walReq{rec: rec, done: done})
	select {
	case p.kick <- struct{}{}:
	default:
	}
	return done
}

// errClosed is returned by mutations after Close.
func errClosed() error { return fmt.Errorf("registry: persistent registry is closed") }

// RegisterSource parses a source document and registers the schema under
// the given name (the schema's own name when empty), persisting the
// document bytes verbatim so a restart re-parses exactly what was
// registered. This is the durable path the cupidd server uses.
func (p *Persistent) RegisterSource(name, format string, content []byte) (*Entry, bool, error) {
	return p.RegisterSourceInstances(name, format, content, nil)
}

// RegisterSourceInstances is RegisterSource with an optional sampled
// instance payload (internal/instance JSON form). The instance bytes are
// journaled alongside the source document, so a restart — and every
// replication follower — rebuilds the same value profiles the primary
// registered with. Empty instances degrade to plain RegisterSource.
func (p *Persistent) RegisterSourceInstances(name, format string, content, instances []byte) (*Entry, bool, error) {
	s, err := p.store.parse(name, format, content)
	if err != nil {
		return nil, false, err
	}
	var samples instance.Samples
	if len(instances) > 0 {
		samples, err = instance.ParseSamples(instances)
		if err != nil {
			return nil, false, fmt.Errorf("registry: instances for %q: %w", name, err)
		}
	}
	return p.register(name, s, samples, func(e *Entry) (Doc, error) {
		return Doc{Name: e.Name, Fingerprint: e.Fingerprint, Format: format, Content: string(content), Instances: string(instances)}, nil
	})
}

// Register registers an in-memory schema graph, persisting its native JSON
// serialization. See Store: the first reload of such an entry may
// normalize its fingerprint; registering via RegisterSource avoids that.
func (p *Persistent) Register(name string, s *model.Schema) (*Entry, bool, error) {
	return p.register(name, s, nil, func(e *Entry) (Doc, error) {
		b, err := e.Prepared.Schema().MarshalJSON()
		if err != nil {
			return Doc{}, fmt.Errorf("registry: serializing %q for persistence: %w", e.Name, err)
		}
		return Doc{Name: e.Name, Fingerprint: e.Fingerprint, Format: "json", Content: string(b)}, nil
	})
}

func (p *Persistent) register(name string, s *model.Schema, samples instance.Samples, doc func(*Entry) (Doc, error)) (*Entry, bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, errClosed()
	}
	e, created, err := p.Registry.RegisterInstances(name, s, samples)
	if err != nil {
		p.mu.Unlock()
		return nil, false, err
	}
	if !created {
		if cur, ok := p.docs[e.Name]; ok {
			// Idempotent re-registration: free when the content is
			// confirmed durable. A pending marker means the original
			// commit failed or is still in flight, and an acknowledgment
			// re-promises durability — so this is the retry that must land
			// a fresh record first (replay dedups duplicates
			// last-writer-wins).
			if _, pending := p.unjournaled[e.Name]; !pending {
				p.mu.Unlock()
				return e, false, nil
			}
			return e, false, p.journalPutLocked(cur, "re-registered")
		}
	}
	d, err := doc(e)
	if err != nil {
		p.mu.Unlock()
		return e, created, err
	}
	p.docs[e.Name] = d
	return e, created, p.journalPutLocked(d, "registered")
}

// markLocked stamps a fresh unconfirmed-mutation marker for name;
// callers hold p.mu.
func (p *Persistent) markLocked(name, op string) pendingMark {
	p.markGen++
	mark := pendingMark{gen: p.markGen, op: op}
	p.unjournaled[name] = mark
	return mark
}

// clearMark removes name's marker if — and only if — it is still this
// exact mutation's: a later mutation of the name overwrote the marker
// with a higher generation, and a stale waiter confirming an older
// record must not erase the newer mutation's durability debt.
func (p *Persistent) clearMark(name string, mark pendingMark) {
	p.mu.Lock()
	if cur, ok := p.unjournaled[name]; ok && cur.gen == mark.gen {
		delete(p.unjournaled, name)
	}
	p.mu.Unlock()
}

// journalPutLocked commits one put record: marker raised, record
// enqueued, lock released, fsync outcome awaited. The caller holds p.mu
// on entry; it is released on every path. The in-memory commit and the
// enqueue share the critical section (so journal order always equals
// commit order), but the fsync wait happens outside it — concurrent
// writers batch into one group commit. A failed commit leaves the marker
// standing, so the mutation stays flagged as undurable until a retry
// confirms a fresh record.
func (p *Persistent) journalPutLocked(d Doc, verb string) error {
	mark := p.markLocked(d.Name, walOpPut)
	done := p.enqueueLocked(putRecord(d))
	p.mu.Unlock()
	if err := <-done; err != nil {
		return fmt.Errorf("registry: %s %q but journaling failed: %w", verb, d.Name, err)
	}
	p.clearMark(d.Name, mark)
	return nil
}

// Remove deletes the entry and persists the removal, reporting whether the
// entry existed.
func (p *Persistent) Remove(name string) (bool, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false, errClosed()
	}
	existed := p.Registry.Remove(name)
	if existed {
		delete(p.docs, name)
	}
	// Journal the deletion if the entry existed now, or if an
	// earlier removal of this name is not yet confirmed durable — a
	// retried Remove must land the del record before "already gone" can
	// be an acknowledgment. The marker is stamped pessimistically before
	// the commit (superseding any unconfirmed put of the name) and
	// cleared only generation-matched on a confirmed one, so a concurrent
	// Remove racing an in-flight del also waits for real durability.
	if !existed {
		if cur, ok := p.unjournaled[name]; !ok || cur.op != walOpDel {
			p.mu.Unlock()
			return false, nil
		}
	}
	mark := p.markLocked(name, walOpDel)
	done := p.enqueueLocked(delRecord(name))
	p.mu.Unlock()
	if err := <-done; err != nil {
		return existed, fmt.Errorf("registry: removed %q but journaling failed: %w", name, err)
	}
	p.clearMark(name, mark)
	return existed, nil
}

// Close makes the registry stop persisting and reports the first
// persistence failure, if any. It is idempotent and safe to call
// concurrently: every call returns the same outcome, after the shutdown
// fully completed. The sequence drains, in order: new mutations are
// rejected, the group-commit committer finishes its in-flight work and
// exits, any in-flight compaction completes, the journal is closed, and
// the data directory lock is released (another process may open it). The registry remains
// readable in memory after Close; mutations fail.
func (p *Persistent) Close() error {
	p.closeOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.stop)
		p.wg.Wait()
		p.compactWG.Wait()
		if err := p.wal.Close(); err != nil && !p.wal.failed {
			p.noteErr(fmt.Errorf("registry: closing journal: %w", err))
		}
		if err := p.store.Close(); err != nil {
			p.noteErr(fmt.Errorf("registry: releasing data dir lock: %w", err))
		}
		p.closeErr = p.Err()
	})
	return p.closeErr
}
