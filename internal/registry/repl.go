package registry

// WAL shipping: the replication substrate behind cupidd's /replicate
// endpoint. A primary keeps the current journal
// generation's records in an in-memory replay buffer (the replHub, fed by
// the group-commit loop after each fsync) and streams them to followers;
// each follower replays the records into its own Persistent registry —
// re-parsing exactly the source documents the primary journaled — so a
// caught-up follower's registry, index and rankings are byte-identical to
// the primary's.
//
// Catch-up is generation-aware. A follower presents the last position it
// applied (journal base generation + record count). If that position is
// still inside the primary's live buffer the stream resumes as a tail: a
// hello frame, then every record after the position. If the primary has
// compacted past it (or the follower is brand new, or ahead of a primary
// restored from older state) the stream opens with a resync instead: a
// hello frame announcing a full snapshot, the snapshot's documents, then
// the tail from the snapshot's position. Replay is last-writer-wins
// idempotent, so over-delivery around either boundary is harmless; a
// resync diff-applies (removing local names absent from the snapshot)
// so a diverged follower converges instead of accumulating ghosts.
//
// The wire format reuses the journal's frame codec (wal.go): a preamble
// ("CUPIDREP" + big-endian version), then length+CRC-framed JSON frames.
// A torn frame — the follower was killed, the connection dropped — is a
// clean disconnect at the last whole frame, never a partial application.
// docs/REPLICATION.md specifies the protocol; a conformance test decodes
// its worked example with this decoder.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"sort"
	"sync"
	"time"
)

const (
	replMagic   = "CUPIDREP"
	replVersion = 1
	// replHeaderSize is the stream preamble: 8 magic bytes + 4 version
	// bytes, mirroring the journal file preamble.
	replHeaderSize = len(replMagic) + 4
)

// Replication frame kinds. A stream is: hello, then (for a resync) the
// announced number of doc frames, then rec frames as mutations commit,
// with ping frames during idle stretches. A new hello may appear
// mid-stream when the primary compacts past a slow follower's position.
const (
	replKindHello = "hello"
	replKindDoc   = "doc"
	replKindRec   = "rec"
	replKindPing  = "ping"
)

// ReplPos is a position in the primary's journal history: the snapshot
// generation its live journal is based on, plus how many records of that
// journal have been applied. Positions are totally ordered lexicographic
// on (Base, Records); compaction bumps Base and resets Records.
type ReplPos struct {
	// Base is the snapshot generation the live journal is based on.
	Base uint64 `json:"base"`
	// Records is how many records of that journal have been applied.
	Records int `json:"records"`
}

// Before reports whether p is strictly earlier than o.
func (p ReplPos) Before(o ReplPos) bool {
	if p.Base != o.Base {
		return p.Base < o.Base
	}
	return p.Records < o.Records
}

// String renders the position as "base/records" for logs and probes.
func (p ReplPos) String() string { return fmt.Sprintf("%d/%d", p.Base, p.Records) }

// replFrame is one JSON frame on the replication stream.
type replFrame struct {
	Kind string `json:"kind"`
	// Pos is the position this frame advances the follower to: for a
	// hello, where the stream (tail or snapshot) starts; for a rec, the
	// position after applying it; for a ping, the primary's current
	// position (pure lag information, nothing to apply).
	Pos ReplPos `json:"pos"`
	// Horizon (hello only) is the primary's position at connect time —
	// the catch-up target: a follower is caught up once it has applied
	// through it. A pointer so non-hello frames omit it on the wire
	// (omitempty never elides a struct value).
	Horizon *ReplPos `json:"horizon,omitempty"`
	// Resync (hello only) announces a full snapshot transfer: Docs doc
	// frames follow before the record tail, and the follower must drop
	// local names the snapshot does not carry.
	Resync bool `json:"resync,omitempty"`
	Docs   int  `json:"docs,omitempty"`
	// Doc carries one snapshot document (kind "doc").
	Doc *Doc `json:"doc,omitempty"`
	// Rec carries one journaled mutation (kind "rec").
	Rec *walRecord `json:"rec,omitempty"`
}

// appendReplHeader appends the stream preamble to buf.
func appendReplHeader(buf []byte) []byte {
	buf = append(buf, replMagic...)
	return binary.BigEndian.AppendUint32(buf, replVersion)
}

// encodeReplFrame encodes one frame with the shared journal framing.
func encodeReplFrame(buf []byte, f replFrame) ([]byte, error) {
	payload, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("registry: encoding replication frame: %w", err)
	}
	if len(payload) > walMaxPayload {
		return nil, fmt.Errorf("registry: replication frame is %d bytes, beyond the %d-byte limit", len(payload), walMaxPayload)
	}
	return appendFrame(buf, payload), nil
}

// decodeReplFrame decodes one frame from b, returning the frame and the
// bytes consumed — the symmetric in-memory decoder the doc-conformance
// test drives against docs/REPLICATION.md's worked example.
func decodeReplFrame(b []byte) (replFrame, int, error) {
	var f replFrame
	payload, size, err := decodeFrame(b)
	if err != nil {
		return f, 0, err
	}
	if err := json.Unmarshal(payload, &f); err != nil {
		return f, 0, fmt.Errorf("decoding frame payload: %w", err)
	}
	switch f.Kind {
	case replKindHello, replKindDoc, replKindRec, replKindPing:
	default:
		return f, 0, fmt.Errorf("unknown frame kind %q", f.Kind)
	}
	return f, size, nil
}

// readReplFrame reads one frame from the stream. io.EOF at a frame
// boundary means the stream ended cleanly; a cut anywhere inside a frame
// surfaces as io.ErrUnexpectedEOF (and a corrupted frame as a checksum
// error) — in every case nothing partial escapes.
func readReplFrame(r io.Reader) (replFrame, error) {
	var hdr [walFrameSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return replFrame{}, io.EOF
		}
		return replFrame{}, fmt.Errorf("registry: replication stream cut mid-frame: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > walMaxPayload {
		return replFrame{}, fmt.Errorf("registry: replication frame claims implausible %d-byte payload", n)
	}
	buf := make([]byte, walFrameSize+int(n))
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[walFrameSize:]); err != nil {
		return replFrame{}, fmt.Errorf("registry: replication stream cut mid-frame: %w", err)
	}
	f, _, err := decodeReplFrame(buf)
	if err != nil {
		return replFrame{}, fmt.Errorf("registry: replication frame: %w", err)
	}
	return f, nil
}

// replHub is the primary-side fan-out point: the current journal
// generation's committed records, kept in memory (bounded by the
// compaction threshold — once the journal rotates, the buffer rebases and
// empties), plus wake-up channels for the streamers tailing it. The
// group-commit loop publishes records only after their fsync succeeded,
// so a follower can never observe a mutation the primary might lose.
type replHub struct {
	mu   sync.Mutex
	base uint64
	recs []walRecord
	subs map[chan struct{}]struct{}
}

func newReplHub(base uint64, recs []walRecord) *replHub {
	return &replHub{
		base: base,
		recs: append([]walRecord(nil), recs...),
		subs: make(map[chan struct{}]struct{}),
	}
}

// pos is the hub's current position.
func (h *replHub) pos() ReplPos {
	h.mu.Lock()
	defer h.mu.Unlock()
	return ReplPos{Base: h.base, Records: len(h.recs)}
}

// publish appends freshly fsynced records; committer goroutine only.
func (h *replHub) publish(recs []walRecord) {
	h.mu.Lock()
	h.recs = append(h.recs, recs...)
	h.notifyLocked()
	h.mu.Unlock()
}

// rotate rebases the buffer onto a fresh journal generation (compaction
// folded the old one into a snapshot); committer goroutine only.
func (h *replHub) rotate(base uint64) {
	h.mu.Lock()
	h.base = base
	h.recs = h.recs[:0:0]
	h.notifyLocked()
	h.mu.Unlock()
}

func (h *replHub) notifyLocked() {
	for ch := range h.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (h *replHub) subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	h.mu.Lock()
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch
}

func (h *replHub) unsubscribe(ch chan struct{}) {
	h.mu.Lock()
	delete(h.subs, ch)
	h.mu.Unlock()
}

// after returns a copy of the records past cur plus the hub's current
// position. ok is false when cur is not a resumable point of the live
// generation — it predates the buffer (compacted away), follows a
// different base, or lies beyond what this primary ever wrote — and the
// caller must fall back to a snapshot resync.
func (h *replHub) after(cur ReplPos) (recs []walRecord, pos ReplPos, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	pos = ReplPos{Base: h.base, Records: len(h.recs)}
	if cur.Base != h.base || cur.Records > len(h.recs) {
		return nil, pos, false
	}
	return append([]walRecord(nil), h.recs[cur.Records:]...), pos, true
}

// ReplicationPos reports the primary's current replication position (the
// live journal generation and its committed record count).
func (p *Persistent) ReplicationPos() ReplPos { return p.hub.pos() }

// replSnapshot captures a consistent resync payload: the hub position
// first, then the document set — the set is at least as new as the
// position, so a follower that applies the snapshot and tails from the
// position can only re-apply (idempotent), never miss.
func (p *Persistent) replSnapshot() (ReplPos, []Doc) {
	pos := p.hub.pos()
	p.mu.Lock()
	docs := make([]Doc, 0, len(p.docs))
	for _, d := range p.docs {
		docs = append(docs, d)
	}
	p.mu.Unlock()
	sort.Slice(docs, func(i, j int) bool { return docs[i].Name < docs[j].Name })
	return pos, docs
}

// errFlusher matches bufio.Writer; flusher matches http.Flusher (via the
// thin adapters callers wrap ResponseWriters in).
type errFlusher interface{ Flush() error }
type flusher interface{ Flush() }

func flushStream(w io.Writer) error {
	switch f := w.(type) {
	case errFlusher:
		return f.Flush()
	case flusher:
		f.Flush()
	}
	return nil
}

// StreamReplication serves one follower: it writes the preamble, a hello
// (tail resume when from is still in the live buffer, snapshot resync
// otherwise), and then record frames as mutations commit, heartbeat pings
// when idle, until ctx is canceled or the writer fails. If w implements
// Flush (http.Flusher-style or bufio-style) it is flushed after every
// burst so followers see records at commit latency. The error reports why
// the stream ended; a canceled ctx returns nil (normal disconnect).
func (p *Persistent) StreamReplication(ctx context.Context, w io.Writer, from ReplPos, heartbeat time.Duration) error {
	err := p.streamReplication(ctx, w, from, heartbeat)
	if err != nil && ctx.Err() != nil {
		// A canceled stream's writer fails however the disconnect lands;
		// the cancellation is the real (normal) reason.
		return nil
	}
	return err
}

func (p *Persistent) streamReplication(ctx context.Context, w io.Writer, from ReplPos, heartbeat time.Duration) error {
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	notify := p.hub.subscribe()
	defer p.hub.unsubscribe(notify)

	if _, err := w.Write(appendReplHeader(nil)); err != nil {
		return err
	}
	writeFrames := func(frames ...replFrame) error {
		var buf []byte
		for _, f := range frames {
			next, err := encodeReplFrame(buf, f)
			if err != nil {
				return err
			}
			buf = next
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
		return flushStream(w)
	}
	// resync ships a hello + full snapshot and returns the position the
	// tail resumes from.
	resync := func() (ReplPos, error) {
		pos, docs := p.replSnapshot()
		frames := make([]replFrame, 0, len(docs)+1)
		frames = append(frames, replFrame{Kind: replKindHello, Pos: pos, Horizon: &pos, Resync: true, Docs: len(docs)})
		for i := range docs {
			frames = append(frames, replFrame{Kind: replKindDoc, Pos: pos, Doc: &docs[i]})
		}
		return pos, writeFrames(frames...)
	}

	cur := from
	if _, pos, ok := p.hub.after(from); ok {
		if err := writeFrames(replFrame{Kind: replKindHello, Pos: from, Horizon: &pos}); err != nil {
			return err
		}
	} else {
		pos, err := resync()
		if err != nil {
			return err
		}
		cur = pos
	}

	beat := time.NewTicker(heartbeat)
	defer beat.Stop()
	for {
		recs, pos, ok := p.hub.after(cur)
		switch {
		case !ok:
			// The live generation rotated past this follower mid-stream;
			// fall back to a fresh snapshot on the same connection.
			next, err := resync()
			if err != nil {
				return err
			}
			cur = next
			continue
		case len(recs) > 0:
			frames := make([]replFrame, 0, len(recs))
			for i := range recs {
				frames = append(frames, replFrame{
					Kind: replKindRec,
					Pos:  ReplPos{Base: pos.Base, Records: cur.Records + i + 1},
					Rec:  &recs[i],
				})
			}
			if err := writeFrames(frames...); err != nil {
				return err
			}
			cur = pos
			continue
		}
		select {
		case <-ctx.Done():
			return nil
		case <-notify:
		case <-beat.C:
			if err := writeFrames(replFrame{Kind: replKindPing, Pos: cur}); err != nil {
				return err
			}
		}
	}
}

// ReplStatus is a point-in-time view of a follower's progress, consumed
// by cupidd's /readyz (catching_up) and the integration tests.
type ReplStatus struct {
	// Pos is the last position the follower fully applied.
	Pos ReplPos
	// Horizon is the catch-up target announced by the latest hello.
	Horizon ReplPos
	// Primary is the primary's most recently observed position (advanced
	// by pings and records) — Primary minus Pos is the live lag.
	Primary ReplPos
	// CaughtUp reports that Pos has reached Horizon: the follower has
	// applied everything the primary had when the stream opened.
	CaughtUp bool
	// Resyncs counts full snapshot transfers (1 for a fresh follower;
	// more mean the primary compacted past this follower mid-life).
	Resyncs int
	// Frames counts every frame applied or observed on the stream.
	Frames int
}

// ReplState is the shared, concurrency-safe follower status cell: the
// apply loop writes it, readiness probes read it.
type ReplState struct {
	mu sync.Mutex
	st ReplStatus
}

// Status returns a snapshot of the follower's progress.
func (s *ReplState) Status() ReplStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

func (s *ReplState) update(f func(*ReplStatus)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	f(&s.st)
	if !s.st.Pos.Before(s.st.Horizon) {
		s.st.CaughtUp = true
	}
	s.mu.Unlock()
}

// ApplyReplication consumes one replication stream, replaying it into
// this registry: snapshot documents and put records re-register the
// journaled source documents (idempotent by fingerprint), del records
// remove, and a resync hello diff-applies — local names absent from the
// snapshot are removed — so a diverged or stale follower converges to
// exactly the primary's document set. state (optional) is kept current
// for readiness probes; onAdvance (optional) fires after each applied
// position becomes locally durable — the caller checkpoints it so a
// restart can resume as a tail.
//
// The stream ending cleanly (EOF at a frame boundary) returns nil; a cut
// mid-frame, a checksum mismatch, or a record that cannot be applied
// returns the reason. Nothing partial is ever applied: a record either
// fully commits (locally journaled) before its position is reported, or
// the stream stops at the previous record.
func (p *Persistent) ApplyReplication(ctx context.Context, r io.Reader, state *ReplState, onAdvance func(ReplPos)) error {
	var hdr [replHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("registry: reading replication preamble: %w", err)
	}
	if string(hdr[:len(replMagic)]) != replMagic {
		return fmt.Errorf("registry: not a replication stream (bad magic)")
	}
	if v := binary.BigEndian.Uint32(hdr[len(replMagic):]); v != replVersion {
		return fmt.Errorf("registry: unsupported replication stream version %d (this build speaks %d)", v, replVersion)
	}
	advance := func(pos ReplPos) {
		state.update(func(st *ReplStatus) {
			st.Pos = pos
			if st.Primary.Before(pos) {
				st.Primary = pos
			}
			st.Frames++
		})
		if onAdvance != nil {
			onAdvance(pos)
		}
	}
	for {
		f, err := readReplFrame(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil {
				// The caller hung up; the transport error is just how the
				// disconnect surfaced.
				return nil
			}
			return err
		}
		switch f.Kind {
		case replKindHello:
			horizon := f.Pos
			if f.Horizon != nil {
				horizon = *f.Horizon
			}
			state.update(func(st *ReplStatus) {
				st.Horizon = horizon
				if st.Primary.Before(horizon) {
					st.Primary = horizon
				}
				if !f.Resync && st.Pos.Before(f.Pos) {
					// A tail hello resumes from the follower's own
					// checkpoint: everything through it is already applied.
					st.Pos = f.Pos
				}
				st.CaughtUp = false
				st.Frames++
				if f.Resync {
					st.Resyncs++
				}
			})
			if !f.Resync {
				continue
			}
			docs := make([]Doc, 0, f.Docs)
			for i := 0; i < f.Docs; i++ {
				df, err := readReplFrame(r)
				if err != nil {
					return fmt.Errorf("registry: replication snapshot cut after %d of %d documents: %w", i, f.Docs, err)
				}
				if df.Kind != replKindDoc || df.Doc == nil {
					return fmt.Errorf("registry: replication snapshot expected a doc frame, got %q", df.Kind)
				}
				docs = append(docs, *df.Doc)
			}
			if err := p.applyResync(docs); err != nil {
				return err
			}
			advance(f.Pos)
		case replKindDoc:
			return fmt.Errorf("registry: unexpected doc frame outside a snapshot transfer")
		case replKindRec:
			if f.Rec == nil {
				return fmt.Errorf("registry: rec frame without a record")
			}
			if err := p.applyReplRecord(*f.Rec); err != nil {
				return err
			}
			advance(f.Pos)
		case replKindPing:
			state.update(func(st *ReplStatus) {
				if st.Primary.Before(f.Pos) {
					st.Primary = f.Pos
				}
				st.Frames++
			})
		}
	}
}

// applyResync makes the local document set exactly the snapshot's:
// removes names the snapshot does not carry, then (re-)registers every
// snapshot document. Re-registering durable identical content is a no-op.
func (p *Persistent) applyResync(docs []Doc) error {
	keep := make(map[string]bool, len(docs))
	for _, d := range docs {
		keep[d.Name] = true
	}
	for _, e := range p.Registry.List() {
		if !keep[e.Name] {
			if _, err := p.Remove(e.Name); err != nil {
				return fmt.Errorf("registry: resync removing %q: %w", e.Name, err)
			}
		}
	}
	for _, d := range docs {
		if legacyClustering(d.Format) {
			skipLegacyClustering(d.Name)
			continue
		}
		if _, _, err := p.RegisterSourceInstances(d.Name, d.Format, []byte(d.Content), []byte(d.Instances)); err != nil {
			return fmt.Errorf("registry: resync applying %q: %w", d.Name, err)
		}
	}
	return nil
}

// skipLegacyClustering logs the one warning for a corpus clustering
// record received from an older primary; the caller skips the record and
// still advances its position past it.
func skipLegacyClustering(name string) {
	log.Printf("registry: replication: skipping legacy corpus clustering record %q", name)
}

// applyReplRecord replays one shipped journal record.
func (p *Persistent) applyReplRecord(rec walRecord) error {
	switch rec.Op {
	case walOpPut:
		if legacyClustering(rec.Format) {
			skipLegacyClustering(rec.Name)
			return nil
		}
		if _, _, err := p.RegisterSourceInstances(rec.Name, rec.Format, []byte(rec.Content), []byte(rec.Instances)); err != nil {
			return fmt.Errorf("registry: replaying replicated put %q: %w", rec.Name, err)
		}
	case walOpDel:
		if _, err := p.Remove(rec.Name); err != nil {
			return fmt.Errorf("registry: replaying replicated del %q: %w", rec.Name, err)
		}
	default:
		return fmt.Errorf("registry: replicated record has unknown op %q", rec.Op)
	}
	return nil
}
