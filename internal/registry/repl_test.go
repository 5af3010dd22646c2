package registry

// Replication substrate tests: live WAL shipping over a pipe, snapshot
// resync for stale and diverged followers, mid-stream resync across a
// compaction rotation, and the fault-injection sweep — the follower
// killed at (and inside) every frame boundary of a captured stream, then
// restarted from its checkpoint — asserting convergence to rankings
// byte-identical to the primary's. The sweep is the streaming counterpart
// of crashinject_test.go's journal sweep.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/core"
)

// replMatcher builds the shared matcher for replication tests.
func replMatcher(t *testing.T) *core.Matcher {
	t.Helper()
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// openRepl opens a durable registry on the shared test matcher (so
// rankings of primary, follower and oracle are directly comparable).
func openRepl(t *testing.T, m *core.Matcher, dir string, opts PersistOptions) *Persistent {
	t.Helper()
	p, warns, err := OpenPersistentOptions(dir, m, opts, storeParse)
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 0 {
		t.Fatalf("unexpected recovery warnings: %v", warns)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// applyOps replays a crash-injection op sequence into a durable registry.
func applyOps(t *testing.T, p *Persistent, ops []crashOp) {
	t.Helper()
	for _, op := range ops {
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
	}
}

// replLink runs a live primary→follower stream over an in-memory pipe.
type replLink struct {
	cancel  context.CancelFunc
	state   *ReplState
	stream  chan error
	applied chan error
}

func startRepl(t *testing.T, primary, follower *Persistent, from ReplPos, onAdvance func(ReplPos)) *replLink {
	t.Helper()
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	l := &replLink{
		cancel:  cancel,
		state:   &ReplState{},
		stream:  make(chan error, 1),
		applied: make(chan error, 1),
	}
	go func() {
		err := primary.StreamReplication(ctx, pw, from, 25*time.Millisecond)
		pw.Close()
		l.stream <- err
	}()
	go func() {
		l.applied <- follower.ApplyReplication(ctx, pr, l.state, onAdvance)
	}()
	t.Cleanup(cancel)
	return l
}

// stop tears the link down and surfaces both goroutines' outcomes.
func (l *replLink) stop(t *testing.T) {
	t.Helper()
	l.cancel()
	if err := <-l.stream; err != nil {
		t.Errorf("streamer: %v", err)
	}
	if err := <-l.applied; err != nil {
		t.Errorf("applier: %v", err)
	}
}

// waitApplied polls until the follower has applied through target.
func (l *replLink) waitApplied(t *testing.T, target ReplPos) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st := l.state.Status(); !st.Pos.Before(target) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never applied through %v (at %v)", target, l.state.Status().Pos)
}

// assertConverged compares the follower's registry against the primary's:
// same entries, byte-identical full rankings for the fixed probe.
func assertConverged(t *testing.T, label string, primary, follower *Persistent, m *core.Matcher) {
	t.Helper()
	if got, want := follower.Len(), primary.Len(); got != want {
		t.Fatalf("%s: follower has %d entries, primary %d", label, got, want)
	}
	want := rankingOf(t, primary.Registry, m)
	if got := rankingOf(t, follower.Registry, m); got != want {
		t.Errorf("%s: follower rankings differ from primary:\n--- follower\n%s--- primary\n%s", label, got, want)
	}
}

// TestReplicationTailConvergesLive streams a mutation sequence (puts
// across two formats, a replacement, a removal) to a follower over a live
// pipe — a tail from genesis, no resync — and asserts byte-identical
// convergence.
func TestReplicationTailConvergesLive(t *testing.T) {
	m := replMatcher(t)
	primary := openRepl(t, m, t.TempDir(), PersistOptions{})
	follower := openRepl(t, m, t.TempDir(), PersistOptions{})
	link := startRepl(t, primary, follower, ReplPos{}, nil)

	applyOps(t, primary, crashOps(t))
	target := primary.ReplicationPos()
	link.waitApplied(t, target)
	assertConverged(t, "live tail", primary, follower, m)
	if st := link.state.Status(); !st.CaughtUp || st.Resyncs != 0 {
		t.Errorf("tail follower status = %+v, want caught up with no resyncs", st)
	}
	link.stop(t)
}

// TestReplicationResyncForStaleFollower connects a follower whose
// checkpoint the primary has compacted past: the stream must open with a
// generation-aware full snapshot (resync), diff-apply a divergent local
// entry away, and converge byte-identically.
func TestReplicationResyncForStaleFollower(t *testing.T) {
	m := replMatcher(t)
	// Compact on every commit so the live generation moves past genesis.
	primary := openRepl(t, m, t.TempDir(), PersistOptions{CompactBytes: 1})
	applyOps(t, primary, crashOps(t))
	target := primary.ReplicationPos()
	if target.Base == 0 {
		t.Fatalf("primary never compacted (pos %v); the stale-checkpoint case needs a rotated journal", target)
	}

	follower := openRepl(t, m, t.TempDir(), PersistOptions{})
	// Diverged local state the snapshot must remove.
	if _, _, err := follower.RegisterSource("ghost", "sql", []byte("CREATE TABLE Ghost (ID INT PRIMARY KEY);")); err != nil {
		t.Fatal(err)
	}

	link := startRepl(t, primary, follower, ReplPos{}, nil)
	link.waitApplied(t, target)
	if _, ok := follower.Get("ghost"); ok {
		t.Error("resync did not diff-apply the diverged entry away")
	}
	assertConverged(t, "stale resync", primary, follower, m)
	if st := link.state.Status(); !st.CaughtUp || st.Resyncs == 0 {
		t.Errorf("stale follower status = %+v, want caught up via at least one resync", st)
	}
	link.stop(t)
}

// TestReplicationMidStreamResyncAcrossCompaction starts a tail at
// generation 0 and then lets the primary compact underneath the live
// stream: the streamer must fall back to a mid-stream snapshot resync
// (same connection) and the follower must still converge.
func TestReplicationMidStreamResyncAcrossCompaction(t *testing.T) {
	m := replMatcher(t)
	primary := openRepl(t, m, t.TempDir(), PersistOptions{CompactBytes: 1})
	follower := openRepl(t, m, t.TempDir(), PersistOptions{})
	link := startRepl(t, primary, follower, ReplPos{}, nil)

	applyOps(t, primary, crashOps(t))
	target := primary.ReplicationPos()
	link.waitApplied(t, target)
	assertConverged(t, "compaction resync", primary, follower, m)
	if st := link.state.Status(); st.Resyncs == 0 {
		t.Errorf("follower status = %+v, want at least one mid-stream resync (the journal rotated %d times)", st, target.Base)
	}
	link.stop(t)
}

// captureStream records the raw bytes of a replication stream carrying
// exactly wantFrames frames (the primary is quiescent, so the stream is
// deterministic: one hello plus the buffered records).
func captureStream(t *testing.T, p *Persistent, from ReplPos, wantFrames int) []byte {
	t.Helper()
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		err := p.StreamReplication(ctx, pw, from, time.Hour)
		pw.Close()
		done <- err
	}()
	var buf bytes.Buffer
	tmp := make([]byte, 4096)
	for len(replFrameBounds(buf.Bytes()))-1 < wantFrames {
		n, err := pr.Read(tmp)
		buf.Write(tmp[:n])
		if err != nil {
			t.Fatalf("captured %d bytes then: %v", buf.Len(), err)
		}
	}
	cancel()
	pr.Close()
	if err := <-done; err != nil {
		t.Fatalf("streamer: %v", err)
	}
	return buf.Bytes()
}

// replFrameBounds returns the byte offsets of every frame boundary in a
// captured stream: the preamble end, then the offset after each whole
// frame.
func replFrameBounds(b []byte) []int {
	if len(b) < replHeaderSize {
		return nil
	}
	bounds := []int{replHeaderSize}
	off := replHeaderSize
	for {
		_, n, err := decodeReplFrame(b[off:])
		if err != nil {
			return bounds
		}
		off += n
		bounds = append(bounds, off)
	}
}

// TestReplicationKilledAtEveryFrameBoundary is the fault-injection sweep:
// a follower is fed the stream cut exactly at every frame boundary (the
// kill) and three bytes into the next frame (the torn kill), verified to
// hold exactly the acknowledged prefix, then restarted from its
// checkpoint against the live primary and required to converge to
// byte-identical rankings versus the never-killed oracle — with the
// restart resuming as a tail, never a gratuitous full resync.
func TestReplicationKilledAtEveryFrameBoundary(t *testing.T) {
	m := replMatcher(t)
	ops := crashOps(t)
	primary := openRepl(t, m, t.TempDir(), PersistOptions{})
	applyOps(t, primary, ops)
	target := primary.ReplicationPos()
	oracleRanking := rankingOf(t, primary.Registry, m)

	// One hello frame, then every op as a rec frame.
	stream := captureStream(t, primary, ReplPos{}, len(ops)+1)
	bounds := replFrameBounds(stream)
	if len(bounds) != len(ops)+2 {
		t.Fatalf("stream has %d frame boundaries, want %d (preamble + hello + %d records)", len(bounds), len(ops)+2, len(ops))
	}

	// prefixRanking caches the oracle ranking for each applied-op count.
	prefixRanking := make(map[int]string)
	rankingForPrefix := func(n int) string {
		if _, ok := prefixRanking[n]; !ok {
			prefixRanking[n] = rankingOf(t, applyPrefix(t, m, ops, n), m)
		}
		return prefixRanking[n]
	}

	run := func(label string, cut int, wantOps int, wantCleanEOF bool) {
		dir := t.TempDir()
		follower := openRepl(t, m, dir, PersistOptions{})
		var checkpoint ReplPos
		err := follower.ApplyReplication(context.Background(), bytes.NewReader(stream[:cut]),
			nil, func(p ReplPos) { checkpoint = p })
		if wantCleanEOF && err != nil {
			t.Errorf("%s: apply of a boundary-cut stream errored: %v", label, err)
		}
		if !wantCleanEOF && err == nil {
			t.Errorf("%s: apply of a mid-frame cut reported no disconnect", label)
		}
		// The kill must leave exactly the acknowledged prefix applied.
		if got, want := rankingOf(t, follower.Registry, m), rankingForPrefix(wantOps); got != want {
			t.Fatalf("%s: killed follower holds a state that is not the %d-op prefix:\n--- follower\n%s--- prefix oracle\n%s", label, wantOps, got, want)
		}
		if checkpoint.Records != wantOps {
			t.Fatalf("%s: checkpoint %v after %d applied ops", label, checkpoint, wantOps)
		}
		if err := follower.Close(); err != nil {
			t.Fatal(err)
		}

		// Restart: recover the follower's own journal, reconnect from the
		// checkpoint, and converge against the live primary.
		restarted, warns, err := OpenPersistentOptions(dir, m, PersistOptions{}, storeParse)
		if err != nil {
			t.Fatalf("%s: follower restart: %v", label, err)
		}
		defer restarted.Close()
		if len(warns) != 0 {
			t.Errorf("%s: follower restart warnings: %v", label, warns)
		}
		link := startRepl(t, primary, restarted, checkpoint, nil)
		link.waitApplied(t, target)
		if got := rankingOf(t, restarted.Registry, m); got != oracleRanking {
			t.Errorf("%s: restarted follower did not converge to the oracle ranking:\n--- follower\n%s--- oracle\n%s", label, got, oracleRanking)
		}
		if st := link.state.Status(); st.Resyncs != 0 {
			t.Errorf("%s: restart from checkpoint %v resynced %d times, want a pure tail resume", label, checkpoint, st.Resyncs)
		}
		link.stop(t)
	}

	for k, cut := range bounds {
		// Ops applied by the prefix: boundary 0 is the bare preamble,
		// boundary 1 adds the hello, k >= 2 adds k-1 records.
		wantOps := k - 1
		if wantOps < 0 {
			wantOps = 0
		}
		run(fmt.Sprintf("kill@frame %d", k), cut, wantOps, true)
		if cut+3 <= len(stream) {
			run(fmt.Sprintf("torn@frame %d", k), cut+3, wantOps, false)
		}
	}
}
