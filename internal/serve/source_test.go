package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/registry"
)

// countingSource is a source keyed by key whose Prepare counts its calls
// and, once gate is closed (nil: at once), returns p or err.
func countingSource(key string, p *core.Prepared, err error, calls *atomic.Int32, gate <-chan struct{}) Source {
	return Source{Key: key, Prepare: func() (*core.Prepared, error) {
		calls.Add(1)
		if gate != nil {
			<-gate
		}
		return p, err
	}}
}

// TestRepeatSourceNeverPrepares: a second MatchBatch or MatchPair with the
// same source keys is served from the cache without calling Prepare.
func TestRepeatSourceNeverPrepares(t *testing.T) {
	r := testRegistry(t, 40)
	f := NewFrontend(r, calmOptions(32))
	probe, other := prepProbe(t, r, 2, 3), prepProbe(t, r, 4, 5)
	ctx := context.Background()
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5}

	var calls atomic.Int32
	src := countingSource("inline:probe", probe, nil, &calls, nil)
	cold, err := f.MatchBatch(ctx, src, spec)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := f.MatchBatch(ctx, src, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 1 || cold.Cached || !warm.Cached {
		t.Fatalf("two batches: %d Prepare calls, cached %t then %t; want 1, false then true", n, cold.Cached, warm.Cached)
	}
	if cold.SourceName != probe.Schema().Name || warm.SourceFingerprint != probe.Fingerprint() {
		t.Errorf("cached result names source %q (%s), want %q (%s)", warm.SourceName, warm.SourceFingerprint, probe.Schema().Name, probe.Fingerprint())
	}

	calls.Store(0)
	var dstCalls atomic.Int32
	dst := countingSource("inline:other", other, nil, &dstCalls, nil)
	if _, shared, err := f.MatchPair(ctx, src, dst); err != nil || shared {
		t.Fatalf("cold pair: shared %t, err %v", shared, err)
	}
	if _, shared, err := f.MatchPair(ctx, src, dst); err != nil || !shared {
		t.Fatalf("warm pair: shared %t, err %v", shared, err)
	}
	if calls.Load() != 1 || dstCalls.Load() != 1 {
		t.Errorf("two pairs prepared the source %d and the target %d times, want once each", calls.Load(), dstCalls.Load())
	}
}

// TestConcurrentInlineSourcePreparedOnce: eight concurrent identical
// requests share one flight, so Prepare runs once; when it fails, every
// joiner gets the leader's error and nothing is cached.
func TestConcurrentInlineSourcePreparedOnce(t *testing.T) {
	r := testRegistry(t, 40)
	probe := prepProbe(t, r, 1, 3)
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5}
	const callers = 8
	for _, c := range []struct {
		name string
		err  error
	}{{"ok", nil}, {"parse error", Errorf(http.StatusBadRequest, "parsing inline schema: boom")}} {
		t.Run(c.name, func(t *testing.T) {
			f := NewFrontend(r, calmOptions(32))
			var calls atomic.Int32
			gate := make(chan struct{})
			src := countingSource("inline:probe", probe, c.err, &calls, gate)
			results := make([]Result, callers)
			errs := make([]error, callers)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i], errs[i] = f.MatchBatch(context.Background(), src, spec)
				}()
			}
			// Open the gate once the other seven have joined the flight.
			waitFor(t, func() bool { return f.Stats().Cache.Coalesced == callers-1 })
			close(gate)
			wg.Wait()
			if n := calls.Load(); n != 1 {
				t.Errorf("%d concurrent identical requests called Prepare %d times, want once", callers, n)
			}
			cached := 0
			for i := range results {
				if !errors.Is(errs[i], c.err) {
					t.Errorf("caller %d: err %v, want %v", i, errs[i], c.err)
				}
				if results[i].Cached {
					cached++
				}
			}
			if c.err != nil {
				if n := f.Stats().Cache.Len; n != 0 {
					t.Errorf("a failed flight left %d cache entries", n)
				}
				return
			}
			if cached != callers-1 {
				t.Errorf("%d callers report a shared result, want %d", cached, callers-1)
			}
			for i := range results {
				if rankKey(results[i].Results) != rankKey(results[0].Results) {
					t.Errorf("caller %d got a different ranking", i)
				}
			}
		})
	}
}

// TestPrepareErrorNeverCached: a source whose Prepare fails returns that
// error, leaves the cache as it was, and is prepared again next time.
func TestPrepareErrorNeverCached(t *testing.T) {
	r := testRegistry(t, 40)
	f := NewFrontend(r, calmOptions(32))
	probe := prepProbe(t, r, 1, 3)
	ctx := context.Background()
	spec := MatchSpec{Retrieval: registry.StrategyIndexed, TopK: 5}
	if _, err := f.MatchBatch(ctx, PreparedSource(probe), spec); err != nil {
		t.Fatal(err)
	}
	before := f.Stats().Cache.Len

	parseErr := Errorf(http.StatusBadRequest, "parsing inline schema: boom")
	var calls atomic.Int32
	bad := countingSource("inline:bad", nil, parseErr, &calls, nil)
	for i := 0; i < 2; i++ {
		if _, err := f.MatchBatch(ctx, bad, spec); !errors.Is(err, parseErr) {
			t.Fatalf("batch %d: err %v, want the parse error", i, err)
		}
		if _, _, err := f.MatchPair(ctx, bad, PreparedSource(probe)); !errors.Is(err, parseErr) {
			t.Fatalf("pair %d: err %v, want the parse error", i, err)
		}
	}
	if n := calls.Load(); n != 4 {
		t.Errorf("Prepare ran %d times over four failing requests, want 4", n)
	}
	if n := f.Stats().Cache.Len; n != before {
		t.Errorf("cache holds %d entries after failing requests, want %d", n, before)
	}
}

// TestSchemaRefKey: an inline reference's key covers its name, format,
// content and instances, and nothing else.
func TestSchemaRefKey(t *testing.T) {
	base := SchemaRef{Name: "a", Format: "sql", Content: "CREATE TABLE T (X INT);", Instances: json.RawMessage(`{"T.X":[1]}`)}
	if base.Key() != base.Key() {
		t.Fatal("Key is not deterministic")
	}
	for _, c := range []struct {
		what string
		ref  SchemaRef
	}{
		{"name", SchemaRef{Name: "b", Format: base.Format, Content: base.Content, Instances: base.Instances}},
		{"format", SchemaRef{Name: base.Name, Format: "dtd", Content: base.Content, Instances: base.Instances}},
		{"content", SchemaRef{Name: base.Name, Format: base.Format, Content: "CREATE TABLE T (Y INT);", Instances: base.Instances}},
		{"instances", SchemaRef{Name: base.Name, Format: base.Format, Content: base.Content, Instances: json.RawMessage(`{"T.X":[2]}`)}},
		{"no instances", SchemaRef{Name: base.Name, Format: base.Format, Content: base.Content}},
		// Length prefixes keep field boundaries: moving bytes across them
		// is a different reference.
		{"shifted boundary", SchemaRef{Name: "as", Format: "ql", Content: base.Content, Instances: base.Instances}},
	} {
		if c.ref.Key() == base.Key() {
			t.Errorf("references differing in %s share a key", c.what)
		}
	}
	// Golden digests: the key is the cache identity, so its bytes must
	// not drift between releases of the hashing code.
	for _, c := range []struct {
		ref  SchemaRef
		want string
	}{
		{base, "inline:e876e7121461cb739bd352735531970f37f34ba11915b6d61b6d987892c8ffae"},
		{SchemaRef{Name: "a", Format: "sql", Content: base.Content}, "inline:f8cdfdd67c0930afb62e0a01353f4cb672876710f8bf5ef052e996c0710ee6e1"},
		// Content longer than Key's chunk buffer.
		{SchemaRef{Name: "a", Format: "sql", Content: strings.Repeat("CREATE TABLE T (X INT);\n", 100), Instances: base.Instances},
			"inline:51fba6e0afe60f95589fe49a709a5bd89b926a265366a2c3ff9f558cc4a7b069"},
	} {
		if got := c.ref.Key(); got != c.want {
			t.Errorf("Key(%+v) = %s, want %s", c.ref, got, c.want)
		}
	}
	null := SchemaRef{Name: "a", Format: "sql", Content: base.Content, Instances: json.RawMessage("null")}
	if null.Key() != (SchemaRef{Name: "a", Format: "sql", Content: base.Content}).Key() {
		t.Error("an explicit null instances payload keys differently from none")
	}
}
