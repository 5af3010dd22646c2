package main

// The model-based cache test: seeded random interleavings of register,
// identical re-register, replace, remove, /match, /mappings,
// /match/batch and restart against a durable cupidd with the match cache
// on. Every reply is compared byte for byte, "cached" aside, with the
// reply of an uncached in-memory cupidd that received the same writes,
// and "cached" and the pair-reuse counters are checked against a model
// of what the cache holds.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/serve"
	"repro/internal/workloads"
)

// modelServer is one running cupidd of the model test.
type modelServer struct {
	s  *server
	ts *httptest.Server
}

// startModelServer starts cupidd with the default flags plus args.
func startModelServer(t *testing.T, args ...string) *modelServer {
	t.Helper()
	fs, opt := newFlagSet()
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := newServerFromOptions(opt)
	if err != nil {
		t.Fatal(err)
	}
	m := &modelServer{s: s, ts: httptest.NewServer(s.routes())}
	t.Cleanup(m.stop)
	return m
}

// stop closes the listener and the journal; calling it twice is a no-op.
func (m *modelServer) stop() {
	if m.ts == nil {
		return
	}
	m.ts.Close()
	m.ts = nil
	m.s.close()
}

// send issues one request and returns the status and the raw reply.
func (m *modelServer) send(t *testing.T, method, path string, body any) (int, []byte) {
	t.Helper()
	var raw json.RawMessage
	code := call(t, m.ts, method, path, body, &raw)
	return code, raw
}

// cacheModel is what the test knows the cache must hold. A pair entry
// is keyed by its two sides' content and survives every write; a batch
// entry is servable while no write that changed the repository has
// happened since it was computed, and a stale one is the memo of its
// key's recomputation.
type cacheModel struct {
	writes  int            // writes that changed the repository
	batches map[string]int // batch key -> writes when it was computed
	pairs   map[string]bool
}

func (c *cacheModel) reset() {
	c.batches, c.pairs = map[string]int{}, map[string]bool{}
}

// TestCacheModelAgainstUncached is the model-based test of the match
// cache's staleness contract and of the per-pair memo behind it.
func TestCacheModelAgainstUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 300 random operations against two servers")
	}
	const (
		seed   = 33
		steps  = 300
		nNames = 48
	)
	rng := rand.New(rand.NewSource(seed))
	var docs []string
	for _, s := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 8, Seed: 5}) {
		b, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, string(b))
	}
	var probes []string
	for f := 0; f < 6; f++ {
		b, err := workloads.FamilyProbe(f, int64(100+f)).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, string(b))
	}

	dir := t.TempDir()
	sut := startModelServer(t, "-data", dir)
	ref := startModelServer(t, "-cache", "0")
	model := &cacheModel{}
	model.reset()
	holds := map[string]int{} // registered name -> doc index
	name := func(i int) string { return fmt.Sprintf("s%02d", i) }
	registered := func() []string {
		var out []string
		for i := 0; i < nNames; i++ {
			if _, ok := holds[name(i)]; ok {
				out = append(out, name(i))
			}
		}
		return out
	}
	// keyOf names a reference's content the way the cache keys it: a
	// registered name by the content it holds, an inline document by
	// its bytes.
	keyOf := func(ref map[string]string) string {
		if n, ok := ref["name"]; ok {
			return fmt.Sprintf("doc%d", holds[n])
		}
		return "inline:" + ref["content"]
	}
	// both sends a request to both servers and asserts the replies are
	// byte-identical once "cached" is set aside; it returns the SUT's
	// "cached".
	both := func(step int, what, method, path string, body any) bool {
		t.Helper()
		code, got := sut.send(t, method, path, body)
		wantCode, want := ref.send(t, method, path, body)
		cached := bytes.HasPrefix(got, []byte(`{"cached":true`))
		if cached {
			got = bytes.Replace(got, []byte(`{"cached":true`), []byte(`{"cached":false`), 1)
		}
		if code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("step %d, %s: reply differs from the uncached server:\n got %d %s\nwant %d %s",
				step, what, code, got, wantCode, want)
		}
		return cached
	}
	put := func(step int, n string, doc int) {
		t.Helper()
		cur, had := holds[n]
		both(step, "register "+n, http.MethodPost, "/schemas",
			map[string]string{"name": n, "format": "json", "content": docs[doc]})
		holds[n] = doc
		if !had || cur != doc {
			model.writes++
		}
	}
	for i := 0; i < 44; i++ {
		put(-1, name(i), i)
	}
	ref2 := func() map[string]string {
		if names := registered(); rng.Intn(3) > 0 {
			return map[string]string{"name": names[rng.Intn(len(names))]}
		}
		if rng.Intn(2) == 0 {
			return map[string]string{"format": "json", "content": probes[rng.Intn(len(probes))]}
		}
		return map[string]string{"format": "json", "content": docs[rng.Intn(len(docs))]}
	}

	var staleRecomputes, freshComputes, restarts int
	// batch asks for one ranking and checks "cached" and the pair reuse
	// against the model.
	var (
		lastInline map[string]string // the last inline batch source, and its topK
		lastTopK   int
	)
	batch := func(step int, src map[string]string, topK int) {
		t.Helper()
		want := topK
		if _, ok := src["name"]; ok && want > 0 {
			want++
		} else {
			lastInline, lastTopK = src, topK
		}
		key := fmt.Sprintf("%s|%d", keyOf(src), want)
		before := sut.s.front.Stats()
		cached := both(step, "batch", http.MethodPost, "/match/batch", map[string]any{"source": src, "topK": topK})
		after := sut.s.front.Stats()
		reused := after.PairsReused - before.PairsReused
		at, seen := model.batches[key]
		switch {
		case seen && at == model.writes:
			if !cached {
				t.Fatalf("step %d: batch %s recomputed though no write changed the repository since it was cached", step, key)
			}
		case cached:
			t.Fatalf("step %d: batch %s served from the cache after a write changed the repository", step, key)
		case seen:
			staleRecomputes++
			if reused == 0 {
				t.Fatalf("step %d: batch %s recomputed from a stale entry reused no pair (matched %d)",
					step, key, after.PairsMatched-before.PairsMatched)
			}
		default:
			freshComputes++
			if reused != 0 {
				t.Fatalf("step %d: batch %s computed without a stale entry reused %d pairs", step, key, reused)
			}
		}
		model.batches[key] = model.writes
	}
	for step := 0; step < steps; step++ {
		names := registered()
		switch op := rng.Intn(100); {
		case op < 36: // /match/batch, mostly of a few hot probes
			src := ref2()
			if rng.Intn(3) > 0 {
				src = map[string]string{"format": "json", "content": probes[rng.Intn(len(probes))]}
			}
			batch(step, src, []int{0, 10}[rng.Intn(2)])
		case op < 46: // /match
			src, dst := ref2(), ref2()
			key := keyOf(src) + "|" + keyOf(dst)
			cached := both(step, "match", http.MethodPost, "/match", map[string]any{"source": src, "target": dst})
			if cached != model.pairs[key] {
				t.Fatalf("step %d: /match %s cached=%t, want %t", step, key, cached, model.pairs[key])
			}
			model.pairs[key] = true
		case op < 54: // /mappings
			a, c := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			key := fmt.Sprintf("doc%d|doc%d", holds[a], holds[c])
			cached := both(step, "mappings", http.MethodGet, "/mappings/"+a+"/"+c, nil)
			if cached != model.pairs[key] {
				t.Fatalf("step %d: /mappings/%s/%s cached=%t, want %t", step, a, c, cached, model.pairs[key])
			}
			model.pairs[key] = true
		case op < 68: // replace
			n := names[rng.Intn(len(names))]
			doc := rng.Intn(len(docs))
			for doc == holds[n] {
				doc = rng.Intn(len(docs))
			}
			put(step, n, doc)
		case op < 78: // register a new name, or replace when every name is taken
			n := name(rng.Intn(nNames))
			put(step, n, rng.Intn(len(docs)))
		case op < 88: // identical re-register, then the last inline batch again
			n := names[rng.Intn(len(names))]
			put(step, n, holds[n])
			if lastInline != nil {
				batch(step, lastInline, lastTopK)
			}
		case op < 97: // remove
			if len(names) <= 40 {
				continue
			}
			n := names[rng.Intn(len(names))]
			both(step, "remove "+n, http.MethodDelete, "/schemas/"+n, nil)
			delete(holds, n)
			model.writes++
		default: // restart the durable server on its data directory
			sut.stop()
			sut = startModelServer(t, "-data", dir)
			model.reset()
			restarts++
		}
	}
	t.Logf("%d batches computed afresh, %d recomputed from a stale entry, %d restarts", freshComputes, staleRecomputes, restarts)
	if staleRecomputes < 10 {
		t.Errorf("only %d batches were recomputed from a stale entry; the run does not exercise the memo", staleRecomputes)
	}
}

// TestIdenticalReregisterKeepsCache: re-registering identical content
// (201 the first time, 200 after) changes nothing, so a cached batch
// reply stays cached, in memory and durable alike; a replace then makes
// it stale.
func TestIdenticalReregisterKeepsCache(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%t", durable), func(t *testing.T) {
			var args []string
			if durable {
				args = []string{"-data", t.TempDir()}
			}
			m := startModelServer(t, args...)
			post := func(name, content string) int {
				code, _ := m.send(t, http.MethodPost, "/schemas", map[string]string{"name": name, "format": "sql", "content": content})
				return code
			}
			if post("orders", ordersDDL) != http.StatusCreated || post("purchases", purchasesDDL) != http.StatusCreated {
				t.Fatal("initial registrations were not created")
			}
			body := map[string]any{"source": map[string]string{"format": "sql", "content": ordersDDL}, "topK": 2}
			batch := func() serve.BatchReply {
				var reply serve.BatchReply
				if code := call(t, m.ts, http.MethodPost, "/match/batch", body, &reply); code != http.StatusOK {
					t.Fatalf("batch: status %d", code)
				}
				return reply
			}
			if batch().Cached || !batch().Cached {
				t.Fatal("a repeated batch was not served from the cache")
			}
			if code := post("purchases", purchasesDDL); code != http.StatusOK {
				t.Fatalf("identical re-register: status %d, want 200", code)
			}
			if !batch().Cached {
				t.Error("an identical re-register made the cached batch reply stale")
			}
			if inv := m.s.front.Stats().Cache.Invalidations; inv != 2 {
				t.Errorf("%d invalidations, want 2 (one per created entry)", inv)
			}
			if post("purchases", ordersDDL) != http.StatusCreated {
				t.Fatal("replace was not created")
			}
			if batch().Cached {
				t.Error("a batch after a replace was served from the cache")
			}
		})
	}
}
