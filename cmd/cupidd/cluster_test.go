package main

// End-to-end cluster coverage: three WAL-backed cupidd shards behind the
// scatter-gather router (internal/cluster), driven with mixed
// register/match traffic over httptest. The test asserts the sharded
// rankings are element-for-element the single-node rankings, that a
// late-started follower's replication lag drains (readyz false until
// caught up), and that draining every shard leaves each journal clean —
// a reopen recovers every schema with zero warnings.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	cupid "repro"
	"repro/internal/cluster"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// clusterSchema is one unit of test traffic: a registerable document.
type clusterSchema struct {
	name, format, content string
}

// clusterCorpus derives twelve schemas from the three fixture documents:
// four variants per family, each with a renamed column, so every probe
// has same-family near-matches and cross-family noise.
func clusterCorpus() []clusterSchema {
	var out []clusterSchema
	families := []struct {
		base, format, content, col string
	}{
		{"orders", "sql", ordersDDL, "Amount"},
		{"purchases", "sql", purchasesDDL, "Qty"},
		{"inventory", "json", inventoryJSON, "warehouse"},
	}
	for _, f := range families {
		for v := 0; v < 4; v++ {
			content := f.content
			if v > 0 {
				content = strings.Replace(content, f.col, fmt.Sprintf("%sV%d", f.col, v), 1)
			}
			out = append(out, clusterSchema{
				name:    fmt.Sprintf("%s-%d", f.base, v),
				format:  f.format,
				content: content,
			})
		}
	}
	return out
}

func TestClusterEndToEnd(t *testing.T) {
	// Three WAL shards and the router in front of them.
	var shards []*replTestServer
	var urls []string
	var dirs []string
	for i := 0; i < 3; i++ {
		dir := t.TempDir()
		sh := newReplServer(t, dir, "")
		shards = append(shards, sh)
		urls = append(urls, sh.ts.URL)
		dirs = append(dirs, dir)
	}
	rt, err := cluster.NewRouter(cluster.Options{Shards: urls, MatchDeadline: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()

	// A single-node oracle holding the identical corpus: the router's
	// merged rankings must be element-for-element the oracle's.
	oracle := newReplServer(t, t.TempDir(), "")

	// Mixed traffic: register through the router, and between
	// registrations keep matching through the router — the cluster serves
	// reads while the corpus is still growing.
	corpus := clusterCorpus()
	for i, cs := range corpus {
		var got serve.SchemaInfo
		code := call(t, rts, http.MethodPost, "/schemas",
			map[string]string{"name": cs.name, "format": cs.format, "content": cs.content}, &got)
		if code != http.StatusCreated {
			t.Fatalf("register %s via router: status %d", cs.name, code)
		}
		register(t, oracle.ts, cs.name, cs.format, cs.content)
		if i%4 == 3 {
			mid := batchOf(t, rts, map[string]any{
				"source": map[string]string{"name": cs.name}, "topK": 3,
			})
			if mid.Source != cs.name {
				t.Errorf("mid-traffic batch source %q, want %q", mid.Source, cs.name)
			}
		}
	}

	// The corpus is partitioned: the router lists all twelve, the shard
	// totals add up to twelve with no overlap, and placement followed the
	// ring.
	var routerList struct {
		Schemas []serve.SchemaInfo `json:"schemas"`
	}
	call(t, rts, http.MethodGet, "/schemas", nil, &routerList)
	if len(routerList.Schemas) != len(corpus) {
		t.Fatalf("router lists %d schemas, want %d", len(routerList.Schemas), len(corpus))
	}
	perShard := make([]int, len(shards))
	total := 0
	for i, sh := range shards {
		perShard[i] = sh.s.reg.Len()
		total += perShard[i]
	}
	if total != len(corpus) {
		t.Errorf("shard partition sums to %d, want %d (per shard: %v)", total, len(corpus), perShard)
	}
	for _, cs := range corpus {
		owner := rt.Ring().Owner(cs.name)
		if _, ok := shards[owner].s.persist.Doc(cs.name); !ok {
			t.Errorf("%s is not on its ring owner (shard %d)", cs.name, owner)
		}
	}

	// Merged rankings equal the oracle's, by-name and inline, across
	// top-K values.
	for _, probe := range []map[string]any{
		{"source": map[string]string{"name": "orders-0"}, "topK": 5},
		{"source": map[string]string{"name": "inventory-3"}, "topK": 10},
		{"source": map[string]string{"format": "sql", "content": purchasesDDL}, "topK": 4},
	} {
		merged := batchOf(t, rts, probe)
		want := batchOf(t, oracle.ts, probe)
		if !reflect.DeepEqual(merged.Results, want.Results) {
			t.Errorf("probe %v: merged ranking diverged from single node:\nrouter: %+v\noracle: %+v",
				probe, merged.Results, want.Results)
		}
	}

	// Replication lag drains: a follower of shard 0 started only now —
	// after all traffic — reports catching_up (readyz false) until the
	// backlog is applied, then turns ready and holds shard 0's exact
	// schema set.
	fdir := t.TempDir()
	fs, err := newServerFromOptions(&options{dataDir: fdir, follow: urls[0], minAccept: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fts := httptest.NewServer(fs.routes())
	defer fts.Close()
	defer fs.close()
	var ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if code := call(t, fts, http.MethodGet, "/readyz", nil, &ready); code != http.StatusServiceUnavailable || ready.Reason != "catching_up" {
		t.Fatalf("follower with unapplied backlog: readyz %d reason %q, want 503 catching_up", code, ready.Reason)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := fs.followLoop(ctx)
	stopFollow := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("follow loop did not stop")
		}
	}
	defer stopFollow()
	follower := &replTestServer{s: fs, ts: fts, stop: func() {}}
	waitCaughtUp(t, follower, perShard[0])
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := call(t, fts, http.MethodGet, "/readyz", nil, &ready); code == http.StatusOK && ready.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("caught-up follower never turned ready: %+v", ready)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var fl, sl struct {
		Schemas []serve.SchemaInfo `json:"schemas"`
	}
	call(t, fts, http.MethodGet, "/schemas", nil, &fl)
	call(t, shards[0].ts, http.MethodGet, "/schemas", nil, &sl)
	if !reflect.DeepEqual(fl, sl) {
		t.Errorf("follower schema set diverged from shard 0:\nfollower: %v\nshard:    %v", fl, sl)
	}
	stopFollow()

	// Router drain: new work is refused, probes keep answering.
	rt.BeginDrain()
	var errResp struct {
		Error string `json:"error"`
	}
	if code := call(t, rts, http.MethodGet, "/schemas", nil, &errResp); code != http.StatusServiceUnavailable {
		t.Errorf("draining router still admits work: %d", code)
	}
	if code := call(t, rts, http.MethodGet, "/healthz", nil, &struct{}{}); code != http.StatusOK {
		t.Errorf("draining router healthz: %d", code)
	}

	// Shard drain: the SIGTERM path is BeginDrain + close. Afterwards
	// every journal must be clean — reopening recovers the full partition
	// with zero warnings.
	for i, sh := range shards {
		sh.s.front.BeginDrain()
		sh.close(t)
		m, err := cupid.NewMatcher(cupid.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		p, warns, err := cupid.OpenPersistentRegistryOptions(dirs[i], m, cupid.DefaultPersistOptions())
		if err != nil {
			t.Fatalf("reopening shard %d: %v", i, err)
		}
		if len(warns) != 0 {
			t.Errorf("shard %d journal not clean after drain: %v", i, warns)
		}
		if p.Registry.Len() != perShard[i] {
			t.Errorf("shard %d recovered %d schemas, want %d", i, p.Registry.Len(), perShard[i])
		}
		if err := p.Close(); err != nil {
			t.Errorf("closing reopened shard %d: %v", i, err)
		}
	}
}

// TestRouterBatchKeepsSourceInstances: a by-name batch source registered
// with instance samples reaches every shard with those samples, so the
// router ranks it exactly as a single node does. The tie-break corpus
// makes the samples decisive: its targets are one SQL document with
// different value distributions, so a source prepared without its
// profiles ties every target and the merge falls back to name order.
func TestRouterBatchKeepsSourceInstances(t *testing.T) {
	var urls []string
	for i := 0; i < 2; i++ {
		urls = append(urls, newReplServer(t, t.TempDir(), "").ts.URL)
	}
	rt, err := cluster.NewRouter(cluster.Options{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	rts := httptest.NewServer(rt)
	defer rts.Close()
	oracle := newReplServer(t, t.TempDir(), "")

	const j = 2
	probe := workloads.TieBreakProbe(j)
	for _, d := range append(workloads.TieBreakTargets(6), probe) {
		body := map[string]any{"name": d.Name, "format": "sql", "content": d.SQL, "instances": json.RawMessage(d.Instances)}
		for _, ts := range []*httptest.Server{rts, oracle.ts} {
			if code := call(t, ts, http.MethodPost, "/schemas", body, nil); code != http.StatusCreated {
				t.Fatalf("registering %s at %s: status %d", d.Name, ts.URL, code)
			}
		}
	}
	ranking := func(rs []serve.BatchResult) string {
		var b strings.Builder
		for _, r := range rs {
			fmt.Fprintf(&b, "%s:%.17g ", r.Name, r.Score)
		}
		return b.String()
	}
	for _, topK := range []int{0, 3} {
		req := map[string]any{"source": map[string]string{"name": probe.Name}, "topK": topK}
		got, want := batchOf(t, rts, req), batchOf(t, oracle.ts, req)
		if len(want.Results) == 0 || want.Results[0].Name != fmt.Sprintf("tiebreak%d", j) {
			t.Fatalf("topK=%d: single node does not rank the probe's own distribution first: %s", topK, ranking(want.Results))
		}
		if ranking(got.Results) != ranking(want.Results) {
			t.Errorf("topK=%d: router ranking diverged from single node:\nrouter: %s\noracle: %s",
				topK, ranking(got.Results), ranking(want.Results))
		}
	}
}
