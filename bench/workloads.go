package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/registry"
)

// workload is one traffic mix the benchmark drives cupidd with.
type workload struct {
	name string
	why  string
	run  func(r *run) error
}

// workloadTable lists the workloads in the order a full run executes them.
// Each stresses different layers; bench/README.md maps every per-layer
// metric to the workload where it should move the end-to-end numbers.
var workloadTable = []workload{
	{"batch-2k", "uncached top-10 batch matches against 2000 schemas: per-candidate matching dominates and the working set far exceeds the match cache", runBatch2k},
	{"batch-hot", "Zipf-repeated probes against 200 schemas with 2% replacing writes: admission, the match cache and invalidation dominate", runBatchHot},
	{"register-churn", "two writers replacing schemas in a 2000-schema repository, then SIGKILL recovery: parse, Prepare, WAL group commit and compaction", runRegisterChurn},
	{"pair-large", "open-loop /match of distinct 289-element schema pairs: parse, Prepare and the whole matcher on large trees, no retrieval or cache", runPairLarge},
}

// params are one workload's calibrated sizes and rates.
type params struct {
	Corpus     int     `json:"corpus"`                // schemas registered at setup
	RatePerS   float64 `json:"rate_per_s,omitempty"`  // open-loop arrivals per second
	Clients    int     `json:"clients,omitempty"`     // closed-loop clients
	TopK       int     `json:"top_k,omitempty"`       // batch ranking length
	HotProbes  int     `json:"hot_probes,omitempty"`  // distinct probes in the hot pool
	ZipfS      float64 `json:"zipf_s,omitempty"`      // hot-pool popularity skew
	WriteShare float64 `json:"write_share,omitempty"` // share of open-loop requests that write
	ChurnNames int     `json:"churn_names,omitempty"` // names the writes replace
	Reserve    int     `json:"reserve,omitempty"`     // distinct replacement documents
	Checked    int     `json:"checked"`               // answers verified against in-process references
	Recall     int     `json:"recall_probes,omitempty"`
}

// paramsFor returns a workload's parameters at full or toy scale. The full
// rates keep a 2-core machine well below saturation, so no request is shed
// or degraded and every answer can be checked.
func paramsFor(name string, toy bool) params {
	switch name {
	case "batch-2k":
		if toy {
			return params{Corpus: 100, RatePerS: 10, TopK: 10, Checked: 3, Recall: 2}
		}
		return params{Corpus: 2000, RatePerS: 12, TopK: 10, Checked: 32, Recall: 16}
	case "batch-hot":
		if toy {
			return params{Corpus: 50, RatePerS: 50, TopK: 10, HotProbes: 6, ZipfS: 1.1, WriteShare: 0.05, ChurnNames: 8, Reserve: 16, Checked: 6}
		}
		return params{Corpus: 200, RatePerS: 150, TopK: 10, HotProbes: 32, ZipfS: 1.1, WriteShare: 0.02, ChurnNames: 64, Reserve: 128, Checked: 32}
	case "register-churn":
		if toy {
			return params{Corpus: 100, Clients: 2, Reserve: 40, Checked: 8}
		}
		return params{Corpus: 2000, Clients: 2, Reserve: 500, Checked: 32}
	case "pair-large":
		if toy {
			return params{RatePerS: 5, Checked: 2}
		}
		return params{RatePerS: 10, Checked: 16}
	}
	panic("bench: unknown workload " + name)
}

func names(docs []doc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
	}
	return out
}

func indexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func liveBytes(docs []doc) int64 {
	n := int64(0)
	for _, d := range docs {
		n += int64(len(d.Content))
	}
	return n
}

// runBatch2k: open-loop POST /match/batch with fresh inline probes against
// a 2000-schema corpus. Every probe is new, so every answer is computed.
func runBatch2k(r *run) error {
	p := r.p
	docs := corpus(p.Corpus, r.seed)
	interval := time.Duration(float64(time.Second) / p.RatePerS)
	stream := newProbeStream(r.seed)
	warm := stream.take(int(r.warmup / interval))
	probes := stream.take(int(r.window / interval))
	bodies := make([][]byte, len(probes))
	for i, pr := range probes {
		bodies[i] = batchBody(pr, p.TopK)
	}
	if err := r.setup(docs); err != nil {
		return err
	}
	warmRec := &recorder{}
	runOpen(len(warm), interval, func(i int, due time.Time) {
		_, err := r.cl.do(context.Background(), http.MethodPost, "/match/batch", batchBody(warm[i], p.TopK))
		warmRec.add(time.Since(due), err)
	})
	r.count(warmRec)

	rec := &recorder{}
	replies := make([][]byte, len(bodies))
	if err := r.measure(func() {
		r.lateness(runOpen(len(bodies), interval, func(i int, due time.Time) {
			b, err := r.cl.do(context.Background(), http.MethodPost, "/match/batch", bodies[i])
			rec.add(time.Since(due), err)
			replies[i] = b
		}))
	}); err != nil {
		return err
	}
	r.count(rec)
	r.latency("latency", rec)
	r.throughput(rec.ok)

	decoded := make([]batchReply, len(replies))
	var answered, full []int
	cached, degraded := 0, 0
	for i, b := range replies {
		if b == nil {
			continue
		}
		if err := json.Unmarshal(b, &decoded[i]); err != nil {
			return fmt.Errorf("decoding batch reply: %w", err)
		}
		answered = append(answered, i)
		switch {
		case decoded[i].Cached:
			cached++
		case decoded[i].Degraded:
			degraded++
		default:
			full = append(full, i)
		}
	}
	r.check("every probe answered uncached", cached == 0, fmt.Sprintf("%d of %d cached", cached, len(answered)))
	r.metric("serve.cache_hit_ratio", ratio(cached, len(answered)), "ratio", len(answered))
	r.metric("serve.degraded_ratio", ratio(degraded, len(answered)), "ratio", len(answered))

	if err := r.restarts(); err != nil {
		return err
	}
	r.checkNames(names(docs))
	r.close()

	// The rankings are checked after the server stopped, outside timing.
	// Degraded answers ran under a halved candidate budget by design, so
	// only full-budget answers are compared.
	ref, err := reference(docs)
	if err != nil {
		return err
	}
	picked := sample(full, p.Checked, rand.New(rand.NewSource(seedBase(r.seed, streamPick))))
	var inproc []float64
	recall, recallN := 0.0, 0
	for k, i := range picked {
		src, err := prepareProbe(ref.Matcher(), probes[i])
		if err != nil {
			return err
		}
		t0 := time.Now()
		want, _, err := ref.Match(src, p.TopK, registry.DefaultPlanOptions())
		inproc = append(inproc, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			return err
		}
		ok, detail := sameRanking(decoded[i], want)
		r.check(fmt.Sprintf("probe %d ranking equals in-process Registry.Match", i), ok, detail)
		if k < p.Recall {
			exact, err := ref.MatchAll(src, p.TopK)
			if err != nil {
				return err
			}
			recall += overlap(decoded[i], exact)
			recallN++
		}
	}
	if recallN > 0 {
		r.metric("recall_at_10", recall/float64(recallN), "ratio", recallN)
	}
	if n := len(inproc); n > 0 {
		r.metric("cupidd.http_overhead_ms", r.rec.Metrics["latency_p50_ms"].Value-median(inproc), "ms", n)
	}
	return nil
}

// overlap is the share of the exhaustive top-K the server also returned.
func overlap(got batchReply, exact []registry.Ranked) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := map[string]bool{}
	for _, g := range got.Results {
		in[g.Name] = true
	}
	hit := 0
	for _, e := range exact {
		if in[e.Entry.Name] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// hotState is batch-hot's write side: the content each name holds, as
// acknowledged.
type hotState struct {
	mu      sync.Mutex
	current map[string]doc
	locks   map[string]*sync.Mutex // per churned name: same-name writes never overlap, so the last ack is the committed content
	reserve []doc
	churn   []string
	next    int
}

// write replaces the content of churn name k with the next reserve
// document and records it once acknowledged.
func (h *hotState) write(cl *client, k int) error {
	name := h.churn[k%len(h.churn)]
	h.mu.Lock()
	d := h.reserve[h.next%len(h.reserve)]
	h.next++
	l := h.locks[name]
	h.mu.Unlock()
	l.Lock()
	defer l.Unlock()
	if _, err := cl.do(context.Background(), http.MethodPost, "/schemas", registerBody(name, d)); err != nil {
		return err
	}
	h.mu.Lock()
	h.current[name] = doc{Name: name, Content: d.Content}
	h.mu.Unlock()
	return nil
}

func (h *hotState) docs() []doc {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]doc, 0, len(h.current))
	for _, d := range h.current {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// hotOp is one batch-hot request: a write to churn slot k, or a query for
// hot probe k.
type hotOp struct {
	write bool
	k     int
}

// hotOps lays out n requests: every (1/WriteShare)-th one writes, cycling
// through the churned names, so each run invalidates the cache equally
// often; the reads draw their probe from the Zipf distribution.
func hotOps(n int, p params, rng *rand.Rand) []hotOp {
	picks := zipfPicks(n, p.HotProbes, p.ZipfS, rng)
	every := int(math.Round(1 / p.WriteShare))
	ops := make([]hotOp, n)
	writes := 0
	for i := range ops {
		if (i+1)%every == 0 {
			ops[i] = hotOp{write: true, k: writes % p.ChurnNames}
			writes++
		} else {
			ops[i] = hotOp{k: picks[i]}
		}
	}
	return ops
}

// hotTraffic is what one batch-hot phase observed.
type hotTraffic struct {
	reads, writes recorder
	mu            sync.Mutex
	hits          int
	late          []time.Duration
}

// runBatchHot: open-loop mix of Zipf-repeated batch probes from a small
// pool and replacing writes, against a 200-schema corpus.
func runBatchHot(r *run) error {
	p := r.p
	docs := corpus(p.Corpus, r.seed)
	rng := rand.New(rand.NewSource(seedBase(r.seed, streamPick)))
	h := &hotState{current: map[string]doc{}, locks: map[string]*sync.Mutex{}, reserve: reserve(p.Reserve, r.seed)}
	for _, d := range docs {
		h.current[d.Name] = d
	}
	for _, i := range rng.Perm(len(docs))[:p.ChurnNames] {
		h.churn = append(h.churn, docs[i].Name)
		h.locks[docs[i].Name] = &sync.Mutex{}
	}
	pool := newProbeStream(r.seed).take(p.HotProbes)
	bodies := make([][]byte, len(pool))
	for i, pr := range pool {
		bodies[i] = batchBody(pr, p.TopK)
	}
	interval := time.Duration(float64(time.Second) / p.RatePerS)
	warm := hotOps(int(r.warmup/interval), p, rng)
	ops := hotOps(int(r.window/interval), p, rng)
	if err := r.setup(docs); err != nil {
		return err
	}
	phase := func(ops []hotOp) *hotTraffic {
		t := &hotTraffic{}
		t.late = runOpen(len(ops), interval, func(i int, due time.Time) {
			op := ops[i]
			if op.write {
				err := h.write(r.cl, op.k)
				t.writes.add(time.Since(due), err)
				return
			}
			var rep batchReply
			b, err := r.cl.do(context.Background(), http.MethodPost, "/match/batch", bodies[op.k])
			lat := time.Since(due)
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			t.reads.add(lat, err)
			if rep.Cached {
				t.mu.Lock()
				t.hits++
				t.mu.Unlock()
			}
		})
		return t
	}
	w := phase(warm)
	r.count(&w.reads)
	r.count(&w.writes)

	var t *hotTraffic
	if err := r.measure(func() { t = phase(ops) }); err != nil {
		return err
	}
	r.lateness(t.late)
	r.count(&t.reads)
	r.count(&t.writes)
	r.latency("latency", &t.reads)
	r.latency("register", &t.writes)
	r.throughput(t.reads.ok + t.writes.ok)
	r.metric("serve.cache_hit_ratio", ratio(t.hits, t.reads.ok), "ratio", t.reads.ok)

	// Writes stop; one more write empties the cache, then each probe is
	// asked twice: computed, then served from the cache. Both answers must
	// equal a reference built from the final acknowledged corpus.
	if err := h.write(r.cl, 0); err != nil {
		r.check("final invalidating write", false, err.Error())
	}
	final := h.docs()
	ref, err := reference(final)
	if err != nil {
		return err
	}
	for k := 0; k < p.Checked && k < len(pool); k++ {
		src, err := prepareProbe(ref.Matcher(), pool[k])
		if err != nil {
			return err
		}
		want, _, err := ref.Match(src, p.TopK, registry.DefaultPlanOptions())
		if err != nil {
			return err
		}
		for _, wantCached := range []bool{false, true} {
			var rep batchReply
			b, err := r.cl.do(context.Background(), http.MethodPost, "/match/batch", bodies[k])
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			name := fmt.Sprintf("hot probe %d (cached=%v) equals the reference on the final corpus", k, wantCached)
			if err != nil {
				r.check(name, false, err.Error())
				continue
			}
			ok, detail := sameRanking(rep, want)
			if rep.Cached != wantCached {
				ok, detail = false, fmt.Sprintf("cached=%v", rep.Cached)
			}
			r.check(name, ok, detail)
		}
	}
	if err := r.restarts(); err != nil {
		return err
	}
	r.checkNames(names(final))
	r.close()
	return nil
}

// runRegisterChurn: closed-loop writers replacing schema content in a
// 2000-schema repository, then SIGKILL and recovery.
func runRegisterChurn(r *run) error {
	p := r.p
	docs := corpus(p.Corpus, r.seed)
	res := reserve(p.Reserve, r.seed)
	// current is the acknowledged content per corpus index. Writer c owns
	// the indexes ≡ c (mod clients), so a name's writes never overlap and
	// its last acknowledgement is the committed content.
	current := append([]doc(nil), docs...)
	rngs := make([]*rand.Rand, p.Clients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seedBase(r.seed, streamPick) + int64(c)))
	}
	if err := r.setup(docs); err != nil {
		return err
	}
	var mu sync.Mutex
	var userBytes int64
	write := func(c int, measured bool) (time.Duration, error) {
		rng := rngs[c]
		idx := c + p.Clients*rng.Intn(len(docs)/p.Clients)
		d := doc{Name: docs[idx].Name, Content: res[rng.Intn(len(res))].Content}
		body := registerBody(d.Name, d)
		t0 := time.Now()
		_, err := r.cl.do(context.Background(), http.MethodPost, "/schemas", body)
		took := time.Since(t0)
		if err == nil {
			current[idx] = d
			if measured {
				mu.Lock()
				userBytes += int64(len(d.Content))
				mu.Unlock()
			}
		}
		return took, err
	}
	warmRec := &recorder{}
	runClosed(p.Clients, time.Now().Add(r.warmup), warmRec, func(c int) (time.Duration, error) { return write(c, false) })
	r.count(warmRec)
	rec := &recorder{}
	if err := r.measure(func() {
		runClosed(p.Clients, time.Now().Add(r.window), rec, func(c int) (time.Duration, error) { return write(c, true) })
	}); err != nil {
		return err
	}
	r.count(rec)
	r.latency("latency", rec)
	r.throughput(rec.ok)

	if err := r.restarts(); err != nil {
		return err
	}
	r.checkNames(names(docs))
	for _, i := range sample(indexes(len(docs)), p.Checked, rand.New(rand.NewSource(seedBase(r.seed, streamPick)-1))) {
		want := current[i]
		var got struct {
			Content string `json:"content"`
		}
		b, err := r.cl.do(context.Background(), http.MethodGet, "/schemas/"+want.Name, nil)
		if err == nil {
			err = json.Unmarshal(b, &got)
		}
		detail := ""
		switch {
		case err != nil:
			detail = err.Error()
		case got.Content != string(want.Content):
			detail = "content differs from the last acknowledged write"
		}
		r.check("GET /schemas/"+want.Name+" returns the last acknowledged content", detail == "", detail)
	}
	r.walObservations(rec.ok, userBytes, liveBytes(current))
	r.close()
	return nil
}

// pairReply is the part of a /match answer the checks read.
type pairReply struct {
	Cached bool       `json:"cached"`
	Leaves []jsonPair `json:"leaves"`
}

type jsonPair struct {
	Source string  `json:"source"`
	Target string  `json:"target"`
	WSim   float64 `json:"wsim"`
	SSim   float64 `json:"ssim"`
	LSim   float64 `json:"lsim"`
}

// runPairLarge: open-loop POST /match of distinct large inline schema
// pairs. The server caches every pair result, so the number of requests,
// not their speed, must set how much the cache holds: an open loop at a
// fixed rate keeps rss_peak_mb independent of how fast matching is.
func runPairLarge(r *run) error {
	p := r.p
	interval := time.Duration(float64(time.Second) / p.RatePerS)
	nWarm := int(r.warmup / interval)
	all := pairs(nWarm+int(r.window/interval), 0, r.seed)
	warm, prs := all[:nWarm], all[nWarm:]
	bodies := make([][]byte, len(all))
	for i, pr := range all {
		bodies[i] = pairBody(pr)
	}
	if err := r.setup(nil); err != nil {
		return err
	}
	warmRec := &recorder{}
	runOpen(len(warm), interval, func(i int, due time.Time) {
		_, err := r.cl.do(context.Background(), http.MethodPost, "/match", bodies[i])
		warmRec.add(time.Since(due), err)
	})
	r.count(warmRec)
	rec := &recorder{}
	replies := make([][]byte, len(prs))
	if err := r.measure(func() {
		r.lateness(runOpen(len(prs), interval, func(i int, due time.Time) {
			b, err := r.cl.do(context.Background(), http.MethodPost, "/match", bodies[nWarm+i])
			rec.add(time.Since(due), err)
			replies[i] = b
		}))
	}); err != nil {
		return err
	}
	r.count(rec)
	r.latency("latency", rec)
	r.throughput(rec.ok)

	decoded := make([]pairReply, len(replies))
	var answered []int
	cached := 0
	for i, b := range replies {
		if b == nil {
			continue
		}
		if err := json.Unmarshal(b, &decoded[i]); err != nil {
			return fmt.Errorf("decoding match reply: %w", err)
		}
		answered = append(answered, i)
		if decoded[i].Cached {
			cached++
		}
	}
	r.check("every pair answered uncached", cached == 0, fmt.Sprintf("%d of %d cached", cached, len(answered)))
	r.metric("serve.cache_hit_ratio", ratio(cached, len(answered)), "ratio", len(answered))
	if err := r.restarts(); err != nil {
		return err
	}
	r.checkNames(nil)
	r.close()

	// Parse, Prepare and MatchPrepared in-process: what the server does
	// per request, without HTTP and JSON.
	m, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		return err
	}
	var inproc []float64
	for _, i := range sample(answered, p.Checked, rand.New(rand.NewSource(seedBase(r.seed, streamPick)))) {
		t0 := time.Now()
		src, err := prepareProbe(m, prs[i][0])
		if err != nil {
			return err
		}
		dst, err := prepareProbe(m, prs[i][1])
		if err != nil {
			return err
		}
		res, err := m.MatchPrepared(src, dst)
		inproc = append(inproc, float64(time.Since(t0))/float64(time.Millisecond))
		if err != nil {
			return err
		}
		ok, detail := sameLeaves(decoded[i].Leaves, res.Mapping.Leaves)
		r.check(fmt.Sprintf("pair %d leaf mapping equals core.Matcher.Match", i), ok, detail)
	}
	if n := len(inproc); n > 0 {
		r.metric("cupidd.http_overhead_ms", r.rec.Metrics["latency_p50_ms"].Value-median(inproc), "ms", n)
	}
	return nil
}

// sameLeaves compares a server's leaf mapping with the in-process one:
// the same pairs in the same order with bit-identical similarities.
func sameLeaves(got []jsonPair, want []mapping.Element) (bool, string) {
	if len(got) != len(want) {
		return false, fmt.Sprintf("%d leaf pairs, reference has %d", len(got), len(want))
	}
	for i, w := range want {
		ref := jsonPair{Source: w.Source.Path(), Target: w.Target.Path(), WSim: w.WSim, SSim: w.SSim, LSim: w.LSim}
		if got[i] != ref {
			return false, fmt.Sprintf("leaf %d: %+v, reference %+v", i, got[i], ref)
		}
	}
	return true, ""
}
