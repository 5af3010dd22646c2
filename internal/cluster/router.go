package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/registry"
	"repro/internal/serve"
)

// Options configures a Router. Only Shards is required; the rest default
// like cupidd's own serving knobs.
type Options struct {
	// Shards is the member list, base URLs in ring order. Order is
	// identity: the ring hashes by index, so the same list (in the same
	// order) always produces the same placement.
	Shards []string
	// Vnodes is the virtual-node count per shard (<= 0: DefaultVnodes).
	Vnodes int
	// Read sizes the admission pool for match traffic — the same
	// serve.Pool cupidd admits through, so a router under a match storm
	// sheds with 429 instead of amplifying the storm N-fold onto every
	// shard.
	Read serve.PoolOptions
	// MatchDeadline bounds a scatter-gather end to end, queue wait
	// included; 0 means no deadline. A shard that cannot answer within it
	// is shed from the merge, not waited for.
	MatchDeadline time.Duration
	// MaxBody caps request bodies (<= 0: serve.DefaultMaxBody).
	MaxBody int64
	// Client issues the shard requests; nil uses a plain http.Client
	// (per-request contexts carry the deadline, so no global timeout).
	Client *http.Client
}

// Router is the cluster front door: consistent-hash placement for
// registrations and deletes, scatter-gather with deterministic merge for
// /match/batch, and the same admission/drain discipline as a single
// cupidd. All methods are safe for concurrent use.
type Router struct {
	shards   []string
	ring     *Ring
	reads    *serve.Pool
	deadline time.Duration
	maxBody  int64
	client   *http.Client
	handler  http.Handler
	draining atomic.Bool
}

// shardReplyLimit caps how much of a shard response the router will read
// — mirrors the WAL's own payload sanity bound.
const shardReplyLimit = 64 << 20

// NewRouter builds a Router over opt.Shards.
func NewRouter(opt Options) (*Router, error) {
	if len(opt.Shards) == 0 {
		return nil, errors.New("cluster: router needs at least one shard URL")
	}
	shards := make([]string, len(opt.Shards))
	for i, s := range opt.Shards {
		u, err := url.Parse(s)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: shard %d: %q is not an absolute URL", i, s)
		}
		shards[i] = strings.TrimRight(s, "/")
	}
	ring, err := NewRing(len(shards), opt.Vnodes)
	if err != nil {
		return nil, err
	}
	maxBody := opt.MaxBody
	if maxBody <= 0 {
		maxBody = serve.DefaultMaxBody
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		shards:   shards,
		ring:     ring,
		reads:    serve.NewPool(opt.Read),
		deadline: opt.MatchDeadline,
		maxBody:  maxBody,
		client:   client,
	}
	rt.handler = serve.Handler(rt.RouteTable(), rt.Draining)
	return rt, nil
}

// Ring returns the placement ring (for tests and diagnostics).
func (rt *Router) Ring() *Ring { return rt.ring }

// Shards returns the member base URLs in ring order.
func (rt *Router) Shards() []string { return append([]string(nil), rt.shards...) }

// ReadPool returns the match-traffic admission pool.
func (rt *Router) ReadPool() *serve.Pool { return rt.reads }

// BeginDrain stops admitting new work; /healthz and /readyz stay
// reachable so orchestrators see the drain.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (rt *Router) Draining() bool { return rt.draining.Load() }

// ServeHTTP dispatches to the route table; once draining, everything but
// the probes is refused with 503.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

// RouteTable lists every endpoint the router exposes — the single-node
// API minus /match (pair matches are not sharded work; callers hit a
// shard directly) plus nothing: clients cannot tell a router from a
// cupidd for the endpoints both serve. Exported so the cupidrouter
// command's documentation conformance test can diff it against API.md.
func (rt *Router) RouteTable() []serve.Route {
	return []serve.Route{
		{Method: http.MethodPost, Pattern: "/schemas", Handler: rt.handleRegister},
		{Method: http.MethodGet, Pattern: "/schemas", Handler: rt.handleList},
		{Method: http.MethodGet, Pattern: "/schemas/{name}", Handler: rt.handleGetSchema},
		{Method: http.MethodDelete, Pattern: "/schemas/{name}", Handler: rt.handleDelete},
		{Method: http.MethodPost, Pattern: "/match/batch", Handler: rt.handleBatch},
		{Method: http.MethodGet, Pattern: "/healthz", Handler: rt.handleHealth},
		{Method: http.MethodGet, Pattern: "/readyz", Handler: rt.handleReady},
	}
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"shards": len(rt.shards),
		"read":   rt.reads.Stats(),
	})
}

func (rt *Router) handleReady(w http.ResponseWriter, _ *http.Request) {
	if rt.draining.Load() {
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"ready": true})
}

// handleRegister forwards a registration to the shard that owns the
// schema's name and relays the shard's reply verbatim (status code
// included, so 201-created vs 200-replaced survives the hop).
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body json.RawMessage
	if err := serve.DecodeJSON(w, r, rt.maxBody, &body); err != nil {
		serve.WriteError(w, err)
		return
	}
	// Peek only the name for placement; the owning shard validates the
	// rest (unknown fields, format, parse errors) under its own contract.
	var peek struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "decoding request body: %v", err))
		return
	}
	if peek.Name == "" {
		serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "registration needs a schema name for placement"))
		return
	}
	ctx, cancel := serve.WithDeadline(r.Context(), rt.deadline)
	defer cancel()
	owner := rt.shards[rt.ring.Owner(peek.Name)]
	status, reply, err := rt.call(ctx, http.MethodPost, owner, "/schemas", body)
	if err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "shard %s: %v", owner, err))
		return
	}
	relay(w, status, reply)
}

// handleDelete forwards a delete to the owning shard.
func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	rt.forwardByName(w, r, http.MethodDelete)
}

// handleGetSchema forwards a source-document fetch to the owning shard —
// the same endpoint the router itself uses to resolve a by-name match
// source before scattering it inline.
func (rt *Router) handleGetSchema(w http.ResponseWriter, r *http.Request) {
	rt.forwardByName(w, r, http.MethodGet)
}

func (rt *Router) forwardByName(w http.ResponseWriter, r *http.Request, method string) {
	name := r.PathValue("name")
	ctx, cancel := serve.WithDeadline(r.Context(), rt.deadline)
	defer cancel()
	owner := rt.shards[rt.ring.Owner(name)]
	status, reply, err := rt.call(ctx, method, owner, "/schemas/"+url.PathEscape(name), nil)
	if err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "shard %s: %v", owner, err))
		return
	}
	relay(w, status, reply)
}

// handleList scatters GET /schemas to every shard and merges the lists,
// sorted by name. Unlike /match/batch there is no partial mode: a
// listing that silently omits a shard's schemas would misreport what is
// registered, so any shard failure fails the list with 502.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := serve.WithDeadline(r.Context(), rt.deadline)
	defer cancel()
	type listReply struct {
		Schemas []json.RawMessage `json:"schemas"`
	}
	replies := make([]listReply, len(rt.shards))
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, shard := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := rt.call(ctx, http.MethodGet, shard, "/schemas", nil)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, shardErrText(body))
			}
			if err == nil {
				err = json.Unmarshal(body, &replies[i])
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	type namedRaw struct {
		name string
		raw  json.RawMessage
	}
	var all []namedRaw
	for i := range rt.shards {
		if errs[i] != nil {
			serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "shard %s: %v", rt.shards[i], errs[i]))
			return
		}
		for _, raw := range replies[i].Schemas {
			var peek struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(raw, &peek); err != nil {
				serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "shard %s: malformed schema entry: %v", rt.shards[i], err))
				return
			}
			all = append(all, namedRaw{peek.Name, raw})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	merged := make([]json.RawMessage, len(all))
	for i, nr := range all {
		merged[i] = nr.raw
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"schemas": merged})
}

// schemaRef mirrors cupidd's request schema reference.
type schemaRef struct {
	Name    string `json:"name,omitempty"`
	Format  string `json:"format,omitempty"`
	Content string `json:"content,omitempty"`
}

// shardDoc is cupidd's GET /schemas/{name} reply: the stored source
// document the router re-scatters inline.
type shardDoc struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Format      string `json:"format"`
	Content     string `json:"content"`
}

// wireResult is one ranked entry in a shard's /match/batch reply. Leaves
// is kept as raw bytes and re-emitted verbatim, so leaf mappings survive
// the router byte-for-byte.
type wireResult struct {
	Name        string          `json:"name"`
	Fingerprint string          `json:"fingerprint"`
	Score       float64         `json:"score"`
	Leaves      json.RawMessage `json:"leaves"`
}

// shardBatch is a shard's /match/batch reply.
type shardBatch struct {
	Source           string       `json:"source"`
	Strategy         string       `json:"strategy"`
	Planned          bool         `json:"planned"`
	CandidatesScored int          `json:"candidates_scored"`
	CandidateBudget  int          `json:"candidate_budget"`
	Cached           bool         `json:"cached"`
	Degraded         bool         `json:"degraded"`
	Results          []wireResult `json:"results"`
}

// stats decodes the reply's retrieval fields for MergeStats; a strategy
// name the registry does not know fails the shard.
func (b shardBatch) stats() (registry.RetrievalStats, error) {
	strategy, err := registry.ParseStrategy(b.Strategy)
	return registry.RetrievalStats{
		Strategy:         strategy,
		Planned:          b.Planned,
		CandidatesScored: b.CandidatesScored,
		CandidateBudget:  b.CandidateBudget,
		Degraded:         b.Degraded,
	}, err
}

// shardStatus is the per-shard outcome in the router's batch reply.
type shardStatus struct {
	Shard    string `json:"shard"`
	OK       bool   `json:"ok"`
	Strategy string `json:"strategy,omitempty"`
	Error    string `json:"error,omitempty"`
}

// handleBatch is the scatter-gather match: resolve a by-name source to
// its stored document (owning shard), scatter it inline to every shard
// with one extra top-K slot, merge the per-shard rankings into the
// global order (score descending, name then fingerprint ascending),
// drop the source's own entry, and truncate. Admission runs through the
// read pool before any shard sees the request; the match deadline bounds
// the whole scatter, and a shard that fails or cannot answer in time is
// shed — its results are simply absent and the reply is marked degraded
// with the shard's error in "shards", instead of the router hanging on
// it.
//
// The aggregate fields are MergeStats over the responding shards' stats:
// candidates_scored and candidate_budget sum, "planned" ANDs, "degraded"
// ORs (and any shed shard sets it too), and "strategy" is the shared
// value or the literal "mixed". "cached" ANDs over the responding shards.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Source schemaRef `json:"source"`
		TopK   int       `json:"topK,omitempty"`
	}
	if err := serve.DecodeJSON(w, r, rt.maxBody, &req); err != nil {
		serve.WriteError(w, err)
		return
	}
	ctx, cancel := serve.WithDeadline(r.Context(), rt.deadline)
	defer cancel()

	release, err := rt.reads.Acquire(ctx)
	if err != nil {
		serve.WriteError(w, serve.OverloadError(err, rt.reads.MaxWait()))
		return
	}
	defer release()

	// Resolve a by-name source into its stored document so every shard
	// (not just the owner) can score it. The owner's entry for the name
	// is the source itself; remember its identity to drop the trivial
	// self-match after the merge.
	scatter := req.Source
	var selfName, selfFP string
	if req.Source.Name != "" && req.Source.Content == "" {
		owner := rt.shards[rt.ring.Owner(req.Source.Name)]
		status, body, err := rt.call(ctx, http.MethodGet, owner, "/schemas/"+url.PathEscape(req.Source.Name), nil)
		if err != nil {
			serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "resolving source on shard %s: %v", owner, err))
			return
		}
		if status != http.StatusOK {
			serve.WriteError(w, serve.Errorf(status, "%s", shardErrText(body)))
			return
		}
		var doc shardDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "shard %s: malformed schema document: %v", owner, err))
			return
		}
		selfName, selfFP = doc.Name, doc.Fingerprint
		scatter = schemaRef{Name: doc.Name, Format: doc.Format, Content: doc.Content}
	}

	// One extra slot absorbs the source's own entry on its owning shard;
	// merging per-shard top-(K+1) is sufficient for the global top-K.
	want := req.TopK
	if want > 0 && selfName != "" {
		want++
	}
	payload, err := json.Marshal(map[string]any{"source": scatter, "topK": want})
	if err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusInternalServerError, "encoding scatter request: %v", err))
		return
	}

	batches := make([]shardBatch, len(rt.shards))
	stats := make([]registry.RetrievalStats, len(rt.shards))
	errs := make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, shard := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := rt.call(ctx, http.MethodPost, shard, "/match/batch", payload)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, shardErrText(body))
			}
			if err == nil {
				err = json.Unmarshal(body, &batches[i])
			}
			if err == nil {
				stats[i], err = batches[i].stats()
			}
			errs[i] = err
		}()
	}
	wg.Wait()

	statuses := make([]shardStatus, len(rt.shards))
	var (
		merged []wireResult
		parts  []registry.RetrievalStats
		source string
		cached = true
		shed   bool
	)
	for i, shard := range rt.shards {
		if errs[i] != nil {
			statuses[i] = shardStatus{Shard: shard, OK: false, Error: errs[i].Error()}
			shed = true
			continue
		}
		b := batches[i]
		statuses[i] = shardStatus{Shard: shard, OK: true, Strategy: b.Strategy}
		if len(parts) == 0 {
			source = b.Source
		}
		parts = append(parts, stats[i])
		cached = cached && b.Cached
		merged = append(merged, b.Results...)
	}
	if len(parts) == 0 {
		serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "all %d shards failed; first: %v", len(rt.shards), errs[0]))
		return
	}
	if selfName != "" {
		source = selfName
	}
	agg := MergeStats(parts)

	sort.SliceStable(merged, func(i, j int) bool {
		return rankedLess(merged[i].Score, merged[i].Name, merged[i].Fingerprint,
			merged[j].Score, merged[j].Name, merged[j].Fingerprint)
	})
	results := make([]wireResult, 0, len(merged))
	for _, m := range merged {
		if selfName != "" && m.Name == selfName && m.Fingerprint == selfFP {
			continue
		}
		if req.TopK > 0 && len(results) == req.TopK {
			break
		}
		results = append(results, m)
	}

	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"source":            source,
		"strategy":          agg.StrategyLabel(),
		"planned":           agg.Planned,
		"candidates_scored": agg.CandidatesScored,
		"candidate_budget":  agg.CandidateBudget,
		"cached":            cached,
		"degraded":          agg.Degraded || shed,
		"shards":            statuses,
		"results":           results,
	})
}

// call issues one shard request and reads the (bounded) reply.
func (rt *Router) call(ctx context.Context, method, shard, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, shard+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, shardReplyLimit))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
}

// relay writes a shard reply through verbatim.
func relay(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// shardErrText extracts the "error" field of a shard's JSON error reply,
// falling back to the raw (trimmed) body.
func shardErrText(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	s := strings.TrimSpace(string(body))
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
