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
	client := opt.Client
	if client == nil {
		client = &http.Client{}
	}
	rt := &Router{
		shards:   shards,
		ring:     ring,
		reads:    serve.NewPool(opt.Read),
		deadline: opt.MatchDeadline,
		maxBody:  opt.MaxBody,
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
		{Method: http.MethodGet, Pattern: "/schemas/{name}", Handler: rt.handleByName},
		{Method: http.MethodDelete, Pattern: "/schemas/{name}", Handler: rt.handleByName},
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
// schema's name (the shard's status survives the hop, so 201-created
// stays distinct from 200-replaced).
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	var body json.RawMessage
	if err := serve.DecodeJSON(w, r, rt.maxBody, &body); err != nil {
		serve.WriteError(w, err)
		return
	}
	// Decode the reference for placement only: the owning shard validates
	// the body (unknown fields, format, parse errors) under its own
	// contract, and receives it as sent.
	var ref serve.SchemaRef
	if err := json.Unmarshal(body, &ref); err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "decoding request body: %v", err))
		return
	}
	if ref.Name == "" {
		serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "registration needs a schema name for placement"))
		return
	}
	rt.forward(w, r, ref.Name, "/schemas", body)
}

// handleByName forwards GET and DELETE /schemas/{name} to the owning
// shard. GET is the endpoint the router itself uses to resolve a by-name
// match source before scattering it inline.
func (rt *Router) handleByName(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rt.forward(w, r, name, "/schemas/"+url.PathEscape(name), nil)
}

// forward sends r's method to path on the shard that owns name and
// relays the shard's reply verbatim, status code included.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, name, path string, body []byte) {
	ctx, cancel := serve.WithDeadline(r.Context(), rt.deadline)
	defer cancel()
	owner := rt.shards[rt.ring.Owner(name)]
	status, reply, err := rt.call(ctx, r.Method, owner, path, body)
	if err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "shard %s: %v", owner, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(reply)
}

// handleList scatters GET /schemas to every shard and merges the lists,
// sorted by name. Unlike /match/batch there is no partial mode: a
// listing that silently omits a shard's schemas would misreport what is
// registered, so any shard failure fails the list with 502.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := serve.WithDeadline(r.Context(), rt.deadline)
	defer cancel()
	replies, errs := scatter[serve.SchemaList](ctx, rt, http.MethodGet, "/schemas", nil)
	merged := serve.SchemaList{Schemas: []serve.SchemaInfo{}}
	for i := range rt.shards {
		if errs[i] != nil {
			serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "shard %s: %v", rt.shards[i], errs[i]))
			return
		}
		merged.Schemas = append(merged.Schemas, replies[i].Schemas...)
	}
	sort.Slice(merged.Schemas, func(i, j int) bool { return merged.Schemas[i].Name < merged.Schemas[j].Name })
	serve.WriteJSON(w, http.StatusOK, merged)
}

// handleBatch is the scatter-gather match: resolve a by-name source to
// its stored document and instance samples (owning shard), scatter it
// inline to every shard with one extra top-K slot, merge the per-shard
// rankings with serve.Merge, and apply the single-node batch rule with
// serve.Trim (drop the source's own entry, then truncate). Admission
// runs through the read pool before any shard sees the request; the
// match deadline bounds the whole scatter, and a shard that fails or
// cannot answer in time is shed — its results are simply absent and the
// reply is marked degraded with the shard's error in "shards", instead
// of the router hanging on it.
//
// The aggregate fields are MergeStats over the responding shards' stats:
// candidates_scored and candidate_budget sum, "planned" ANDs, "degraded"
// ORs (and any shed shard sets it too), and "strategy" is the shared
// value or the literal "mixed". "cached" ANDs over the responding shards.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req serve.BatchRequest
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

	// Resolve a by-name source into its stored document and samples so
	// every shard (not just the owner) prepares it as the owner did. The
	// owner's entry for the name is the source itself; remember its
	// identity to drop the trivial self-match after the merge.
	shardReq := req
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
		var doc registry.Doc
		if err := json.Unmarshal(body, &doc); err != nil {
			serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "shard %s: malformed schema document: %v", owner, err))
			return
		}
		selfName, selfFP = doc.Name, doc.Fingerprint
		shardReq.Source = serve.SchemaRef{Name: doc.Name, Format: doc.Format, Content: doc.Content, Instances: json.RawMessage(doc.Instances)}
		// One extra slot absorbs the source's own entry on its owning
		// shard; merging per-shard top-(K+1) suffices for the global top-K.
		if shardReq.TopK > 0 {
			shardReq.TopK++
		}
	}
	payload, err := json.Marshal(shardReq)
	if err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusInternalServerError, "encoding scatter request: %v", err))
		return
	}

	batches, errs := scatter[serve.BatchReply](ctx, rt, http.MethodPost, "/match/batch", payload)

	statuses := make([]serve.ShardStatus, len(rt.shards))
	var (
		rankings [][]serve.BatchResult
		parts    []registry.RetrievalStats
		source   string
		cached   = true
		shed     bool
	)
	for i, shard := range rt.shards {
		var st registry.RetrievalStats
		if errs[i] == nil {
			st, errs[i] = batches[i].Stats() // an unknown strategy fails the shard
		}
		if errs[i] != nil {
			statuses[i] = serve.ShardStatus{Shard: shard, OK: false, Error: errs[i].Error()}
			shed = true
			continue
		}
		b := batches[i]
		statuses[i] = serve.ShardStatus{Shard: shard, OK: true, Strategy: b.Strategy}
		if len(parts) == 0 {
			source = b.Source
		}
		parts = append(parts, st)
		cached = cached && b.Cached
		rankings = append(rankings, b.Results)
	}
	if len(parts) == 0 {
		serve.WriteError(w, serve.Errorf(http.StatusBadGateway, "all %d shards failed; first: %v", len(rt.shards), errs[0]))
		return
	}
	if selfName != "" {
		source = selfName
	}
	agg := MergeStats(parts)
	serve.WriteJSON(w, http.StatusOK, serve.BatchReply{
		Cached:           cached,
		CandidateBudget:  agg.CandidateBudget,
		CandidatesScored: agg.CandidatesScored,
		Degraded:         agg.Degraded || shed,
		Planned:          agg.Planned,
		Results:          serve.Trim(serve.Merge(rankings...), selfName, selfFP, req.TopK),
		Shards:           statuses,
		Source:           source,
		Strategy:         agg.StrategyLabel(),
	})
}

// scatter sends one request to every shard concurrently and decodes each
// 200 reply into replies[i]; errs[i] is the shard's transport error,
// non-200 status or malformed reply.
func scatter[T any](ctx context.Context, rt *Router, method, path string, body []byte) (replies []T, errs []error) {
	replies = make([]T, len(rt.shards))
	errs = make([]error, len(rt.shards))
	var wg sync.WaitGroup
	for i, shard := range rt.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, reply, err := rt.call(ctx, method, shard, path, body)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("status %d: %s", status, shardErrText(reply))
			}
			if err == nil {
				err = json.Unmarshal(reply, &replies[i])
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	return replies, errs
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
