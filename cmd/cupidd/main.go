// Command cupidd serves Cupid schema matching over HTTP/JSON: a
// prepared-schema repository that clients register schemas into once and
// then match against — the paper's framing of a matcher that a tool
// repeatedly applies against a repository of known schemas, run as a
// service. Registration pays the per-schema cost (validation, tree
// expansion, linguistic analysis) up front; every subsequent match reuses
// the prepared artifact, and batch matching fans one-vs-all out over the
// worker pool.
//
// With -data the repository is durable: every mutation's source document
// is journaled through an append-only write-ahead log — each
// Register/Replace/Remove appends one checksummed record,
// a group-commit loop batches concurrent writers into a single fsync
// (everything queued while the previous fsync ran shares the next one),
// and a background compactor folds the journal into a fresh snapshot
// generation once it passes -compact-threshold bytes. An acknowledged mutation is on disk, and
// write cost is O(record) instead of O(corpus). A restart recovers the
// newest consistent snapshot plus the ordered journal tail (torn tails
// truncated) and serves bit-identical match rankings; docs/PERSISTENCE.md
// is the full durability contract; a snapshot-only data directory opens
// as the journal's base generation. The token inverted index
// behind batch matching is never persisted; recovery rebuilds it
// deterministically while re-registering the recovered documents.
//
// Batch matching goes through a stats-driven retrieval planner by
// default (-retrieval=auto): per query, cheap statistics the index
// already maintains (corpus size, posting-list lengths, stop-token
// density) pick between exhaustive scanning, the linear signature-pruned
// scan, and inverted-index candidate generation — where only repository
// schemas sharing at least one normalized token with the source are
// touched, re-ranked by exact signature affinity, and just the top
// candidates pay the full tree match — and size the candidate budget to
// the query's actual posting pool. -retrieval=index|pruned|exact forces
// one path (every response reports the "strategy" that ran).
//
// The server is overload-resilient (docs/ARCHITECTURE.md has the serving
// layer diagram). Match traffic and mutations are admitted through
// separate bounded pools (-concurrency, -write-concurrency, -queue-depth)
// so a batch-match storm cannot starve registrations; a request that
// would queue past -queue-wait is rejected immediately with 429 and a
// Retry-After hint instead of accumulating unbounded latency. Every match
// runs under -match-deadline, threaded as a context through the
// candidate-scoring loops, so an abandoned client stops consuming CPU
// mid-ranking. Repeated matches are served from an LRU cache (-cache)
// keyed by the source reference — a registered fingerprint or the hash of
// an inline document, so a hit never parses — with singleflight
// coalescing. A register, replace or remove that changes the repository
// makes every cached ranking stale before it is acknowledged; the stale
// ranking is never served, and its recomputation re-matches only the
// pairs the change touched. Cached /match and /mappings replies depend
// only on their two schemas' content and survive writes. Under
// saturation the candidate budget is halved and the reply is flagged
// "degraded". Request bodies are capped at -max-body bytes (413 beyond).
// All errors — including 404 and 405 — are JSON {"error": ...} objects.
//
// Usage:
//
//	cupidd [flags]
//
// Flags:
//
//	-addr ADDR             listen address (default :8427)
//	-thesaurus FILE        load a thesaurus JSON file (default: built-in base)
//	-no-thesaurus          run with an empty thesaurus
//	-one-to-one            generate 1:1 mappings instead of the naive 1:n
//	-min FLOAT             acceptance threshold thaccept (default 0.5)
//	-data DIR              persist the repository under DIR (default: in-memory only)
//	-follow URL            replicate from the primary cupidd at URL: the
//	                       server becomes a read-only replica (writes are
//	                       refused with 403 naming the primary) that
//	                       replays the primary's /replicate stream into
//	                       its own journal and index, checkpoints its
//	                       position, and reconnects with backoff; requires
//	                       -data
//	-compact-threshold N   fold the journal into a new snapshot generation
//	                       once it exceeds N bytes (default 1 MiB)
//	-retrieval MODE        /match/batch retrieval strategy: auto (default;
//	                       a stats-driven planner picks exact, pruned or
//	                       indexed retrieval plus a candidate budget per
//	                       query), index (force inverted-index
//	                       candidates), pruned (force the linear
//	                       signature-pruned scan) or exact (force
//	                       exhaustive scans)
//	-concurrency N         concurrent match requests admitted (default 0:
//	                       one per match worker)
//	-write-concurrency N   concurrent mutations admitted (default 2)
//	-queue-depth N         admission queue bound per pool (default 0:
//	                       8x the pool's concurrency)
//	-queue-wait DUR        queueing latency target: reject with 429 after
//	                       waiting this long for a slot (default 1s)
//	-match-deadline DUR    end-to-end deadline per match request
//	                       (default 30s; 0 = none)
//	-cache N               match cache capacity in entries (default 1024;
//	                       0 disables caching); an entry is keyed by its
//	                       source: a registered fingerprint, or the hash
//	                       of an inline reference, so a hit never parses;
//	                       a miss parses within -match-deadline, and
//	                       errors are never cached; an entry keeps the
//	                       reply it serves, not the schemas or similarity
//	                       matrices (~0.04 MB per pair of 289-element
//	                       schemas); a batch entry also keeps its
//	                       candidates' scores, which a write makes a
//	                       memo for the ranking's recomputation
//	-max-body N            request body cap in bytes (default 4 MiB)
//
// Endpoints (request and response bodies are JSON, every reply one compact
// line; docs/API.md is the full reference, kept honest by a
// doc-conformance test):
//
//	POST   /schemas          register {name?, format, content, instances?};
//	                         format is sql, xsd, dtd, json, jsonschema or
//	                         avro; the optional instances payload ({"path":
//	                         [value, ...]} sampled leaf values) builds
//	                         per-leaf profiles for instance-aware matching
//	GET    /schemas          list registered schemas
//	GET    /schemas/{name}   fetch one schema's stored source document
//	                         (requires -data; the cluster router resolves
//	                         by-name match sources through it)
//	DELETE /schemas/{name}   remove one schema
//	POST   /match            match two schemas: {source, target}, each a
//	                         {"name": ...} reference to a registered schema
//	                         or an inline {"format", "content",
//	                         "instances"?} document
//	POST   /match/batch      rank the repository against one source schema:
//	                         {source, topK?}; returns top-K scored results
//	GET    /mappings/{a}/{c} derive a mapping between two registered
//	                         schemas with one full match (?via=direct, the
//	                         default and only accepted value)
//	GET    /replicate        stream the write-ahead journal to a follower
//	                         (snapshot transfer, then commit-ordered tail;
//	                         ?base=&records= resumes a checkpointed
//	                         position; docs/REPLICATION.md is the wire
//	                         contract)
//	GET    /healthz          liveness probe
//	GET    /readyz           readiness probe: 503 while draining, while a
//	                         follower is catching up to its primary, or
//	                         while journal compaction is catching up
//
// The server shuts down gracefully on SIGINT/SIGTERM: new requests are
// rejected with 503 (Retry-After: 1) while in-flight ones drain, then the
// journal is flushed and closed cleanly before exiting.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	cupid "repro"
	"repro/internal/serve"
)

// server bundles the registry, the serving layer and the HTTP handlers.
type server struct {
	reg *cupid.SchemaRegistry
	// persist is the durable registry when -data is set; nil means the
	// repository is in-memory only. When non-nil, reg is persist's embedded
	// in-memory registry — reads go through reg, mutations through persist.
	persist *cupid.PersistentRegistry
	// front admits requests (separate read and write pools), caches match
	// results with singleflight coalescing, threads the match deadline and
	// degrades candidate budgets under saturation. Mutating handlers must
	// call front.Invalidate after committing a change, before
	// acknowledging.
	front *serve.Frontend
	// maxBody caps request bodies (http.MaxBytesReader; 413 beyond;
	// <= 0: serve.DefaultMaxBody).
	maxBody int64
	// retrieval is /match/batch's strategy: the zero value
	// (cupid.RetrievalAuto) plans per query, the others force one path
	// (-retrieval=index|pruned|exact).
	retrieval cupid.RetrievalStrategy
	// dataDir is the persistence root (-data); empty when in-memory. The
	// follower checkpoint file lives here.
	dataDir string
	// primary is the URL this server replicates from (-follow); non-empty
	// makes the server a read-only replica: mutations are refused with
	// 403 naming the primary, and the repository converges by replaying
	// the primary's replication stream.
	primary string
	// replState tracks the follower's replication progress for /readyz
	// (non-nil exactly in follower mode).
	replState *cupid.ReplState
}

func newServer(cfg cupid.Config) (*server, error) {
	reg, err := cupid.NewRegistry(cfg)
	if err != nil {
		return nil, err
	}
	s := &server{reg: reg}
	_, opt := newFlagSet() // flag defaults double as the serving defaults
	s.initServing(opt)
	return s, nil
}

// newPersistentServer builds a server on a durable registry rooted at dir,
// journaling under popt.
func newPersistentServer(cfg cupid.Config, dir string, popt cupid.PersistOptions) (*server, error) {
	m, err := cupid.NewMatcher(cfg)
	if err != nil {
		return nil, err
	}
	p, warns, err := cupid.OpenPersistentRegistryOptions(dir, m, popt)
	if err != nil {
		return nil, err
	}
	for _, w := range warns {
		log.Printf("cupidd: recovery: %s", w)
	}
	s := &server{reg: p.Registry, persist: p}
	_, opt := newFlagSet()
	s.initServing(opt)
	return s, nil
}

// initServing (re)builds the serving layer from flag values; called with
// the defaults by the constructors and again by newServerFromOptions once
// the real flags are parsed.
func (s *server) initServing(opt *options) {
	s.front = serve.NewFrontend(s.reg, opt.serveOptions())
	s.maxBody = opt.MaxBody
}

// close drains and closes the persistence layer, if any.
func (s *server) close() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.Close()
}

// parseRef parses a reference's inline document and its instance
// samples (nil when it carries none).
func parseRef(ref serve.SchemaRef) (*cupid.Schema, cupid.InstanceSamples, error) {
	sch, err := cupid.ParseSchema(ref.Name, ref.Format, []byte(ref.Content))
	if err != nil || len(ref.Samples()) == 0 {
		return sch, nil, err
	}
	samples, err := cupid.ParseInstanceSamples(ref.Samples())
	if err != nil {
		return nil, nil, fmt.Errorf("instances: %w", err)
	}
	return sch, samples, nil
}

// source turns a schema reference into a match source, plus its
// repository entry when the reference names a registered schema. A
// registered source is keyed by its fingerprint and keeps the samples it
// was registered with. An inline document is keyed by the hash of the
// reference (serve.SchemaRef.Key) and is parsed and prepared with the
// reference's instance samples, exactly as registration prepares it, only
// when the match cache misses; a parse or prepare error is a 400 that is
// never cached.
func (s *server) source(ref serve.SchemaRef) (serve.Source, *cupid.RegistryEntry, error) {
	switch {
	case ref.Name != "" && ref.Content == "":
		e, ok := s.reg.Get(ref.Name)
		if !ok {
			return serve.Source{}, nil, serve.Errorf(http.StatusNotFound, "schema %q is not registered", ref.Name)
		}
		return serve.PreparedSource(e.Prepared), e, nil
	case ref.Content != "":
		if ref.Format == "" {
			return serve.Source{}, nil, serve.Errorf(http.StatusBadRequest, "inline schema needs a format (one of %s)", strings.Join(cupid.SchemaFormats(), ", "))
		}
		return serve.Source{Key: ref.Key(), Prepare: func() (*cupid.Prepared, error) {
			sch, samples, err := parseRef(ref)
			if err != nil {
				return nil, serve.Errorf(http.StatusBadRequest, "parsing inline schema: %v", err)
			}
			p, err := s.reg.Matcher().PrepareWithInstances(sch, samples)
			if err != nil {
				return nil, serve.Errorf(http.StatusBadRequest, "preparing inline schema: %v", err)
			}
			return p, nil
		}}, nil, nil
	default:
		return serve.Source{}, nil, serve.Errorf(http.StatusBadRequest, `schema reference needs "name" or "format"+"content"`)
	}
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if err := s.replicaWriteGuard(); err != nil {
		serve.WriteError(w, err)
		return
	}
	// The optional instances payload registers the entry with per-leaf
	// value profiles (instance-aware matching) and is journaled with the
	// source document.
	var req serve.SchemaRef
	if err := serve.DecodeJSON(w, r, s.maxBody, &req); err != nil {
		serve.WriteError(w, err)
		return
	}
	release, err := s.front.AcquireWrite(r.Context())
	if err != nil {
		serve.WriteError(w, serve.OverloadError(err, s.front.ReadPool().MaxWait()))
		return
	}
	defer release()
	var (
		e       *cupid.RegistryEntry
		created bool
	)
	if s.persist != nil {
		// The durable path parses and persists the source document
		// verbatim, so a restart re-parses exactly what was registered. A
		// failed journal commit (entry exists but err != nil) is a
		// server-side error: the mutation is in memory but its durability
		// could not be guaranteed.
		e, created, err = s.persist.RegisterSourceInstances(req.Name, req.Format, []byte(req.Content), req.Samples())
		if err != nil && e != nil {
			// A created entry is in memory even though durability failed,
			// so cached rankings are stale either way.
			if created {
				s.front.Invalidate()
			}
			serve.WriteError(w, serve.Errorf(http.StatusInternalServerError, "%v", err))
			return
		}
	} else if sch, samples, perr := parseRef(req); perr != nil {
		err = perr
	} else {
		e, created, err = s.reg.RegisterInstances(req.Name, sch, samples)
	}
	if err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "%v", err))
		return
	}
	// Invalidate after the mutation committed, before acknowledging it:
	// once the client sees this response, no cached ranking can predate
	// the registration. An idempotent re-registration of identical
	// content changed nothing, so every cached reply stays servable.
	code := http.StatusOK
	if created {
		s.front.Invalidate()
		code = http.StatusCreated
	}
	serve.WriteJSON(w, code, serve.InfoOf(e))
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.List()
	list := serve.SchemaList{Schemas: make([]serve.SchemaInfo, 0, len(entries))}
	for _, e := range entries {
		list.Schemas = append(list.Schemas, serve.InfoOf(e))
	}
	serve.WriteJSON(w, http.StatusOK, list)
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.replicaWriteGuard(); err != nil {
		serve.WriteError(w, err)
		return
	}
	name := r.PathValue("name")
	release, err := s.front.AcquireWrite(r.Context())
	if err != nil {
		serve.WriteError(w, serve.OverloadError(err, s.front.ReadPool().MaxWait()))
		return
	}
	defer release()
	var ok bool
	if s.persist != nil {
		ok, err = s.persist.Remove(name)
	} else {
		ok = s.reg.Remove(name)
	}
	if !ok {
		serve.WriteError(w, serve.Errorf(http.StatusNotFound, "schema %q is not registered", name))
		return
	}
	s.front.Invalidate() // committed (even if journaling failed below): cached rankings go stale
	if err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusInternalServerError, "%v", err))
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"removed": name})
}

// replicaWriteGuard refuses mutations on a read-only replica, naming the
// primary so clients (and the cluster router) know where writes go.
func (s *server) replicaWriteGuard() error {
	if s.primary == "" {
		return nil
	}
	return serve.Errorf(http.StatusForbidden, "read-only replica: writes go to the primary at %s", s.primary)
}

// handleGetSchema serves one registered schema's stored source document —
// the bytes it was parsed from, plus its identity. The cluster router
// uses it to resolve a by-name match source into a document it can
// scatter to every shard; it needs persistence because only the durable
// store keeps source documents (the in-memory registry keeps prepared
// artifacts only).
func (s *server) handleGetSchema(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.persist == nil {
		serve.WriteError(w, serve.Errorf(http.StatusNotImplemented, "schema source documents are only stored with -data"))
		return
	}
	doc, ok := s.persist.Doc(name)
	if !ok {
		serve.WriteError(w, serve.Errorf(http.StatusNotFound, "schema %q is not registered", name))
		return
	}
	serve.WriteJSON(w, http.StatusOK, doc)
}

// replQuery encodes/decodes the follower's resume position in the
// /replicate query string.
func replQuery(pos cupid.ReplPos) string {
	return fmt.Sprintf("base=%d&records=%d", pos.Base, pos.Records)
}

// handleReplicate streams the write-ahead journal to a follower:
// preamble, a hello that either resumes the follower's position as a
// tail or opens with a full snapshot transfer, then record frames as
// mutations commit and heartbeat pings when idle, until the follower
// disconnects. The stream bypasses the admission pools — it is one
// long-lived response serving commit-ordered bytes, not match work — and
// docs/REPLICATION.md specifies the wire format.
func (s *server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if s.persist == nil {
		serve.WriteError(w, serve.Errorf(http.StatusNotImplemented, "replication requires -data with the write-ahead journal"))
		return
	}
	var from cupid.ReplPos
	q := r.URL.Query()
	if v := q.Get("base"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "query parameter base: %v", err))
			return
		}
		from.Base = n
	}
	if v := q.Get("records"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "query parameter records must be a non-negative integer"))
			return
		}
		from.Records = n
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	if err := s.persist.StreamReplication(r.Context(), httpFlusher{w}, from, replHeartbeat); err != nil {
		// The response is already streaming; all that is left is the log.
		log.Printf("cupidd: replication stream from %s: %v", replQuery(from), err)
	}
}

// replHeartbeat is the idle-stream ping interval: frequent enough that a
// follower (or an intervening proxy) can tell a quiet primary from a
// dead one within seconds.
const replHeartbeat = 3 * time.Second

// httpFlusher adapts a ResponseWriter so StreamReplication's per-burst
// flush reaches the client at commit latency instead of buffer latency.
type httpFlusher struct{ http.ResponseWriter }

func (f httpFlusher) Flush() {
	if fl, ok := f.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// replCheckpointFile is where a follower records the last primary
// position it durably applied (under -data). It is an optimization, not
// a durability anchor: a stale or missing checkpoint only means the next
// connection resumes earlier (idempotent re-apply) or resyncs.
const replCheckpointFile = "replpos.json"

func (s *server) loadReplCheckpoint() cupid.ReplPos {
	var pos cupid.ReplPos
	b, err := os.ReadFile(filepath.Join(s.dataDir, replCheckpointFile))
	if err != nil || json.Unmarshal(b, &pos) != nil {
		return cupid.ReplPos{}
	}
	return pos
}

func (s *server) saveReplCheckpoint(pos cupid.ReplPos) {
	b, err := json.Marshal(pos)
	if err != nil {
		return
	}
	path := filepath.Join(s.dataDir, replCheckpointFile)
	tmp := path + ".tmp"
	// No fsync: losing the checkpoint costs a resync, never correctness.
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		log.Printf("cupidd: writing replication checkpoint: %v", err)
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		log.Printf("cupidd: writing replication checkpoint: %v", err)
	}
}

// followOnce runs one replication session against the primary: connect
// at the checkpointed position, then apply frames until the stream ends.
// Every applied (locally durable) position advances the checkpoint and
// makes cached rankings stale, so reads on the replica see replicated
// mutations exactly as they would see local ones.
func (s *server) followOnce(ctx context.Context) error {
	from := s.loadReplCheckpoint()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.primary+"/replicate?"+replQuery(from), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("primary returned status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return s.persist.ApplyReplication(ctx, resp.Body, s.replState, func(pos cupid.ReplPos) {
		s.front.Invalidate()
		s.saveReplCheckpoint(pos)
	})
}

// followLoop keeps a replica converging: run a session, reconnect with
// backoff when it ends (primary restart, network cut), forever until ctx
// is canceled. The returned channel closes when the loop has fully
// stopped, so shutdown can wait for the apply path to quiesce before
// closing the journal.
func (s *server) followLoop(ctx context.Context) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		backoff := 100 * time.Millisecond
		for ctx.Err() == nil {
			err := s.followOnce(ctx)
			if ctx.Err() != nil {
				return
			}
			if err != nil {
				log.Printf("cupidd: replication from %s: %v (reconnecting in %v)", s.primary, err, backoff)
			} else {
				// Clean EOF: the primary closed (restart, drain). Reconnect
				// quickly — the tail resume makes this cheap.
				backoff = 100 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 3*time.Second {
				backoff = 3 * time.Second
			}
		}
	}()
	return done
}

func (s *server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Source serve.SchemaRef `json:"source"`
		Target serve.SchemaRef `json:"target"`
	}
	if err := serve.DecodeJSON(w, r, s.maxBody, &req); err != nil {
		serve.WriteError(w, err)
		return
	}
	src, _, err := s.source(req.Source)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	dst, _, err := s.source(req.Target)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	m, cached, err := s.front.MatchPair(r.Context(), src, dst)
	if err != nil {
		serve.WriteError(w, serve.OverloadError(err, s.front.ReadPool().MaxWait()))
		return
	}
	serve.WriteJSON(w, http.StatusOK, serve.MatchReply{
		Cached:       cached,
		Leaves:       m.Leaves,
		NonLeaves:    m.NonLeaves,
		SourceSchema: m.SourceSchema,
		TargetSchema: m.TargetSchema,
	})
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req serve.BatchRequest
	if err := serve.DecodeJSON(w, r, s.maxBody, &req); err != nil {
		serve.WriteError(w, err)
		return
	}
	src, entry, err := s.source(req.Source)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	// Rank the repository, drop the source's trivial self-match, and only
	// then truncate — otherwise a registered source would eat one of the
	// caller's topK slots with itself (one extra slot absorbs it). The
	// default -retrieval=auto lets the registry's planner pick exhaustive,
	// pruned or indexed retrieval plus a candidate budget per query;
	// -retrieval=index|pruned|exact forces one path. With topK <= 0 the
	// exact scan ranks the whole repository, the other paths their
	// candidate set; "strategy" in the reply names what actually ran.
	//
	// The call goes through the serving frontend: admission (429/503 when
	// shed), the match deadline, the singleflight cache ("cached" in the
	// reply), and saturation-driven budget shrinking ("degraded", with
	// "candidate_budget" reporting the budget that actually produced the
	// ranking). candidates_scored keeps its meaning: signatures scored
	// during candidate generation — the index's survivors on
	// the indexed path, the repository size on the scans.
	want := req.TopK
	if want > 0 && entry != nil {
		want++
	}
	res, err := s.front.MatchBatch(r.Context(), src, serve.MatchSpec{Retrieval: s.retrieval, TopK: want})
	if err != nil {
		serve.WriteError(w, serve.OverloadError(err, s.front.ReadPool().MaxWait()))
		return
	}
	// A registered source trivially matches itself; Trim drops that entry
	// before truncating. The reply labels a registered source by its
	// repository name, an inline one by the parsed schema's own name.
	source, selfName := res.SourceName, ""
	if entry != nil {
		source, selfName = entry.Name, entry.Name
	}
	serve.WriteJSON(w, http.StatusOK, serve.BatchReply{
		Cached:           res.Cached,
		CandidateBudget:  res.Stats.CandidateBudget,
		CandidatesScored: res.Stats.CandidatesScored,
		Degraded:         res.Stats.Degraded,
		Planned:          res.Stats.Planned,
		Results:          serve.Trim(res.Results, selfName, res.SourceFingerprint, req.TopK),
		Source:           source,
		Strategy:         res.Stats.Strategy.String(),
	})
}

// handleMapping derives a mapping between two registered schemas with one
// full match, served through the same match cache as /match. ?via=direct
// is the default and the only accepted value.
func (s *server) handleMapping(w http.ResponseWriter, r *http.Request) {
	aName, cName := r.PathValue("a"), r.PathValue("c")
	a, ok := s.reg.Get(aName)
	if !ok {
		serve.WriteError(w, serve.Errorf(http.StatusNotFound, "schema %q is not registered", aName))
		return
	}
	c, ok := s.reg.Get(cName)
	if !ok {
		serve.WriteError(w, serve.Errorf(http.StatusNotFound, "schema %q is not registered", cName))
		return
	}
	if via := r.URL.Query().Get("via"); via != "" && via != "direct" {
		serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "query parameter via must be direct, got %q", via))
		return
	}
	m, cached, err := s.front.MatchPair(r.Context(), serve.PreparedSource(a.Prepared), serve.PreparedSource(c.Prepared))
	if err != nil {
		serve.WriteError(w, serve.OverloadError(err, s.front.ReadPool().MaxWait()))
		return
	}
	serve.WriteJSON(w, http.StatusOK, serve.MappingReply{
		Cached: cached, Leaves: m.Leaves, NonLeaves: m.NonLeaves,
		Source: aName, Target: cName, Via: "direct",
	})
}

// routeTable lists every endpoint the server exposes.
func (s *server) routeTable() []serve.Route {
	return []serve.Route{
		{Method: http.MethodPost, Pattern: "/schemas", Handler: s.handleRegister},
		{Method: http.MethodGet, Pattern: "/schemas", Handler: s.handleList},
		{Method: http.MethodGet, Pattern: "/schemas/{name}", Handler: s.handleGetSchema},
		{Method: http.MethodDelete, Pattern: "/schemas/{name}", Handler: s.handleDelete},
		{Method: http.MethodPost, Pattern: "/match", Handler: s.handleMatch},
		{Method: http.MethodPost, Pattern: "/match/batch", Handler: s.handleBatch},
		{Method: http.MethodGet, Pattern: "/mappings/{a}/{c}", Handler: s.handleMapping},
		{Method: http.MethodGet, Pattern: "/replicate", Handler: s.handleReplicate},
		{Method: http.MethodGet, Pattern: "/healthz", Handler: func(w http.ResponseWriter, _ *http.Request) {
			serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}},
		{Method: http.MethodGet, Pattern: "/readyz", Handler: s.handleReady},
	}
}

// handleReady is the readiness probe, distinct from /healthz liveness:
// 503 while draining for shutdown, while a follower is still catching up
// to its primary (a replica that has never reached the primary's horizon
// would serve arbitrarily stale rankings), and while journal compaction
// is rewriting snapshot generations (a crash mid-compaction recovers, but
// routing fresh traffic at a node paying compaction I/O is the thing
// readiness gates exist to avoid). Each reason is reported distinctly —
// "draining", "catching_up" (with the applied position and horizon), or
// "compacting" — so orchestrators can tell shutdown from replication lag.
// A follower that caught up once stays ready across a primary outage: it
// serves the last converged state rather than flapping. WAL recovery
// itself happens before the listener opens, so "connection refused"
// covers the recovering state.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.front.Draining():
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
	case s.replState != nil && !s.replState.Status().CaughtUp:
		st := s.replState.Status()
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "reason": "catching_up",
			"applied": st.Pos.String(), "horizon": st.Horizon.String(),
		})
	case s.persist != nil && s.persist.Compacting():
		serve.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "compacting"})
	default:
		serve.WriteJSON(w, http.StatusOK, map[string]any{"ready": true})
	}
}

// routes builds the HTTP handler; split out so tests can drive the server
// through httptest without binding a socket.
func (s *server) routes() http.Handler {
	return serve.Handler(s.routeTable(), func() bool { return s.front.Draining() })
}

// options holds every command-line flag value. Tests construct it
// directly; a zero field means the same as its flag default where the two
// differ only in spelling (retrieval "" is auto, compactThreshold 0 the
// default threshold).
type options struct {
	addr             string
	thesaurusPath    string
	noThesaurus      bool
	oneToOne         bool
	minAccept        float64
	dataDir          string
	follow           string
	compactThreshold int64
	retrieval        string
	writeConcurrency int
	cacheCap         int
	// Flags are the serving flags cupidd shares with cupidrouter.
	serve.Flags
}

// serveOptions derives the serving-layer configuration from the flags.
func (opt *options) serveOptions() serve.Options {
	return serve.Options{
		Read:          opt.ReadPool(),
		Write:         serve.PoolOptions{Slots: opt.writeConcurrency, Queue: opt.QueueDepth, MaxWait: opt.QueueWait},
		CacheCapacity: opt.cacheCap,
		MatchDeadline: opt.MatchDeadline,
	}
}

// newFlagSet declares the flags; split out so the doc-conformance test can
// compare the declared set against docs/API.md.
func newFlagSet() (*flag.FlagSet, *options) {
	opt := &options{}
	fs := flag.NewFlagSet("cupidd", flag.ExitOnError)
	fs.StringVar(&opt.addr, "addr", ":8427", "listen address")
	fs.StringVar(&opt.thesaurusPath, "thesaurus", "", "thesaurus JSON file (default: built-in base thesaurus)")
	fs.BoolVar(&opt.noThesaurus, "no-thesaurus", false, "run with an empty thesaurus")
	fs.BoolVar(&opt.oneToOne, "one-to-one", false, "generate 1:1 mappings")
	fs.Float64Var(&opt.minAccept, "min", 0.5, "acceptance threshold thaccept")
	fs.StringVar(&opt.dataDir, "data", "", "persist the schema repository under this directory (default: in-memory only)")
	fs.StringVar(&opt.follow, "follow", "", "replicate from the primary cupidd at this URL (read-only replica; requires -data)")
	fs.Int64Var(&opt.compactThreshold, "compact-threshold", cupid.DefaultPersistOptions().CompactBytes, "fold the write-ahead journal into a new snapshot generation once it exceeds this many bytes")
	fs.StringVar(&opt.retrieval, "retrieval", "auto", "/match/batch retrieval strategy: auto (stats-driven planner picks a strategy and candidate budget per query), index, pruned or exact")
	fs.IntVar(&opt.writeConcurrency, "write-concurrency", 2, "concurrent register/delete mutations admitted (a separate pool, so match storms cannot starve registrations)")
	fs.IntVar(&opt.cacheCap, "cache", 1024, "match cache capacity in entries (LRU with singleflight coalescing; a write makes cached rankings stale, and a stale ranking's candidate scores are reused when it is recomputed; pair matches survive writes); an entry is keyed by its source, a registered fingerprint or the hash of an inline reference, so a hit never parses; a miss parses an inline source within -match-deadline, and errors are never cached; an entry keeps the reply it serves, not the schemas or similarity matrices: about 0.04 MB per pair of 289-element schemas; 0 disables")
	opt.Flags.Register(fs)
	return fs, opt
}

// persistOptions derives the journal tuning from the flags.
func (opt *options) persistOptions() (cupid.PersistOptions, error) {
	if opt.compactThreshold < 0 {
		return cupid.PersistOptions{}, fmt.Errorf("negative -compact-threshold %d", opt.compactThreshold)
	}
	popt := cupid.DefaultPersistOptions()
	if opt.compactThreshold > 0 {
		popt.CompactBytes = opt.compactThreshold
	}
	return popt, nil
}

// retrievalStrategy derives the /match/batch strategy from -retrieval;
// the empty string (a directly constructed options value) is the flag
// default, auto.
func (opt *options) retrievalStrategy() (cupid.RetrievalStrategy, error) {
	if opt.retrieval == "" {
		return cupid.RetrievalAuto, nil
	}
	return cupid.ParseRetrievalStrategy(opt.retrieval)
}

// newServerFromOptions assembles the configured server.
func newServerFromOptions(opt *options) (*server, error) {
	cfg := cupid.DefaultConfig()
	switch {
	case opt.noThesaurus:
		cfg.Thesaurus = cupid.NewThesaurus()
	case opt.thesaurusPath != "":
		f, err := os.Open(opt.thesaurusPath)
		if err != nil {
			return nil, err
		}
		th, err := cupid.ReadThesaurus(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading thesaurus: %w", err)
		}
		cfg.Thesaurus = th
	}
	if opt.oneToOne {
		cfg.Mapping.Cardinality = cupid.OneToOne
	}
	cfg.Mapping.ThAccept = opt.minAccept
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.writeConcurrency < 0 {
		return nil, fmt.Errorf("-write-concurrency must be >= 0")
	}
	if opt.cacheCap < 0 {
		return nil, fmt.Errorf("-cache must be >= 0 (0 disables caching)")
	}
	strat, err := opt.retrievalStrategy()
	if err != nil {
		return nil, err
	}

	if opt.follow != "" {
		if opt.dataDir == "" {
			return nil, fmt.Errorf("-follow requires -data (the replica replays the primary's journal into its own)")
		}
		u, uerr := url.Parse(opt.follow)
		if uerr != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("-follow needs an absolute primary URL, got %q", opt.follow)
		}
	}

	var s *server
	if opt.dataDir != "" {
		popt, perr := opt.persistOptions()
		if perr != nil {
			return nil, perr
		}
		s, err = newPersistentServer(cfg, opt.dataDir, popt)
	} else {
		s, err = newServer(cfg)
	}
	if err != nil {
		return nil, err
	}
	s.dataDir = opt.dataDir
	if opt.follow != "" {
		s.primary = strings.TrimRight(opt.follow, "/")
		s.replState = &cupid.ReplState{}
	}
	s.retrieval = strat
	s.initServing(opt)
	return s, nil
}

func run(args []string) error {
	fs, opt := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newServerFromOptions(opt)
	if err != nil {
		return err
	}
	if s.persist != nil {
		log.Printf("cupidd: repository persisted under %s via the write-ahead journal (%d schemas restored)", opt.dataDir, s.reg.Len())
	}
	srv := &http.Server{
		Addr:              opt.addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var followDone <-chan struct{}
	if s.primary != "" {
		log.Printf("cupidd: read-only replica following %s", s.primary)
		followDone = s.followLoop(ctx)
	}
	log.Printf("cupidd: listening on %s", opt.addr)
	err = serve.ListenAndDrain(ctx, srv, func() {
		stop()
		log.Print("cupidd: shutting down: draining in-flight requests, rejecting new ones with 503")
		// New requests (including queued admissions) are refused from here
		// on; Shutdown then waits for the in-flight ones.
		s.front.BeginDrain()
	})
	// Close the journal only after in-flight requests drained and, on a
	// follower, the replication apply loop stopped, so the last replicated
	// record has committed.
	if followDone != nil {
		stop()
		select {
		case <-followDone:
		case <-time.After(5 * time.Second):
			log.Print("cupidd: replication loop did not stop in time")
		}
	}
	cerr := s.close()
	if err != nil {
		// The HTTP error takes precedence, but a persistence failure must
		// not vanish silently.
		if cerr != nil {
			log.Printf("cupidd: closing repository journal: %v", cerr)
		}
		return err
	}
	if cerr != nil {
		return fmt.Errorf("closing repository journal: %w", cerr)
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cupidd:", err)
		os.Exit(1)
	}
}
