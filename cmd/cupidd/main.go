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
// (linger tunable via -wal-group-commit), and a background compactor
// folds the journal into a fresh snapshot generation once it passes
// -compact-threshold bytes. An acknowledged mutation is on disk, and
// write cost is O(record) instead of O(corpus). A restart recovers the
// newest consistent snapshot plus the ordered journal tail (torn tails
// truncated) and serves bit-identical match rankings; docs/PERSISTENCE.md
// is the full durability contract; a snapshot-only data directory opens
// as the journal's base generation. The sharded token inverted index
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
// the query's actual posting pool. -retrieval=index|pruned|family|exact
// forces one path (every response reports the "strategy" that ran).
//
// The server is overload-resilient (docs/ARCHITECTURE.md has the serving
// layer diagram). Match traffic and mutations are admitted through
// separate bounded pools (-concurrency, -write-concurrency, -queue-depth)
// so a batch-match storm cannot starve registrations; a request that
// would queue past -queue-wait is rejected immediately with 429 and a
// Retry-After hint instead of accumulating unbounded latency. Every match
// runs under -match-deadline, threaded as a context through the
// candidate-scoring loops, so an abandoned client stops consuming CPU
// mid-ranking. Repeated matches are served from a fingerprint-keyed LRU
// cache (-cache) with singleflight coalescing, invalidated on every
// register/replace/remove before the mutation is acknowledged. Under
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
//	-wal-group-commit DUR  linger after a write batch opens, letting more
//	                       concurrent writers join the same fsync (default 0:
//	                       batch only what queued during the previous fsync)
//	-compact-threshold N   fold the journal into a new snapshot generation
//	                       once it exceeds N bytes (default 1 MiB)
//	-retrieval MODE        /match/batch retrieval strategy: auto (default;
//	                       a stats-driven planner picks exact, pruned,
//	                       indexed or family retrieval plus a candidate
//	                       budget per query), index (force inverted-index
//	                       candidates), pruned (force the linear
//	                       signature-pruned scan), family (force
//	                       family-routed matching through the installed
//	                       corpus clustering) or exact (force exhaustive
//	                       scans)
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
//	                       0 disables caching)
//	-max-body N            request body cap in bytes (default 4 MiB)
//
// Endpoints (request and response bodies are JSON; docs/API.md is the full
// reference, kept honest by a doc-conformance test):
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
//	                         or an inline {"format", "content"} document
//	POST   /match/batch      rank the repository against one source schema:
//	                         {source, topK?}; returns top-K scored results
//	GET    /mappings/{a}/{c} derive a mapping between two registered
//	                         schemas: ?via=direct (one full match, the
//	                         default) or ?via=family (composed transitively
//	                         through the schemas' shared family medoid,
//	                         similarities multiplied along each chain)
//	POST   /corpus/cluster   start an asynchronous corpus-clustering job
//	                         (greedy-medoid schema families over
//	                         index-generated candidate pairs); returns 202
//	                         with a job id; optional body {neighbors,
//	                         min_affinity}
//	GET    /corpus/cluster/{id} poll a clustering job (running/done/failed)
//	GET    /corpus/families  the installed clustering's canonical JSON,
//	                         byte-identical across restarts and replicas
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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
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
	// call front.Invalidate after committing, before acknowledging.
	front *serve.Frontend
	// maxBody caps request bodies (http.MaxBytesReader; 413 beyond).
	maxBody int64
	// retrieval is /match/batch's strategy: the zero value
	// (cupid.RetrievalAuto) plans per query, the others force one path
	// (-retrieval=index|pruned|family|exact).
	retrieval cupid.RetrievalStrategy
	prune     cupid.PruneOptions
	// indexOpt sizes the indexed path's candidate budget (same Limit
	// policy as prune, tighter default fraction).
	indexOpt cupid.PruneOptions
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
	// corpusJobs tracks asynchronous corpus-clustering runs
	// (POST /corpus/cluster; corpus.go).
	corpusJobs clusterJobs
}

func newServer(cfg cupid.Config) (*server, error) {
	reg, err := cupid.NewRegistry(cfg)
	if err != nil {
		return nil, err
	}
	s := &server{reg: reg, prune: cupid.DefaultPruneOptions(), indexOpt: cupid.DefaultIndexOptions()}
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
	s := &server{reg: p.Registry, persist: p, prune: cupid.DefaultPruneOptions(), indexOpt: cupid.DefaultIndexOptions()}
	_, opt := newFlagSet()
	s.initServing(opt)
	return s, nil
}

// initServing (re)builds the serving layer from flag values; called with
// the defaults by the constructors and again by newServerFromOptions once
// the real flags are parsed. A zero maxBody (tests construct the zero
// options value directly) gets the flag's default cap.
func (s *server) initServing(opt *options) {
	s.front = serve.NewFrontend(s.reg, opt.serveOptions())
	s.maxBody = opt.maxBody
	if s.maxBody <= 0 {
		s.maxBody = 4 << 20
	}
}

// close drains and closes the persistence layer, if any.
func (s *server) close() error {
	if s.persist == nil {
		return nil
	}
	return s.persist.Close()
}

// schemaRef names a schema for a match request: either a registered
// repository entry ({"name": "po"}) or an inline document
// ({"format": "sql", "content": "CREATE TABLE ..."}).
type schemaRef struct {
	Name    string `json:"name,omitempty"`
	Format  string `json:"format,omitempty"`
	Content string `json:"content,omitempty"`
}

// schemaInfo is the summary returned for registered schemas.
type schemaInfo struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Elements    int    `json:"elements"`
	Leaves      int    `json:"leaves"`
}

func infoOf(e *cupid.RegistryEntry) schemaInfo {
	return schemaInfo{
		Name:        e.Name,
		Fingerprint: e.Fingerprint,
		Elements:    e.Prepared.Schema().Len(),
		Leaves:      e.Prepared.Tree().NumLeaves(),
	}
}

// httpError carries a status code (and an optional Retry-After hint for
// overload rejections) out of a handler helper.
type httpError struct {
	code       int
	msg        string
	retryAfter time.Duration
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// serveErr maps serving-layer admission and lifecycle errors onto the
// HTTP overload contract: 429 + Retry-After for shed load, 503 +
// Retry-After for draining and for a blown match deadline. Anything else
// passes through.
func (s *server) serveErr(err error) error {
	hint := s.front.ReadPool().MaxWait()
	if hint < time.Second {
		hint = time.Second
	}
	switch {
	case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrQueueWait):
		return &httpError{code: http.StatusTooManyRequests, msg: "server overloaded: " + err.Error(), retryAfter: hint}
	case errors.Is(err, serve.ErrDraining):
		return &httpError{code: http.StatusServiceUnavailable, msg: "server is shutting down", retryAfter: time.Second}
	case errors.Is(err, context.DeadlineExceeded):
		return &httpError{code: http.StatusServiceUnavailable, msg: "match deadline exceeded under load; retry", retryAfter: time.Second}
	case errors.Is(err, context.Canceled):
		// The client is gone; the status is for the access log only.
		return errf(http.StatusServiceUnavailable, "request canceled by client")
	}
	return err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		log.Printf("cupidd: writing response: %v", err)
	}
}

func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	if errors.As(err, &he) {
		code = he.code
		if he.retryAfter > 0 {
			secs := int((he.retryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody decodes a JSON request body, rejecting unknown fields so
// client typos surface as errors instead of silent defaults, and capping
// the body at -max-body bytes (413, and the connection closed, beyond —
// http.MaxBytesReader stops a mis-sized upload from being read to the
// end just to be refused).
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			return errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes (-max-body)", mbe.Limit)
		}
		return errf(http.StatusBadRequest, "decoding request body: %v", err)
	}
	return nil
}

// resolve turns a schemaRef into a prepared schema (plus its repository
// name when registered).
func (s *server) resolve(ref schemaRef) (*cupid.Prepared, string, error) {
	switch {
	case ref.Name != "" && ref.Content == "":
		e, ok := s.reg.Get(ref.Name)
		if !ok {
			return nil, "", errf(http.StatusNotFound, "schema %q is not registered", ref.Name)
		}
		return e.Prepared, e.Name, nil
	case ref.Content != "":
		if ref.Format == "" {
			return nil, "", errf(http.StatusBadRequest, "inline schema needs a format (one of %s)", strings.Join(cupid.SchemaFormats(), ", "))
		}
		sch, err := cupid.ParseSchema(ref.Name, ref.Format, []byte(ref.Content))
		if err != nil {
			return nil, "", errf(http.StatusBadRequest, "parsing inline schema: %v", err)
		}
		p, err := s.reg.Matcher().Prepare(sch)
		if err != nil {
			return nil, "", errf(http.StatusBadRequest, "preparing inline schema: %v", err)
		}
		return p, "", nil
	default:
		return nil, "", errf(http.StatusBadRequest, `schema reference needs "name" or "format"+"content"`)
	}
}

func (s *server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if err := s.replicaWriteGuard(); err != nil {
		writeError(w, err)
		return
	}
	var req struct {
		Name    string `json:"name,omitempty"`
		Format  string `json:"format"`
		Content string `json:"content"`
		// Instances is the optional sampled-instances payload: an object
		// mapping leaf paths to arrays of sampled scalar values. When
		// present, the entry is registered with per-leaf value profiles
		// (instance-aware matching) and the payload is journaled with the
		// source document.
		Instances json.RawMessage `json:"instances,omitempty"`
	}
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	release, err := s.front.AcquireWrite(r.Context())
	if err != nil {
		writeError(w, s.serveErr(err))
		return
	}
	defer release()
	instances := []byte(req.Instances)
	if string(instances) == "null" { // explicit JSON null = no samples
		instances = nil
	}
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
		e, created, err = s.persist.RegisterSourceInstances(req.Name, req.Format, []byte(req.Content), instances)
		if err != nil && e != nil {
			// The mutation is in memory even though durability failed, so
			// cached rankings are stale either way.
			s.front.Invalidate()
			writeError(w, errf(http.StatusInternalServerError, "%v", err))
			return
		}
	} else {
		var sch *cupid.Schema
		sch, err = cupid.ParseSchema(req.Name, req.Format, []byte(req.Content))
		var samples cupid.InstanceSamples
		if err == nil && len(instances) > 0 {
			samples, err = cupid.ParseInstanceSamples(instances)
			if err != nil {
				err = fmt.Errorf("instances: %w", err)
			}
		}
		if err == nil {
			e, created, err = s.reg.RegisterInstances(req.Name, sch, samples)
		}
	}
	if err != nil {
		writeError(w, errf(http.StatusBadRequest, "%v", err))
		return
	}
	// Invalidate after the mutation committed, before acknowledging it:
	// once the client sees this response, no cached ranking can predate
	// the registration.
	s.front.Invalidate()
	code := http.StatusCreated
	if !created {
		code = http.StatusOK // idempotent re-registration
	}
	writeJSON(w, code, infoOf(e))
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.List()
	infos := make([]schemaInfo, 0, len(entries))
	for _, e := range entries {
		infos = append(infos, infoOf(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{"schemas": infos})
}

func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.replicaWriteGuard(); err != nil {
		writeError(w, err)
		return
	}
	name := r.PathValue("name")
	release, err := s.front.AcquireWrite(r.Context())
	if err != nil {
		writeError(w, s.serveErr(err))
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
		writeError(w, errf(http.StatusNotFound, "schema %q is not registered", name))
		return
	}
	s.front.Invalidate() // committed (even if journaling failed below): drop cached rankings
	if err != nil {
		writeError(w, errf(http.StatusInternalServerError, "%v", err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

// replicaWriteGuard refuses mutations on a read-only replica, naming the
// primary so clients (and the cluster router) know where writes go.
func (s *server) replicaWriteGuard() error {
	if s.primary == "" {
		return nil
	}
	return errf(http.StatusForbidden, "read-only replica: writes go to the primary at %s", s.primary)
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
		writeError(w, errf(http.StatusNotImplemented, "schema source documents are only stored with -data"))
		return
	}
	doc, ok := s.persist.Doc(name)
	if !ok {
		writeError(w, errf(http.StatusNotFound, "schema %q is not registered", name))
		return
	}
	writeJSON(w, http.StatusOK, doc)
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
		writeError(w, errf(http.StatusNotImplemented, "replication requires -data with the write-ahead journal"))
		return
	}
	var from cupid.ReplPos
	q := r.URL.Query()
	if v := q.Get("base"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, errf(http.StatusBadRequest, "query parameter base: %v", err))
			return
		}
		from.Base = n
	}
	if v := q.Get("records"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, errf(http.StatusBadRequest, "query parameter records must be a non-negative integer"))
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
// drops cached rankings, so reads on the replica see replicated
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

// jsonPair is one mapping element in a match response.
type jsonPair struct {
	Source string  `json:"source"`
	Target string  `json:"target"`
	WSim   float64 `json:"wsim"`
	SSim   float64 `json:"ssim"`
	LSim   float64 `json:"lsim"`
}

func pairsOf(es []cupid.MappingElement) []jsonPair {
	out := make([]jsonPair, 0, len(es))
	for _, e := range es {
		out = append(out, jsonPair{
			Source: e.Source.Path(),
			Target: e.Target.Path(),
			WSim:   e.WSim,
			SSim:   e.SSim,
			LSim:   e.LSim,
		})
	}
	return out
}

func (s *server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Source schemaRef `json:"source"`
		Target schemaRef `json:"target"`
	}
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	src, _, err := s.resolve(req.Source)
	if err != nil {
		writeError(w, err)
		return
	}
	dst, _, err := s.resolve(req.Target)
	if err != nil {
		writeError(w, err)
		return
	}
	res, cached, err := s.front.MatchPair(r.Context(), src, dst)
	if err != nil {
		writeError(w, s.serveErr(err))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sourceSchema": res.SourceTree.Schema.Name,
		"targetSchema": res.TargetTree.Schema.Name,
		"cached":       cached,
		"leaves":       pairsOf(res.Mapping.Leaves),
		"nonLeaves":    pairsOf(res.Mapping.NonLeaves),
	})
}

// batchResult is one ranked repository schema in a batch response.
type batchResult struct {
	Name        string     `json:"name"`
	Fingerprint string     `json:"fingerprint"`
	Score       float64    `json:"score"`
	Leaves      []jsonPair `json:"leaves"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Source schemaRef `json:"source"`
		TopK   int       `json:"topK,omitempty"`
	}
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	src, srcName, err := s.resolve(req.Source)
	if err != nil {
		writeError(w, err)
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
	// during candidate generation — the index's accumulator survivors on
	// the indexed path, the repository size on the scans.
	want := req.TopK
	if want > 0 && srcName != "" {
		want++
	}
	spec := serve.MatchSpec{
		Retrieval: s.retrieval,
		TopK:      want,
		Prune:     s.prune,
		Index:     s.indexOpt,
	}
	if s.retrieval == cupid.RetrievalExact {
		spec.TopK = 0 // exhaustive mode ranks the whole repository
	}
	res, err := s.front.MatchBatch(r.Context(), src, spec)
	if err != nil {
		writeError(w, s.serveErr(err))
		return
	}
	results := make([]batchResult, 0, len(res.Ranked))
	for _, rk := range res.Ranked {
		// A registered source trivially matches itself; skip that entry.
		// The fingerprint check keeps the entry in the ranking if a
		// concurrent re-registration replaced the name with different
		// content between resolve and the MatchAll snapshot.
		if srcName != "" && rk.Entry.Name == srcName && rk.Entry.Fingerprint == src.Fingerprint() {
			continue
		}
		if req.TopK > 0 && len(results) == req.TopK {
			break
		}
		results = append(results, batchResult{
			Name:        rk.Entry.Name,
			Fingerprint: rk.Entry.Fingerprint,
			Score:       rk.Score,
			Leaves:      pairsOf(rk.Result.Mapping.Leaves),
		})
	}
	reply := map[string]any{
		"source":            sourceName(src, srcName),
		"strategy":          res.Stats.Strategy.String(),
		"planned":           res.Stats.Planned,
		"candidates_scored": res.Stats.CandidatesScored,
		"candidate_budget":  res.Stats.CandidateBudget,
		"cached":            res.Cached,
		"degraded":          res.Stats.Degraded,
		"results":           results,
	}
	// Family-route provenance, reported only when the family strategy was
	// in play: the winning medoid, or the fact that the route fell back.
	if res.Stats.Family != "" {
		reply["family"] = res.Stats.Family
	}
	if res.Stats.FamilyFallback {
		reply["family_fallback"] = true
	}
	writeJSON(w, http.StatusOK, reply)
}

// sourceName labels the batch source: its repository name when registered,
// otherwise the inline schema's own name.
func sourceName(p *cupid.Prepared, registered string) string {
	if registered != "" {
		return registered
	}
	return p.Schema().Name
}

// route is one HTTP endpoint; the table form keeps the mux, the command
// doc and docs/API.md mechanically comparable (the doc-conformance test
// walks it).
type route struct {
	method, pattern string
	handler         http.HandlerFunc
}

// routeTable lists every endpoint the server exposes.
func (s *server) routeTable() []route {
	return []route{
		{http.MethodPost, "/schemas", s.handleRegister},
		{http.MethodGet, "/schemas", s.handleList},
		{http.MethodGet, "/schemas/{name}", s.handleGetSchema},
		{http.MethodDelete, "/schemas/{name}", s.handleDelete},
		{http.MethodPost, "/match", s.handleMatch},
		{http.MethodPost, "/match/batch", s.handleBatch},
		{http.MethodGet, "/mappings/{a}/{c}", s.handleMapping},
		{http.MethodPost, "/corpus/cluster", s.handleClusterStart},
		{http.MethodGet, "/corpus/cluster/{id}", s.handleClusterStatus},
		{http.MethodGet, "/corpus/families", s.handleFamilies},
		{http.MethodGet, "/replicate", s.handleReplicate},
		{http.MethodGet, "/healthz", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}},
		{http.MethodGet, "/readyz", s.handleReady},
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
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
	case s.replState != nil && !s.replState.Status().CaughtUp:
		st := s.replState.Status()
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "reason": "catching_up",
			"applied": st.Pos.String(), "horizon": st.Horizon.String(),
		})
	case s.persist != nil && s.persist.Compacting():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "compacting"})
	default:
		writeJSON(w, http.StatusOK, map[string]any{"ready": true})
	}
}

// routes builds the HTTP handler; split out so tests can drive the server
// through httptest without binding a socket. Dispatch is per-pattern with
// an explicit method map so that 405 (with an Allow header) and 404 keep
// the JSON error contract instead of net/http's plain-text defaults, and
// the whole tree sits behind the drain guard.
func (s *server) routes() http.Handler {
	byPattern := map[string]map[string]http.HandlerFunc{}
	var patterns []string
	for _, rt := range s.routeTable() {
		if byPattern[rt.pattern] == nil {
			byPattern[rt.pattern] = map[string]http.HandlerFunc{}
			patterns = append(patterns, rt.pattern)
		}
		byPattern[rt.pattern][rt.method] = rt.handler
	}
	mux := http.NewServeMux()
	for _, pattern := range patterns {
		methods := byPattern[pattern]
		allowed := make([]string, 0, len(methods))
		for m := range methods {
			allowed = append(allowed, m)
		}
		sort.Strings(allowed)
		allow := strings.Join(allowed, ", ")
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			if h, ok := methods[r.Method]; ok {
				h(w, r)
				return
			}
			w.Header().Set("Allow", allow)
			writeError(w, errf(http.StatusMethodNotAllowed, "method %s is not allowed for %s (allowed: %s)", r.Method, r.URL.Path, allow))
		})
	}
	// Everything not matched above: JSON 404 instead of the mux default.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, errf(http.StatusNotFound, "no such endpoint: %s", r.URL.Path))
	})
	return s.drainGuard(mux)
}

// drainGuard rejects new requests with 503 + Retry-After once shutdown
// has begun, while in-flight requests drain. The probes stay reachable:
// /healthz keeps reporting live, /readyz reports the not-ready reason.
func (s *server) drainGuard(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.front.Draining() && r.URL.Path != "/healthz" && r.URL.Path != "/readyz" {
			writeError(w, &httpError{code: http.StatusServiceUnavailable, msg: "server is shutting down", retryAfter: time.Second})
			return
		}
		next.ServeHTTP(w, r)
	})
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
	walGroupCommit   time.Duration
	compactThreshold int64
	retrieval        string
	concurrency      int
	writeConcurrency int
	queueDepth       int
	queueWait        time.Duration
	matchDeadline    time.Duration
	cacheCap         int
	maxBody          int64
}

// serveOptions derives the serving-layer configuration from the flags.
func (opt *options) serveOptions() serve.Options {
	return serve.Options{
		Read:          serve.PoolOptions{Slots: opt.concurrency, Queue: opt.queueDepth, MaxWait: opt.queueWait},
		Write:         serve.PoolOptions{Slots: opt.writeConcurrency, Queue: opt.queueDepth, MaxWait: opt.queueWait},
		CacheCapacity: opt.cacheCap,
		MatchDeadline: opt.matchDeadline,
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
	fs.DurationVar(&opt.walGroupCommit, "wal-group-commit", 0, "linger this long after a write batch opens so more concurrent writers join the same fsync; 0 batches only what queued during the previous fsync")
	fs.Int64Var(&opt.compactThreshold, "compact-threshold", cupid.DefaultPersistOptions().CompactBytes, "fold the write-ahead journal into a new snapshot generation once it exceeds this many bytes")
	fs.StringVar(&opt.retrieval, "retrieval", "auto", "/match/batch retrieval strategy: auto (stats-driven planner picks a strategy and candidate budget per query), index, pruned, family or exact")
	fs.IntVar(&opt.concurrency, "concurrency", 0, "concurrent match requests admitted; 0 sizes the pool to the match worker count")
	fs.IntVar(&opt.writeConcurrency, "write-concurrency", 2, "concurrent register/delete mutations admitted (a separate pool, so match storms cannot starve registrations)")
	fs.IntVar(&opt.queueDepth, "queue-depth", 0, "bounded admission queue per pool; arrivals beyond it are rejected with 429 immediately; 0 means 8x the pool's concurrency")
	fs.DurationVar(&opt.queueWait, "queue-wait", time.Second, "queueing latency target: a request that waits longer for a slot is rejected with 429 and a Retry-After hint")
	fs.DurationVar(&opt.matchDeadline, "match-deadline", 30*time.Second, "end-to-end deadline per match request, threaded through the candidate-scoring loops; 0 disables")
	fs.IntVar(&opt.cacheCap, "cache", 1024, "match cache capacity in entries (fingerprint-keyed LRU with singleflight coalescing, invalidated on every mutation); 0 disables")
	fs.Int64Var(&opt.maxBody, "max-body", 4<<20, "request body cap in bytes; larger bodies are rejected with 413")
	return fs, opt
}

// persistOptions derives the journal tuning from the flags.
func (opt *options) persistOptions() (cupid.PersistOptions, error) {
	if opt.walGroupCommit < 0 {
		return cupid.PersistOptions{}, fmt.Errorf("negative -wal-group-commit %v", opt.walGroupCommit)
	}
	if opt.compactThreshold < 0 {
		return cupid.PersistOptions{}, fmt.Errorf("negative -compact-threshold %d", opt.compactThreshold)
	}
	popt := cupid.DefaultPersistOptions()
	popt.GroupCommitWindow = opt.walGroupCommit
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
	if opt.concurrency < 0 || opt.writeConcurrency < 0 || opt.queueDepth < 0 {
		return nil, fmt.Errorf("-concurrency, -write-concurrency and -queue-depth must be >= 0")
	}
	if opt.queueWait < 0 || opt.matchDeadline < 0 || opt.maxBody < 0 {
		return nil, fmt.Errorf("-queue-wait, -match-deadline and -max-body must be >= 0")
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
	// waitFollow stops the follower loop and waits for its apply path to
	// quiesce, so the journal is closed only after the last replicated
	// record committed.
	waitFollow := func() {
		if followDone == nil {
			return
		}
		stop()
		select {
		case <-followDone:
		case <-time.After(5 * time.Second):
			log.Print("cupidd: replication loop did not stop in time")
		}
	}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("cupidd: listening on %s", opt.addr)
		errCh <- srv.ListenAndServe()
	}()
	// closeLoud closes the journal on the error exits, where the HTTP
	// error takes precedence but a persistence failure must not vanish
	// silently.
	closeLoud := func() {
		waitFollow()
		if err := s.close(); err != nil {
			log.Printf("cupidd: closing repository journal: %v", err)
		}
	}
	select {
	case err := <-errCh:
		closeLoud()
		return err
	case <-ctx.Done():
		stop()
		log.Print("cupidd: shutting down: draining in-flight requests, rejecting new ones with 503")
		// New requests (including queued admissions) are refused from here
		// on; Shutdown then waits for the in-flight ones.
		s.front.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			closeLoud()
			return fmt.Errorf("graceful shutdown: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			closeLoud()
			return err
		}
		// Close the journal only after in-flight requests (and the
		// replication apply loop, on a follower) drained.
		waitFollow()
		if err := s.close(); err != nil {
			return fmt.Errorf("closing repository journal: %w", err)
		}
		return nil
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cupidd:", err)
		os.Exit(1)
	}
}
