package main

// Corpus-scale clustering endpoints and medoid-composed mappings.
//
// POST /corpus/cluster starts an asynchronous clustering job over the
// registered corpus (candidate pairs come from the inverted index, so the
// job is O(n·k) index probes, never the O(n²) cross product); GET
// /corpus/cluster/{id} polls it. The finished clustering is installed
// into the registry as a view of the corpus — no ranking reads it — and
// — on a durable server — persisted through the write-ahead journal as a
// reserved metadata document, so it survives restarts and replicates to
// followers byte-identically. GET /corpus/families serves the canonical
// clustering bytes verbatim.
//
// GET /mappings/{a}/{c} derives a mapping between two registered schemas:
// directly (one match) or, with ?via=family, transitively through their
// shared family medoid — compose(A→M, invert(C→M)) — reusing the two
// medoid matches every derivation through that medoid shares, the
// paper's composition of mappings "performed earlier".

import (
	"net/http"
	"strconv"
	"sync"

	cupid "repro"
	"repro/internal/serve"
)

// clusterJob is one asynchronous clustering run's observable state.
type clusterJob struct {
	ID       int    `json:"id"`
	Status   string `json:"status"`             // "running", "done" or "failed"
	Corpus   int    `json:"corpus,omitempty"`   // schemas clustered (done)
	Families int    `json:"families,omitempty"` // families found (done)
	Error    string `json:"error,omitempty"`    // failure reason (failed)
}

// clusterJobs tracks clustering runs. At most one job runs at a time —
// clustering is corpus-wide, so concurrent runs would just race to
// install the same result.
type clusterJobs struct {
	mu      sync.Mutex
	seq     int
	running bool
	jobs    map[int]*clusterJob
}

// start registers a new running job, refusing while another is running.
// It returns a copy: the job goroutine updates the stored state under
// c.mu while the handler is still encoding its 202 reply.
func (c *clusterJobs) start() (clusterJob, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		for _, j := range c.jobs {
			if j.Status == "running" {
				return clusterJob{}, serve.Errorf(http.StatusConflict, "clustering job %d is already running", j.ID)
			}
		}
	}
	if c.jobs == nil {
		c.jobs = make(map[int]*clusterJob)
	}
	c.seq++
	j := &clusterJob{ID: c.seq, Status: "running"}
	c.jobs[j.ID] = j
	c.running = true
	return *j, nil
}

// finish records a job's outcome.
func (c *clusterJobs) finish(id int, corpus, families int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[id]
	if j == nil {
		return
	}
	if err != nil {
		j.Status, j.Error = "failed", err.Error()
	} else {
		j.Status, j.Corpus, j.Families = "done", corpus, families
	}
	c.running = false
}

// get returns a copy of the job's current state.
func (c *clusterJobs) get(id int) (clusterJob, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return clusterJob{}, false
	}
	return *j, true
}

// handleClusterStart kicks off an asynchronous clustering job and returns
// 202 with its id for polling. The optional JSON body tunes the
// clustering ({"neighbors": N, "min_affinity": F}); an empty body takes
// the defaults. Refused on a read-only replica — followers receive the
// primary's clustering through replication instead of computing their own.
func (s *server) handleClusterStart(w http.ResponseWriter, r *http.Request) {
	if err := s.replicaWriteGuard(); err != nil {
		serve.WriteError(w, err)
		return
	}
	var req struct {
		Neighbors   int     `json:"neighbors,omitempty"`
		MinAffinity float64 `json:"min_affinity,omitempty"`
	}
	// An absent body means defaults; anything else malformed is refused.
	if err := serve.DecodeJSON(w, r, s.maxBody, &req); err != nil && !isEmptyBodyErr(err) {
		serve.WriteError(w, err)
		return
	}
	opt := cupid.CorpusOptions{Neighbors: req.Neighbors, MinAffinity: req.MinAffinity}
	j, err := s.corpusJobs.start()
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	go s.runClusterJob(j.ID, opt)
	serve.WriteJSON(w, http.StatusAccepted, j)
}

// isEmptyBodyErr reports whether a decode failure was just an absent body
// (json.Decoder surfaces that as a bare EOF).
func isEmptyBodyErr(err error) bool {
	return err.Error() == "decoding request body: EOF"
}

// runClusterJob computes, installs and (when durable) persists one
// clustering; it runs on its own goroutine and reports through the job.
func (s *server) runClusterJob(id int, opt cupid.CorpusOptions) {
	res, err := s.reg.ClusterFamilies(opt)
	if err == nil {
		if s.persist != nil {
			err = s.persist.StoreFamilies(res)
		} else {
			err = s.reg.SetFamilies(res)
		}
	}
	if err != nil {
		s.corpusJobs.finish(id, 0, 0, err)
		return
	}
	s.corpusJobs.finish(id, res.Corpus, len(res.Families), nil)
}

// handleClusterStatus polls one clustering job by id.
func (s *server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "job id must be an integer"))
		return
	}
	j, ok := s.corpusJobs.get(id)
	if !ok {
		serve.WriteError(w, serve.Errorf(http.StatusNotFound, "no clustering job %d", id))
		return
	}
	serve.WriteJSON(w, http.StatusOK, j)
}

// handleFamilies serves the installed clustering's canonical bytes
// verbatim — the exact bytes the clustering produced, journaled, and
// replicated, so two nodes can be diffed byte-for-byte — ending in "\n"
// like every other reply.
func (s *server) handleFamilies(w http.ResponseWriter, _ *http.Request) {
	raw := s.reg.FamiliesJSON()
	if raw == nil {
		serve.WriteError(w, serve.Errorf(http.StatusNotFound, "no corpus clustering installed (POST /corpus/cluster)"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(append(raw[:len(raw):len(raw)], '\n'))
}

// handleMapping derives a mapping between two registered schemas. The
// default (?via=direct) is one full match. ?via=family composes the
// mapping transitively through the schemas' shared family medoid M:
// (A→M) ∘ (M→C), with similarities multiplied along each chain — cheaper
// when the medoid matches are already cached, and the building block for
// reusing past match results. Requires an installed clustering with both
// schemas in the same family.
func (s *server) handleMapping(w http.ResponseWriter, r *http.Request) {
	aName, cName := r.PathValue("a"), r.PathValue("c")
	via := r.URL.Query().Get("via")
	if via == "" {
		via = "direct"
	}
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
	switch via {
	case "direct":
		m, cached, err := s.front.MatchPair(r.Context(), serve.PreparedSource(a.Prepared), serve.PreparedSource(c.Prepared))
		if err != nil {
			serve.WriteError(w, serve.OverloadError(err, s.front.ReadPool().MaxWait()))
			return
		}
		serve.WriteJSON(w, http.StatusOK, serve.MappingReply{
			Cached: cached, Leaves: m.Leaves, NonLeaves: m.NonLeaves,
			Source: aName, Target: cName, Via: "direct",
		})
	case "family":
		medoid, ok := s.reg.FamilyOf(aName)
		if !ok {
			serve.WriteError(w, serve.Errorf(http.StatusConflict, "schema %q is not in any family (cluster the corpus first: POST /corpus/cluster)", aName))
			return
		}
		cMedoid, ok := s.reg.FamilyOf(cName)
		if !ok {
			serve.WriteError(w, serve.Errorf(http.StatusConflict, "schema %q is not in any family (cluster the corpus first: POST /corpus/cluster)", cName))
			return
		}
		if medoid != cMedoid {
			serve.WriteError(w, serve.Errorf(http.StatusConflict, "schemas %q (family %q) and %q (family %q) are in different families; use via=direct", aName, medoid, cName, cMedoid))
			return
		}
		m, ok := s.reg.Get(medoid)
		if !ok {
			serve.WriteError(w, serve.Errorf(http.StatusConflict, "family medoid %q is no longer registered; re-cluster the corpus", medoid))
			return
		}
		// A→M and C→M are the matches every derivation through this
		// medoid shares, so both hit the singleflight cache on repeat
		// derivations. The cache keeps them as rendered pairs; each is
		// rebuilt into a mapping over the registered trees by node index
		// and composed once.
		aToM, cachedA, err := s.front.MatchPair(r.Context(), serve.PreparedSource(a.Prepared), serve.PreparedSource(m.Prepared))
		if err != nil {
			serve.WriteError(w, serve.OverloadError(err, s.front.ReadPool().MaxWait()))
			return
		}
		cToM, cachedC, err := s.front.MatchPair(r.Context(), serve.PreparedSource(c.Prepared), serve.PreparedSource(m.Prepared))
		if err != nil {
			serve.WriteError(w, serve.OverloadError(err, s.front.ReadPool().MaxWait()))
			return
		}
		composed := aToM.Mapping(a.Prepared, m.Prepared).Compose(cToM.Mapping(c.Prepared, m.Prepared).Invert())
		serve.WriteJSON(w, http.StatusOK, serve.MappingReply{
			Cached: cachedA && cachedC, Leaves: serve.PairsOf(composed.Leaves), Medoid: medoid,
			NonLeaves: serve.PairsOf(composed.NonLeaves), Source: aName, Target: cName, Via: "family",
		})
	default:
		serve.WriteError(w, serve.Errorf(http.StatusBadRequest, "query parameter via must be direct or family, got %q", via))
	}
}
