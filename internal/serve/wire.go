package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"sort"

	"repro/internal/mapping"
	"repro/internal/registry"
)

// The JSON shapes cupidd and cupidrouter exchange, declared once: what a
// client sends either binary, what a shard sends the router, and what
// the router sends on. Field order is wire order.

// SchemaRef is a schema reference: the POST /schemas body, the source and
// target of /match and /match/batch, and the router's scatter payload.
// It names a registered entry ({"name": "po"}) or carries an inline
// document ({"format": "sql", "content": "CREATE TABLE ..."}), optionally
// with sampled instances ({"path": [value, ...]}) for per-leaf profiles.
// Validation is per route: registration needs format and content, a
// match reference a name or inline content.
type SchemaRef struct {
	Name      string          `json:"name,omitempty"`
	Format    string          `json:"format,omitempty"`
	Content   string          `json:"content,omitempty"`
	Instances json.RawMessage `json:"instances,omitempty"`
}

// Samples returns the instances payload, nil when it is absent or an
// explicit JSON null.
func (r SchemaRef) Samples() []byte {
	if string(r.Instances) == "null" {
		return nil
	}
	return r.Instances
}

// Key is the cache identity of an inline reference: "inline:" and the
// hex SHA-256 of its length-prefixed name, format, content and instance
// bytes. The name is part of it because parsing names the SQL, XSD, DTD,
// JSON Schema and Avro schemas by it. Two references with the same key
// prepare the same schema, so a cache hit never has to parse one.
//
// The fields stream through one hasher, strings in buffer-sized chunks,
// so the key costs a small fixed buffer rather than a copy of the
// content.
func (r SchemaRef) Key() string {
	h := sha256.New()
	var buf [1024]byte
	for _, f := range [...]string{r.Name, r.Format, r.Content} {
		h.Write(binary.AppendUvarint(buf[:0], uint64(len(f))))
		for len(f) > 0 {
			n := copy(buf[:], f)
			h.Write(buf[:n])
			f = f[n:]
		}
	}
	samples := r.Samples()
	h.Write(binary.AppendUvarint(buf[:0], uint64(len(samples))))
	h.Write(samples)
	return "inline:" + hex.EncodeToString(h.Sum(buf[:0]))
}

// BatchRequest is the /match/batch body: a source and the number of
// results wanted (<= 0: every ranked result).
type BatchRequest struct {
	Source SchemaRef `json:"source"`
	TopK   int       `json:"topK,omitempty"`
}

// SchemaInfo is the summary of a registered schema.
type SchemaInfo struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	Elements    int    `json:"elements"`
	Leaves      int    `json:"leaves"`
}

// InfoOf summarizes a registry entry.
func InfoOf(e *registry.Entry) SchemaInfo {
	return SchemaInfo{
		Name:        e.Name,
		Fingerprint: e.Fingerprint,
		Elements:    e.Prepared.Schema().Len(),
		Leaves:      e.Prepared.Tree().NumLeaves(),
	}
}

// SchemaList is the GET /schemas reply, sorted by name.
type SchemaList struct {
	Schemas []SchemaInfo `json:"schemas"`
}

// Pair is one mapping element as a reply sends it: the two node paths
// and the element's similarities.
type Pair struct {
	Source string  `json:"source"`
	Target string  `json:"target"`
	WSim   float64 `json:"wsim"`
	SSim   float64 `json:"ssim"`
	LSim   float64 `json:"lsim"`
}

// PairsOf renders mapping elements as pairs.
func PairsOf(es []mapping.Element) []Pair {
	out := make([]Pair, 0, len(es))
	for _, e := range es {
		out = append(out, Pair{
			Source: e.Source.Path(),
			Target: e.Target.Path(),
			WSim:   e.WSim,
			SSim:   e.SSim,
			LSim:   e.LSim,
		})
	}
	return out
}

// PairMatch is a pair match as a reply sends it: the two schema names and
// the leaf and non-leaf elements rendered as pairs. It is what the match
// cache keeps for /match and /mappings, and it references neither schema
// nor either tree, so a cached inline pair leaves both parsed schemas
// collectable.
type PairMatch struct {
	SourceSchema string
	TargetSchema string
	Leaves       []Pair
	NonLeaves    []Pair
}

// PairMatchOf renders a mapping as a PairMatch.
func PairMatchOf(m *mapping.Mapping) *PairMatch {
	return &PairMatch{
		SourceSchema: m.SourceSchema,
		TargetSchema: m.TargetSchema,
		Leaves:       PairsOf(m.Leaves),
		NonLeaves:    PairsOf(m.NonLeaves),
	}
}

// MatchReply is the /match reply. Its fields are declared in key order,
// so it encodes exactly as the sorted map cupidd once built.
type MatchReply struct {
	Cached       bool   `json:"cached"`
	Leaves       []Pair `json:"leaves"`
	NonLeaves    []Pair `json:"nonLeaves"`
	SourceSchema string `json:"sourceSchema"`
	TargetSchema string `json:"targetSchema"`
}

// MappingReply is the /mappings/{a}/{c} reply, its fields declared in
// key order like MatchReply's.
type MappingReply struct {
	Cached    bool   `json:"cached"`
	Leaves    []Pair `json:"leaves"`
	NonLeaves []Pair `json:"nonLeaves"`
	Source    string `json:"source"`
	Target    string `json:"target"`
	Via       string `json:"via"`
}

// BatchResult is one ranked repository schema in a batch reply.
type BatchResult struct {
	Name        string  `json:"name"`
	Fingerprint string  `json:"fingerprint"`
	Score       float64 `json:"score"`
	Leaves      []Pair  `json:"leaves"`
}

// RankKey returns the result's ranking key; see Merge.
func (b BatchResult) RankKey() (float64, string, string) { return b.Score, b.Name, b.Fingerprint }

// ResultsOf renders a registry ranking as batch results: entry name,
// fingerprint, score and the mapping's leaf elements. An entry returned
// without a Result (its rendered result was in PlanOptions.Memo) gets no
// leaves; the memo's owner fills them in.
func ResultsOf(ranked []registry.Ranked) []BatchResult {
	out := make([]BatchResult, len(ranked))
	for i, rk := range ranked {
		out[i] = BatchResult{
			Name:        rk.Entry.Name,
			Fingerprint: rk.Entry.Fingerprint,
			Score:       rk.Score,
		}
		if rk.Result != nil {
			out[i].Leaves = PairsOf(rk.Result.Mapping.Leaves)
		}
	}
	return out
}

// BatchReply is the /match/batch reply of both binaries. Its fields are
// declared in key order, so it encodes exactly as the sorted map cupidd
// once built. Shards appears only in a router's reply.
type BatchReply struct {
	Cached           bool          `json:"cached"`
	CandidateBudget  int           `json:"candidate_budget"`
	CandidatesScored int           `json:"candidates_scored"`
	Degraded         bool          `json:"degraded"`
	Planned          bool          `json:"planned"`
	Results          []BatchResult `json:"results"`
	Shards           []ShardStatus `json:"shards,omitempty"`
	Source           string        `json:"source"`
	Strategy         string        `json:"strategy"`
}

// Stats decodes the retrieval fields a router aggregates; a strategy
// name the registry does not know is an error.
func (b BatchReply) Stats() (registry.RetrievalStats, error) {
	strategy, err := registry.ParseStrategy(b.Strategy)
	return registry.RetrievalStats{
		Strategy:         strategy,
		Planned:          b.Planned,
		CandidatesScored: b.CandidatesScored,
		CandidateBudget:  b.CandidateBudget,
		Degraded:         b.Degraded,
	}, err
}

// ShardStatus is one shard's outcome in a router's batch reply.
type ShardStatus struct {
	Shard    string `json:"shard"`
	OK       bool   `json:"ok"`
	Strategy string `json:"strategy,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Rankable is an entry of a ranking: a registry or frontend ranking, or
// batch results off the wire.
type Rankable interface {
	// RankKey returns the entry's score, name and fingerprint.
	RankKey() (score float64, name, fingerprint string)
}

// Merge is the one ranking merge: it concatenates per-shard rankings and
// orders them by score descending, then name ascending — a single
// registry's ranking order, so merging the rankings of a partitioned
// corpus reproduces the unpartitioned ranking element for element — then
// fingerprint ascending, for distinct entries that share a name across
// mis-partitioned shards. The inputs are not modified.
func Merge[T Rankable](parts ...[]T) []T {
	var all []T
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool {
		si, ni, fi := all[i].RankKey()
		sj, nj, fj := all[j].RankKey()
		if si != sj {
			return si > sj
		}
		if ni != nj {
			return ni < nj
		}
		return fi < fj
	})
	return all
}

// Trim is the one batch rule: drop a registered source's own entry, then
// truncate to topK (<= 0 keeps everything). The entry is matched by name
// and fingerprint, so an entry whose name was concurrently re-registered
// with other content stays ranked; selfName "" drops nothing. The input
// is not modified.
func Trim[T Rankable](ranked []T, selfName, selfFP string, topK int) []T {
	out := make([]T, 0, len(ranked))
	for _, rk := range ranked {
		if topK > 0 && len(out) == topK {
			break
		}
		if _, name, fp := rk.RankKey(); selfName != "" && name == selfName && fp == selfFP {
			continue
		}
		out = append(out, rk)
	}
	return out
}
