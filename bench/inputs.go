package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/model"
	"repro/internal/workloads"
)

// doc is one schema document as the benchmark sends it: the repository name
// and the native-JSON content.
type doc struct {
	Name    string
	Content []byte
}

func encodeSchema(s *model.Schema, name string) doc {
	b, err := s.MarshalJSON()
	if err != nil {
		// Generated schemas always serialize; failing here is a bug.
		panic(fmt.Sprintf("bench: encoding %s: %v", name, err))
	}
	return doc{Name: name, Content: b}
}

// seedBase spreads the seeds of one run's generators far apart: the
// workload generators offset their own seeds by small per-schema indexes,
// so run seeds 1 and 2 would otherwise draw overlapping corpora.
func seedBase(seed int64, stream int64) int64 {
	return seed*1_000_000_007 + stream*10_000_019
}

// Seed streams: each input set of a run draws from its own stream.
const (
	streamCorpus = iota + 1
	streamProbes
	streamReserve
	streamPairs
	streamPick
)

// corpus returns n FamilyCorpus schemas (10 domain families, n/10 each),
// named as the generator names them.
func corpus(n int, seed int64) []doc {
	schemas := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{
		Families:  workloads.NumFamilies(),
		PerFamily: n / workloads.NumFamilies(),
		Seed:      seedBase(seed, streamCorpus),
	})
	out := make([]doc, len(schemas))
	for i, s := range schemas {
		out[i] = encodeSchema(s, s.Name)
	}
	return out
}

// reserve returns n replacement documents for churn writes: fresh
// FamilyCorpus draws, distinct from the corpus, whose names the caller
// replaces with the names they overwrite.
func reserve(n int, seed int64) []doc {
	per := (n + workloads.NumFamilies() - 1) / workloads.NumFamilies()
	schemas := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{
		Families:  workloads.NumFamilies(),
		PerFamily: per,
		Seed:      seedBase(seed, streamReserve),
	})
	rng := rand.New(rand.NewSource(seedBase(seed, streamReserve)))
	rng.Shuffle(len(schemas), func(i, j int) { schemas[i], schemas[j] = schemas[j], schemas[i] })
	out := make([]doc, n)
	for i := range out {
		out[i] = encodeSchema(schemas[i], schemas[i].Name)
	}
	return out
}

// probeStream draws batch probes: 80% FamilyProbe, 20% RareTokenProbe. The
// mix is stratified, not sampled: probe i belongs to family i mod 10, and
// probes 10k to 10k+9 hold exactly two rare ones, so each family gets one
// rare probe in every fifty. Only the generator seeds are random: a seed
// changes the probes' content but not the workload's composition, which
// keeps run-to-run spread down. No fingerprint repeats within a stream, so
// a server that has never seen the stream answers every probe uncached.
type probeStream struct {
	rng  *rand.Rand
	seen map[string]bool
	i    int
}

func newProbeStream(seed int64) *probeStream {
	return &probeStream{rng: rand.New(rand.NewSource(seedBase(seed, streamProbes))), seen: map[string]bool{}}
}

// take returns the next n distinct probes.
func (ps *probeStream) take(n int) []doc {
	out := make([]doc, 0, n)
	fams := workloads.NumFamilies()
	for len(out) < n {
		fam := ps.i % fams
		rare := (ps.i/fams+fam)%5 == 4
		var s *model.Schema
		if rare {
			s = workloads.RareTokenProbe(fam, ps.rng.Int63())
		} else {
			s = workloads.FamilyProbe(fam, ps.rng.Int63())
		}
		fp := model.Fingerprint(s)
		if ps.seen[fp] {
			continue // redraw the same slot with a new seed
		}
		ps.seen[fp] = true
		ps.i++
		out = append(out, encodeSchema(s, ""))
	}
	return out
}

// pairSpec is the pair-large schema shape: 16 tables of 16 columns nested
// two deep, a third of the target's names perturbed and a fifth of its
// leaves moved up a level.
var pairSpec = workloads.SyntheticSpec{Tables: 16, ColsPerTable: 16, Depth: 2, Rename: 0.3, Renest: 0.2}

// pairs returns n source/target pairs, each generated from its own seed so
// no two requests share a fingerprint pair.
func pairs(n int, offset int, seed int64) [][2]doc {
	out := make([][2]doc, n)
	for i := range out {
		spec := pairSpec
		spec.Seed = seedBase(seed, streamPairs) + int64(offset+i)
		w := workloads.Synthetic(spec)
		out[i] = [2]doc{encodeSchema(w.Source, ""), encodeSchema(w.Target, "")}
	}
	return out
}

// zipfPicks returns n draws from a Zipf(s) distribution over [0, k): rank 0
// is the most popular.
func zipfPicks(n, k int, s float64, rng *rand.Rand) []int {
	z := rand.NewZipf(rng, s, 1, uint64(k-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// Request bodies, encoded once before the clock starts.

type inlineRef struct {
	Format  string `json:"format"`
	Content string `json:"content"`
}

func inline(d doc) inlineRef { return inlineRef{Format: "json", Content: string(d.Content)} }

func registerBody(name string, d doc) []byte {
	return mustJSON(map[string]string{"name": name, "format": "json", "content": string(d.Content)})
}

func batchBody(probe doc, topK int) []byte {
	return mustJSON(struct {
		Source inlineRef `json:"source"`
		TopK   int       `json:"topK"`
	}{inline(probe), topK})
}

func pairBody(p [2]doc) []byte {
	return mustJSON(struct {
		Source inlineRef `json:"source"`
		Target inlineRef `json:"target"`
	}{inline(p[0]), inline(p[1])})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding request: %v", err))
	}
	return b
}
