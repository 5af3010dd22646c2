// Package corpus computes corpus-scale structure over a schema
// repository: the similarity graph over every registered schema —
// candidate pairs generated by the token inverted index, never the true
// O(n²) cross product — and a deterministic greedy-medoid clustering of
// that graph into schema families. A family is a connected component of
// the thresholded similarity graph; its medoid is the member with the
// strongest total affinity to its neighbors — the family's
// representative, and the hub transitive mapping composition routes
// through. The clustering is a view of the corpus: no retrieval ranking
// reads it.
//
// Clustering is deterministic for a given entry set: candidate
// generation is a pure function of the indexed corpus (the index's
// property tests hold incremental and from-scratch builds identical),
// edges are mutual-k-NN (kept only when both endpoints propose each
// other), and every tie — medoid election, component traversal, output
// order — breaks on the schema name. The canonical
// JSON encoding (Result.Encode) is therefore byte-identical across
// registry shard interleavings, index rebuilds, restarts and replicas;
// the registry journals exactly those bytes through the WAL, so a
// recovered or replicated node serves the same family assignments byte
// for byte.
package corpus

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/model"
	"repro/internal/par"
)

// Options tunes one clustering run. The zero value takes the defaults.
type Options struct {
	// Neighbors bounds the similarity graph's out-degree: each schema asks
	// the candidate generator for this many nearest candidates (plus one,
	// so the schema's own index entry never crowds a real neighbor out).
	// <= 0 takes DefaultNeighbors.
	Neighbors int
	// MinAffinity is the edge threshold: a candidate pair whose signature
	// affinity falls below it is not an edge of the similarity graph.
	// <= 0 takes DefaultMinAffinity.
	MinAffinity float64
}

// DefaultNeighbors and DefaultMinAffinity are the tuned defaults: enough
// out-degree to keep a synthetic 1000-member family one connected
// component, a threshold high enough that cross-family candidate pairs
// (generic-token overlap only) never bridge two components.
const (
	DefaultNeighbors   = 8
	DefaultMinAffinity = 0.45
)

// Fragment absorption floor: a component smaller than
// max(fragmentFloor, corpus/fragmentFraction) is treated as a sampling
// artifact of the bounded-out-degree candidate generation (a tight clique
// fills its own neighbor lists before any edge to the rest of its true
// family is ever proposed) rather than a real family, and is absorbed
// into the nearest full-size family — see Cluster.
const (
	fragmentFloor    = 2
	fragmentFraction = 128
)

// sharedNeighborFloor is how many distinct shared proposed neighbors a
// mutual pair needs before it becomes an edge (see the shared-near-
// neighbor test in Cluster). One corroborating witness is the tuned
// setting: at corpus sizes of 512 and up (where per-family k-NN lists
// saturate in-family) it removes cross-family
// bridges without fragmenting; demanding two starts splitting genuine
// families once the family size dwarfs the out-degree.
const sharedNeighborFloor = 1

// normalized fills defaulted fields.
func (o Options) normalized() Options {
	if o.Neighbors <= 0 {
		o.Neighbors = DefaultNeighbors
	}
	if o.MinAffinity <= 0 {
		o.MinAffinity = DefaultMinAffinity
	}
	return o
}

// Item is one clustering input: a registered schema's repository name and
// its retrieval signature.
type Item struct {
	Key string
	Sig model.Signature
}

// Neighbor is one candidate edge endpoint proposed by the candidate
// generator, with the (exact) signature affinity of the pair.
type Neighbor struct {
	Key      string
	Affinity float64
}

// NeighborFunc generates candidate neighbors for one signature. The
// registry wires this to the inverted index's TopK, so candidate
// generation touches only token-sharing entries — the similarity graph
// costs O(n·k) index probes, never O(n²) signature comparisons.
type NeighborFunc func(sig model.Signature, k int) []Neighbor

// Family is one schema family: its medoid plus every member (medoid
// included), sorted by name.
type Family struct {
	// Medoid is the family's representative: the member with the largest
	// summed affinity over its graph edges (ties broken by name).
	Medoid string `json:"medoid"`
	// Members are the family's schema names, sorted; the medoid is one of
	// them.
	Members []string `json:"members"`
}

// Result is one clustering run's outcome — the canonical, deterministic
// family assignment for the corpus it was computed over.
type Result struct {
	// Version is the encoding version (resultVersion).
	Version int `json:"version"`
	// Corpus is the number of schemas clustered.
	Corpus int `json:"corpus"`
	// Neighbors and MinAffinity echo the (normalized) options the graph
	// was built under.
	Neighbors   int     `json:"neighbors"`
	MinAffinity float64 `json:"min_affinity"`
	// Families are the schema families, sorted by medoid name.
	Families []Family `json:"families"`
}

// resultVersion is the Result encoding version Decode accepts.
const resultVersion = 1

// Members returns the total member count across all families (equal to
// Corpus for a result produced by Cluster).
func (r *Result) Members() int {
	n := 0
	for _, f := range r.Families {
		n += len(f.Members)
	}
	return n
}

// Encode returns the canonical JSON form: fixed field order, families
// sorted by medoid, members sorted by name, no timestamps — equal
// clusterings encode byte-identically.
func (r *Result) Encode() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("corpus: encoding result: %w", err)
	}
	return b, nil
}

// Decode parses and validates a canonical Result: version, family order,
// member order, medoid membership, and member uniqueness across families.
// It is the gate every persisted or replicated family document passes
// before installation.
func Decode(b []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("corpus: decoding result: %w", err)
	}
	if r.Version != resultVersion {
		return nil, fmt.Errorf("corpus: unsupported result version %d (this build reads %d)", r.Version, resultVersion)
	}
	seen := make(map[string]bool, r.Corpus)
	for i, f := range r.Families {
		if i > 0 && r.Families[i-1].Medoid >= f.Medoid {
			return nil, fmt.Errorf("corpus: families not sorted by medoid at %q", f.Medoid)
		}
		if len(f.Members) == 0 {
			return nil, fmt.Errorf("corpus: family %q has no members", f.Medoid)
		}
		hasMedoid := false
		for j, m := range f.Members {
			if j > 0 && f.Members[j-1] >= m {
				return nil, fmt.Errorf("corpus: family %q members not sorted at %q", f.Medoid, m)
			}
			if seen[m] {
				return nil, fmt.Errorf("corpus: member %q appears in more than one family", m)
			}
			seen[m] = true
			if m == f.Medoid {
				hasMedoid = true
			}
		}
		if !hasMedoid {
			return nil, fmt.Errorf("corpus: medoid %q is not among its family's members", f.Medoid)
		}
	}
	return &r, nil
}

// Cluster computes the schema families of the given items. The similarity
// graph is built from each item's candidate neighbors (mutual-k-NN: an
// edge needs a proposal from both endpoints, each at affinity >=
// opt.MinAffinity); families are its connected components, with
// undersized fragments absorbed into their nearest full-size family;
// each component's medoid is the node with the largest summed edge
// affinity, ties broken by name. Deterministic: the output depends only
// on the item set and the candidate generator's (deterministic) answers,
// never on input order or worker count.
func Cluster(items []Item, neighbors NeighborFunc, opt Options) *Result {
	opt = opt.normalized()
	sorted := append([]Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	n := len(sorted)
	pos := make(map[string]int, n)
	for i, it := range sorted {
		pos[it.Key] = i
	}

	// Candidate generation, fanned over the worker pool: each slot is
	// written only by its own index, so the parallel sweep is
	// deterministic.
	cands := make([][]Neighbor, n)
	par.For(n, func(i int) {
		cands[i] = neighbors(sorted[i].Sig, opt.Neighbors+1)
	})

	// Mutual-k-NN thresholded adjacency: a pair is an edge only when BOTH
	// endpoints proposed each other (at affinity >= the threshold). The
	// in-family and cross-family affinity distributions overlap, so no
	// absolute threshold alone separates them — but a cross-family pair
	// that sneaks over the threshold is almost never reciprocal (each
	// endpoint's neighbor list is dominated by its own family), while
	// genuine family mates propose each other from both sides. Mutuality
	// is what keeps a single freak bridge pair from chaining two families
	// into one component; the fragmentation it adds is repaired by the
	// absorption pass below.
	prop := make([]map[int]float64, n)
	for i, list := range cands {
		for _, nb := range list {
			j, ok := pos[nb.Key]
			if !ok || j == i || nb.Affinity < opt.MinAffinity {
				continue
			}
			if prop[i] == nil {
				prop[i] = make(map[int]float64, opt.Neighbors)
			}
			if cur, ok := prop[i][j]; !ok || nb.Affinity > cur {
				prop[i][j] = nb.Affinity
			}
		}
	}
	// A mutual pair must additionally share a proposed neighbor: two
	// members of one family are near the same crowd, so their proposal
	// sets intersect; the endpoints of a freak cross-family pair are each
	// embedded in their own family's crowd and share nobody. This
	// shared-near-neighbor test is what makes component merging need
	// corroboration instead of trusting any single pair.
	shared := func(i, j int) bool {
		si, sj := prop[i], prop[j]
		if len(si) > len(sj) {
			si, sj = sj, si
		}
		c := 0
		for k := range si {
			if k == i || k == j {
				continue
			}
			if _, ok := sj[k]; ok {
				if c++; c >= sharedNeighborFloor {
					return true
				}
			}
		}
		return false
	}
	adj := make([]map[int]float64, n)
	for i, m := range prop {
		for j, aff := range m {
			if _, mutual := prop[j][i]; !mutual || !shared(i, j) {
				continue
			}
			if adj[i] == nil {
				adj[i] = make(map[int]float64, opt.Neighbors)
			}
			adj[i][j] = aff
		}
	}

	// Deterministic traversal order: each node's neighbors ascending by
	// index (the items are name-sorted, so index order is name order),
	// and its total edge weight for medoid election, summed in that same
	// order: float addition is not associative, so a sum in map order can
	// split exactly tied nodes in the last bit and skip the name tie-break.
	nbrs := make([][]int, n)
	weight := make([]float64, n)
	for i, m := range adj {
		if len(m) == 0 {
			continue
		}
		ns := make([]int, 0, len(m))
		for j := range m {
			ns = append(ns, j)
		}
		sort.Ints(ns)
		for _, j := range ns {
			weight[i] += m[j]
		}
		nbrs[i] = ns
	}

	// Greedy medoid election: nodes by (total edge weight desc, name asc);
	// each unassigned pick seeds a family and absorbs its entire unassigned
	// connected component (breadth-first, neighbors in name order). The
	// strongest hub of every component is its medoid by construction.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if weight[order[a]] != weight[order[b]] {
			return weight[order[a]] > weight[order[b]]
		}
		return sorted[order[a]].Key < sorted[order[b]].Key
	})
	assigned := make([]bool, n)
	families := make([]Family, 0, 16)
	for _, seed := range order {
		if assigned[seed] {
			continue
		}
		assigned[seed] = true
		members := []string{sorted[seed].Key}
		queue := []int{seed}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range nbrs[u] {
				if assigned[v] {
					continue
				}
				assigned[v] = true
				members = append(members, sorted[v].Key)
				queue = append(queue, v)
			}
		}
		sort.Strings(members)
		families = append(families, Family{Medoid: sorted[seed].Key, Members: members})
	}

	// Fragment absorption: a component far below its corpus share exists
	// because the k-NN lists of a tight sub-clique crowded out every edge
	// to the rest of its true family, not because it is a real family of
	// its own. Each fragment joins the full-size family whose medoid is
	// nearest to its medoid by exact signature affinity, unconditionally:
	// a family outlier often sits below the edge threshold even against
	// its own medoid, and a fragment left standalone misreports its
	// members as a family of their own — strictly worse than a
	// best-effort nearest-family assignment. Targets are only
	// full-size families and never change during the pass, so the outcome
	// is independent of fragment order; ties break on medoid name.
	floor := fragmentFloor
	if f := n / fragmentFraction; f > floor {
		floor = f
	}
	fulls := make([]int, 0, len(families))
	for i, f := range families {
		if len(f.Members) >= floor {
			fulls = append(fulls, i)
		}
	}
	if len(fulls) > 0 && len(fulls) < len(families) {
		absorbed := make(map[int][]string)
		dropped := make(map[int]bool)
		for i, f := range families {
			if len(f.Members) >= floor {
				continue
			}
			fragSig := sorted[pos[f.Medoid]].Sig
			best := -1
			bestAff := 0.0
			for _, t := range fulls {
				aff := fragSig.Affinity(sorted[pos[families[t].Medoid]].Sig)
				if best < 0 || aff > bestAff ||
					(aff == bestAff && families[t].Medoid < families[best].Medoid) {
					best, bestAff = t, aff
				}
			}
			absorbed[best] = append(absorbed[best], f.Members...)
			dropped[i] = true
		}
		if len(dropped) > 0 {
			kept := families[:0]
			for i, f := range families {
				if dropped[i] {
					continue
				}
				if extra := absorbed[i]; len(extra) > 0 {
					f.Members = append(append([]string(nil), f.Members...), extra...)
					sort.Strings(f.Members)
				}
				kept = append(kept, f)
			}
			families = kept
		}
	}
	sort.Slice(families, func(i, j int) bool { return families[i].Medoid < families[j].Medoid })

	return &Result{
		Version:     resultVersion,
		Corpus:      n,
		Neighbors:   opt.Neighbors,
		MinAffinity: opt.MinAffinity,
		Families:    families,
	}
}
