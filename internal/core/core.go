// Package core assembles Cupid's three phases (paper §4) into the Match
// operation: linguistic matching of schema elements (internal/linguistic),
// structural matching of the expanded schema trees via TreeMatch
// (internal/schematree + internal/structural), and mapping generation
// (internal/mapping).
//
// The package is the paper's "primary contribution" glue: everything a
// caller needs to go from two generic schema graphs to a validated-ready
// mapping, including the §8.4 extras — initial (user-supplied) mappings,
// join-view augmentation for referential constraints, optionality, lazy
// expansion — and the ablation modes used in the paper's §9.3 analysis
// (linguistic-only over full path names; structure-only).
package core

import (
	"fmt"

	"repro/internal/linguistic"
	"repro/internal/mapping"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/schematree"
	"repro/internal/structural"
	"repro/internal/thesaurus"
)

// Mode selects which similarity evidence drives the match.
type Mode int

const (
	// ModeFull is the complete Cupid pipeline (default).
	ModeFull Mode = iota
	// ModeLinguisticOnly compares elements using only the linguistic
	// similarity of their complete path names (the evaluation methodology
	// of §9.3 conclusion 3); no structural matching runs.
	ModeLinguisticOnly
	// ModeStructuralOnly zeroes the linguistic similarity, leaving the
	// data-type initialization and mutual structural reinforcement as the
	// only evidence.
	ModeStructuralOnly
)

// PathPair names a source and a target element by their containment paths
// ("PO.POBillTo.City"); used for initial mappings.
type PathPair struct {
	Source string
	Target string
}

// Config collects every knob of the pipeline. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Thesaurus supplies synonyms, hypernyms, abbreviations, stop-words
	// and concepts; nil means an empty thesaurus (the ablation of §9.3
	// conclusion 2).
	Thesaurus *thesaurus.Thesaurus
	// Linguistic holds the comparison weights and thns.
	Linguistic linguistic.Params
	// Structural holds the Table 1 thresholds and §8.4 toggles.
	Structural structural.Params
	// Tree controls schema-tree expansion (join views, views, node cap).
	Tree schematree.Options
	// Mapping controls generation (cardinality, thresholds, non-leaves).
	Mapping mapping.Options
	// InitialMapping lists user-asserted correspondences; the linguistic
	// similarity of each pair is initialized to the maximum value before
	// structural matching (§8.4), which propagates into higher structural
	// similarity of their ancestors on re-runs.
	InitialMapping []PathPair
	// DescriptionWeight blends schema-annotation (Element.Description)
	// similarity into lsim for element pairs where both sides carry a
	// description: lsim' = (1-w)·lsim + w·descSim. 0 disables the feature
	// (the default); the paper lists annotation-based linguistic matching
	// as future work (§10).
	DescriptionWeight float64
	// Mode selects full, linguistic-only, or structural-only matching.
	Mode Mode
}

// DefaultConfig returns the paper's typical configuration with the base
// thesaurus.
func DefaultConfig() Config {
	return Config{
		Thesaurus:  thesaurus.Base(),
		Linguistic: linguistic.DefaultParams(),
		Structural: structural.DefaultParams(),
		Tree:       schematree.DefaultOptions(),
		Mapping:    mapping.DefaultOptions(),
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Linguistic.Validate(); err != nil {
		return err
	}
	if err := c.Structural.Validate(); err != nil {
		return err
	}
	if c.Mapping.ThAccept < 0 || c.Mapping.ThAccept > 1 {
		return fmt.Errorf("core: mapping thaccept %.3f out of [0,1]", c.Mapping.ThAccept)
	}
	if c.DescriptionWeight < 0 || c.DescriptionWeight > 1 {
		return fmt.Errorf("core: description weight %.3f out of [0,1]", c.DescriptionWeight)
	}
	return nil
}

// Result is the full output of one Match run: the mapping plus every
// intermediate artifact, so callers (and the experiment harness) can
// inspect similarities directly.
type Result struct {
	Mapping    *mapping.Mapping
	SourceTree *schematree.Tree
	TargetTree *schematree.Tree
	// LSim is the node-level linguistic similarity, indexed (source node
	// post-order, target node post-order).
	LSim matrix.Matrix
	// Struct holds ssim/wsim and the TreeMatch statistics; nil in
	// ModeLinguisticOnly.
	Struct *structural.Result
	// WSim is the matrix mapping generation ran on: Struct.WSim in full
	// mode, LSim over path names in linguistic-only mode.
	WSim matrix.Matrix
	// SourceInfo and TargetInfo expose the linguistic analysis (token
	// sets, categories).
	SourceInfo *linguistic.SchemaInfo
	TargetInfo *linguistic.SchemaInfo
}

// Matcher runs the Cupid pipeline for one configuration. A Matcher may be
// reused across schema pairs and is safe for concurrent Match calls: the
// linguistic matcher's token-similarity cache is sharded and lock-striped,
// and all other per-match state is local to the call. Match itself fans
// the quadratic phases out over a bounded worker pool (see internal/par),
// so even a single call uses the available cores.
type Matcher struct {
	cfg  Config
	ling *linguistic.Matcher
}

// NewMatcher builds a Matcher, validating the configuration.
func NewMatcher(cfg Config) (*Matcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lm := linguistic.NewMatcher(cfg.Thesaurus)
	lm.P = cfg.Linguistic
	return &Matcher{cfg: cfg, ling: lm}, nil
}

// Match computes a mapping between the source and target schemas. It is
// Prepare + MatchPrepared in one call: callers that match the same schema
// repeatedly (the repository workload of internal/registry) should Prepare
// once and reuse the artifact — the results are bit-identical.
func (m *Matcher) Match(src, dst *model.Schema) (*Result, error) {
	ps, err := m.Prepare(src)
	if err != nil {
		return nil, err
	}
	pd, err := m.Prepare(dst)
	if err != nil {
		return nil, err
	}
	return m.MatchPrepared(ps, pd)
}

// matchLinguisticOnly implements the §9.3 methodology: similarity is the
// linguistic similarity of complete path names; mapping generation applies
// the same acceptance threshold. Each node's path is normalized once per
// Prepared artifact (tokS/tokT are the cached token sets; the old code
// re-tokenized both full path strings for every node pair — O(n·m)
// normalizations), then the pair sweep runs NameSimTS over the cached
// token sets, rows fanned out over the worker pool.
func (m *Matcher) matchLinguisticOnly(res *Result, tokS, tokT []linguistic.TokenSet) (*Result, error) {
	ts, tt := res.SourceTree, res.TargetTree
	lsim := matrix.New(ts.Len(), tt.Len())
	par.For(ts.Len(), func(i int) {
		row := lsim.Row(i)
		for j := range tokT {
			row[j] = m.ling.NameSimTS(tokS[i], tokT[j])
		}
	})
	res.LSim = lsim
	res.WSim = lsim
	// Reuse the mapping generator by presenting lsim as wsim.
	fake := &structural.Result{SSim: lsim, WSim: lsim}
	res.Mapping = mapping.Generate(ts, tt, fake, lsim, m.cfg.Mapping)
	return res, nil
}

// applyInitialMapping raises the linguistic similarity of user-asserted
// pairs to the maximum value (§8.4, "Initial mappings"). A path→element
// index is built once per schema (single pre-order traversal), so each
// pair is an O(1) lookup instead of a full traversal.
func (m *Matcher) applyInitialMapping(src, dst *model.Schema, elemLSim matrix.Matrix) error {
	if len(m.cfg.InitialMapping) == 0 {
		return nil
	}
	index := func(s *model.Schema) map[string]*model.Element {
		out := make(map[string]*model.Element, s.Len())
		model.PreOrder(s.Root(), func(e *model.Element) {
			p := e.Path()
			if _, ok := out[p]; !ok { // first match wins, as before
				out[p] = e
			}
		})
		return out
	}
	srcByPath := index(src)
	dstByPath := index(dst)
	for _, pp := range m.cfg.InitialMapping {
		se := srcByPath[pp.Source]
		if se == nil {
			return fmt.Errorf("core: initial mapping source %q not found", pp.Source)
		}
		de := dstByPath[pp.Target]
		if de == nil {
			return fmt.Errorf("core: initial mapping target %q not found", pp.Target)
		}
		elemLSim.Set(se.ID(), de.ID(), 1)
	}
	return nil
}

// liftToNodes turns an element-level similarity matrix into a node-level
// one over buf's storage (matrix.Matrix.Reshape; a zero buf allocates):
// every context copy of an element inherits the element's value.
func liftToNodes(buf matrix.Matrix, ts, tt *schematree.Tree, elem matrix.Matrix) matrix.Matrix {
	out := buf.Reshape(ts.Len(), tt.Len())
	par.For(ts.Len(), func(i int) {
		row := elem.Row(ts.Nodes[i].Elem.ID())
		dst := out.Row(i)
		for j, t := range tt.Nodes {
			dst[j] = row[t.Elem.ID()]
		}
	})
	return out
}

// Match is a convenience that runs the full pipeline with DefaultConfig.
func Match(src, dst *model.Schema) (*Result, error) {
	m, err := NewMatcher(DefaultConfig())
	if err != nil {
		return nil, err
	}
	return m.Match(src, dst)
}
