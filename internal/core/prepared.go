package core

import (
	"fmt"
	"sync"

	"repro/internal/instance"
	"repro/internal/linguistic"
	"repro/internal/mapping"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/schematree"
	"repro/internal/structural"
)

// Prepared is the reusable per-schema matching artifact: a validated
// schema together with its expanded schema tree and linguistic analysis.
// Preparing a schema once and matching it many times turns the per-schema
// phases of the pipeline (validation, schematree.Build, linguistic
// Analyze) into a one-time cost — the repository/service workload the
// paper envisions, where one incoming schema is compared against many
// stored ones.
//
// A Prepared is immutable after construction and safe for concurrent use
// by any number of MatchPrepared calls. It is bound to the Matcher that
// built it (the tree depends on the matcher's tree options, the analysis
// on its thesaurus and linguistic parameters); passing it to a different
// Matcher is an error. The caller must not mutate the underlying schema
// after Prepare — the artifact holds the analysis of the schema as it was.
type Prepared struct {
	owner  *Matcher
	schema *model.Schema
	tree   *schematree.Tree
	info   *linguistic.SchemaInfo

	// fp caches the content hash. Lazy (once, concurrency-safe): plain
	// Match goes through Prepare too and never reads it, so the per-call
	// fast path should not pay two schema hashes.
	fpOnce sync.Once
	fp     string

	// pathToks caches the normalized token set of every node's full
	// context path. Only ModeLinguisticOnly consumes it, so it is computed
	// lazily (once, concurrency-safe) instead of on every Prepare.
	pathOnce sync.Once
	pathToks []linguistic.TokenSet

	// sig caches the pruning signature. Lazy like fp: only repository
	// retrieval (registry pruning and indexing) reads it, so plain Match never
	// pays the token-bag sweep.
	sigOnce sync.Once
	sig     model.Signature

	// profiles holds the per-leaf instance profiles when the schema was
	// prepared with sampled instance data (PrepareWithInstances); nil
	// otherwise. profileHash is the stable content hash of the resolved
	// profiles, mixed into Fingerprint so instance data participates in
	// repository entry identity. The retrieval Signature is deliberately
	// NOT affected: pruning, the inverted index, the planner and family
	// routing all see the same tokens with or without instances.
	profiles    map[*model.Element]*instance.Profile
	profileHash string
}

// Schema returns the underlying schema graph.
func (p *Prepared) Schema() *model.Schema { return p.schema }

// Tree returns the expanded schema tree.
func (p *Prepared) Tree() *schematree.Tree { return p.tree }

// Info returns the linguistic analysis (token sets, categories).
func (p *Prepared) Info() *linguistic.SchemaInfo { return p.info }

// Fingerprint returns the content hash of the artifact, the identity the
// registry keys entries by: model.Fingerprint of the schema, suffixed with
// the instance-profile hash when the artifact carries sampled instance
// data ("<schema-hash>+<profile-hash>"), so the same schema registered
// with different samples replaces the entry while identical samples stay
// idempotent. Computed on first use.
func (p *Prepared) Fingerprint() string {
	p.fpOnce.Do(func() {
		p.fp = model.Fingerprint(p.schema)
		if p.profileHash != "" {
			p.fp += "+" + p.profileHash
		}
	})
	return p.fp
}

// Signature returns the schema's retrieval signature (model.Signature):
// element count, expanded-tree leaf count, and the weighted normalized
// token bag of the cached linguistic analysis. The repository's candidate
// pruning stage (the registry's pruned strategy) ranks entries by signature affinity
// before running the full tree match on the survivors, and the inverted
// index (internal/index) posts each token with its stable weight.
// Computed on first use, concurrency-safe, immutable afterwards.
func (p *Prepared) Signature() model.Signature {
	p.sigOnce.Do(func() {
		toks, weights := p.owner.ling.WeightedSignatureTokens(p.info)
		p.sig = model.NewWeightedSignature(p.schema.Len(), p.tree.NumLeaves(), toks, weights)
	})
	return p.sig
}

// Prepare validates the schema and builds the reusable matching artifact:
// the expanded schema tree (under the matcher's tree options) and the
// linguistic analysis (under its thesaurus and parameters). Prepare is
// safe for concurrent use, like every other method of Matcher.
func (m *Matcher) Prepare(s *model.Schema) (*Prepared, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: schema %q: %w", s.Name, err)
	}
	t, err := schematree.Build(s, m.cfg.Tree)
	if err != nil {
		return nil, fmt.Errorf("core: expanding %q: %w", s.Name, err)
	}
	return &Prepared{
		owner:  m,
		schema: s,
		tree:   t,
		info:   m.ling.Analyze(s),
	}, nil
}

// pathTokens returns the normalized token set of every node's context
// path, computed once per Prepared (ModeLinguisticOnly's per-tree cost).
func (p *Prepared) pathTokens() []linguistic.TokenSet {
	p.pathOnce.Do(func() {
		toks := make([]linguistic.TokenSet, p.tree.Len())
		par.For(p.tree.Len(), func(i int) {
			toks[i] = linguistic.Normalize(p.tree.Nodes[i].Path(), p.owner.ling.Th)
		})
		p.pathToks = toks
	})
	return p.pathToks
}

// MatchPrepared computes a mapping between two prepared schemas, skipping
// the per-schema validation/expansion/analysis phases. The result is
// bit-identical to Match on the same schemas (Match is implemented on top
// of Prepare + MatchPrepared; the determinism tests assert the
// equivalence). Both artifacts must have been built by this Matcher. The
// temporaries it does not return (the element-level lsim table, TreeMatch
// and SecondPass working memory) come from the pooled kernel scratch; the
// matrices of the Result are always freshly allocated.
func (m *Matcher) MatchPrepared(src, dst *Prepared) (*Result, error) {
	sc := getScratch()
	defer putScratch(sc)
	return m.matchPrepared(sc, src, dst)
}

// matchPrepared is MatchPrepared with its temporaries drawn from sc.
func (m *Matcher) matchPrepared(sc *scratch, src, dst *Prepared) (*Result, error) {
	res, err := m.newResult(src, dst)
	if err != nil {
		return nil, err
	}
	if m.cfg.Mode == ModeLinguisticOnly {
		return m.matchLinguisticOnly(res, src.pathTokens(), dst.pathTokens())
	}
	res.Struct = new(structural.Result)
	var sp structural.Params
	if res.LSim, sp, err = m.treeMatch(sc, matrix.Matrix{}, res.Struct, src, dst); err != nil {
		return nil, err
	}
	if m.cfg.Mapping.NonLeaves {
		// Second post-order traversal (§7): leaf similarity updates during
		// TreeMatch may have changed non-leaf structural similarity.
		sc.tm.SecondPass(res.Struct, src.tree, dst.tree, res.LSim, sp)
	}
	res.WSim = res.Struct.WSim
	res.Mapping = mapping.Generate(src.tree, dst.tree, res.Struct, res.LSim, m.cfg.Mapping)
	return res, nil
}

// ScoreOnly reports whether MatchScore can rank this configuration: full
// mode with 1:n leaf mappings, whose leaf score is fixed once TreeMatch
// returns. Under 1:1 cardinality the greedy pick reads non-leaf (parent)
// similarities that SecondPass rewrites, and the other modes do not run
// the TreeMatch pipeline at all, so those need MatchPrepared.
func (m *Matcher) ScoreOnly() bool {
	return m.cfg.Mode == ModeFull && m.cfg.Mapping.Cardinality == mapping.OneToN
}

// MatchScore returns the repository ranking score of matching src against
// dst — the sum of the 1:n leaf mapping's wsim values, added in target
// post-order and normalized by the larger tree's leaf count, which is
// registry.Score of MatchPrepared(src, dst) bit for bit — at the cost
// ranking needs: the pipeline stops after TreeMatch, with no SecondPass,
// no mapping generation and no matrices kept. Every table it builds
// (element and node lsim, ssim, wsim) and all of TreeMatch's working
// memory come from one pooled kernel scratch, returned before MatchScore
// does, so a warm call allocates only a handful of small objects. It
// requires ScoreOnly.
func (m *Matcher) MatchScore(src, dst *Prepared) (float64, error) {
	sc := getScratch()
	defer putScratch(sc)
	return m.score(sc, src, dst)
}

// score is MatchScore with every table and all working memory drawn from
// sc.
func (m *Matcher) score(sc *scratch, src, dst *Prepared) (float64, error) {
	if !m.ScoreOnly() {
		return 0, fmt.Errorf("core: MatchScore needs full mode with 1:n mappings (use MatchPrepared)")
	}
	if err := m.owns(src, dst); err != nil {
		return 0, err
	}
	var err error
	if sc.lsim, _, err = m.treeMatch(sc, sc.lsim, &sc.st, src, dst); err != nil {
		return 0, err
	}
	leaves := max(src.tree.NumLeaves(), dst.tree.NumLeaves())
	if leaves == 0 {
		return 0, nil
	}
	return mapping.LeafWSimSum(src.tree, dst.tree, sc.st.WSim, m.cfg.Mapping) / float64(leaves), nil
}

// owns checks that both artifacts exist and belong to this matcher.
func (m *Matcher) owns(src, dst *Prepared) error {
	if src == nil || dst == nil {
		return fmt.Errorf("core: nil prepared schema")
	}
	if src.owner != m || dst.owner != m {
		return fmt.Errorf("core: prepared schema belongs to a different matcher (prepare and match with the same Matcher)")
	}
	return nil
}

// newResult checks the artifacts (owns) and starts their Result.
func (m *Matcher) newResult(src, dst *Prepared) (*Result, error) {
	if err := m.owns(src, dst); err != nil {
		return nil, err
	}
	return &Result{
		SourceTree: src.tree,
		TargetTree: dst.tree,
		SourceInfo: src.info,
		TargetInfo: dst.info,
	}, nil
}

// treeMatch runs the pipeline through TreeMatch. The node-level lsim is
// built over lsim's storage (Reshape) and returned, TreeMatch writes its
// matrices into st's storage, and the element-level lsim and TreeMatch's
// working memory come from sc. It also returns the structural parameters
// it ran under, which SecondPass must reuse.
func (m *Matcher) treeMatch(sc *scratch, lsim matrix.Matrix, st *structural.Result, src, dst *Prepared) (matrix.Matrix, structural.Params, error) {
	// Element-level lsim lifted to tree nodes (context copies inherit the
	// similarity of their element — linguistic matching is unaffected by
	// the graph-to-tree expansion, §8.2).
	sc.elem = m.ling.LSimInto(sc.elem, src.info, dst.info)
	m.ling.BlendDescriptions(src.info, dst.info, sc.elem, m.cfg.DescriptionWeight)
	if m.cfg.Mode == ModeStructuralOnly {
		sc.elem.Zero()
	}
	sp := m.cfg.Structural
	if err := m.applyInitialMapping(src.schema, dst.schema, sc.elem); err != nil {
		return lsim, sp, err
	}
	lsim = liftToNodes(lsim, src.tree, dst.tree, sc.elem)

	// Instance-aware leaf initialization: when BOTH artifacts carry value
	// profiles, leaf pairs profiled on both sides blend observed-value
	// compatibility into the declared-type table lookup (tie-breaking
	// evidence, internal/instance). The hook rides on a per-call copy of
	// the structural parameters; with either side profile-free the copy is
	// hook-less and the pipeline is bit-identical to the profile-free path.
	if len(src.profiles) > 0 && len(dst.profiles) > 0 {
		sp.LeafCompat = leafCompatFn(src.profiles, dst.profiles, sp.Table())
	}
	sc.tm.TreeMatch(st, src.tree, dst.tree, lsim, sp)
	return lsim, sp, nil
}
