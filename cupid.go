// Package cupid is a Go implementation of the Cupid generic schema
// matching algorithm (Madhavan, Bernstein, Rahm: "Generic Schema Matching
// with Cupid", VLDB 2001 / MSR-TR-2001-58).
//
// Cupid discovers mappings between the elements of two schemas using
// their names, data types, constraints and structure. Matching runs in
// three phases: linguistic matching (tokenization, abbreviation expansion,
// thesaurus-driven name similarity, categorization), structural matching
// (the TreeMatch algorithm over expanded schema trees, biased toward leaf
// similarity), and mapping generation. The implementation covers the
// paper's full scope: generic schema graphs with containment, aggregation,
// IsDerivedFrom and reference relationships; context-dependent matching of
// shared types; referential constraints reified as join views; views;
// optionality; initial (user-supplied) mappings; and lazy expansion.
//
// # Quick start
//
//	src := cupid.NewSchema("PO")
//	item := src.AddChild(src.Root(), "Item", cupid.KindElement)
//	qty := src.AddChild(item, "Qty", cupid.KindAttribute)
//	qty.Type = cupid.DTInt
//	// ... build or parse the target schema ...
//	result, err := cupid.Match(src, dst)
//	for _, e := range result.Mapping.Leaves {
//	    fmt.Println(e)
//	}
//
// Schemas can also be imported from SQL DDL (ParseSQL), XML Schema
// (ParseXSD), DTDs (ParseDTD), JSON Schema (ParseJSONSchema), Avro
// (ParseAvro), or the native JSON format (ReadSchemaJSON) — all landing in
// the same generic model, with concrete datatype names normalized through
// one shared broad-type table (ParseDataType) so the datatype-compat
// signal works across formats.
//
// # Performance
//
// The quadratic phases of the pipeline — category-pair name similarity,
// element-pair lsim, and the leaf-leaf initialization/refresh sweeps of
// TreeMatch — are data-parallel and fan out over a bounded worker pool
// sized to GOMAXPROCS (internal/par). Every parallel loop writes disjoint
// cells, so results are bit-identical to sequential execution (asserted by
// the -race determinism tests); the post-order TreeMatch sweep itself
// stays sequential because the paper's increase/decrease steps are order
// dependent. Similarity tables use a flat row-major matrix (one backing
// []float64, internal/matrix) rather than [][]float64, and each element
// name's per-token-type partition is computed once at analysis time, which
// together make the steady-state name-similarity path allocation-free.
//
// Concurrency contract: a Matcher (and the package-level Match) is safe
// for concurrent use — the token-similarity cache is sharded behind
// striped mutexes, and all other per-match state is call-local. Configure
// first, then share: mutating Config, Params or the Thesaurus while
// matches are in flight is not synchronized.
//
// # Repository matching
//
// The paper frames Cupid as a matching component that a tool repeatedly
// applies against a repository of known schemas. Matcher.Prepare builds a
// reusable per-schema artifact (validated schema + expanded tree +
// linguistic analysis) and Matcher.MatchPrepared matches two artifacts
// with results bit-identical to Match, turning the per-schema phases into
// a one-time cost. SchemaRegistry stores prepared schemas keyed by name
// and content fingerprint and ranks a whole repository against one
// incoming schema through one planned entry point: SchemaRegistry.Match
// consults cheap per-probe statistics (corpus size, posting-list lengths,
// stop-token density) and picks a strategy and candidate budget per
// query, with RetrievalStats reporting the decision and what it cost.
// PlanOptions.Force pins one strategy: the exhaustive scan (also spelled
// MatchAll), the pruned scan that ranks candidates first by cheap
// per-schema signatures (size + normalized token overlap, see
// Prepared.Signature) so only the top fraction pays the full tree match,
// or indexed retrieval that generates candidates sublinearly from a
// token inverted index maintained incrementally on every mutation
// — only entries sharing a normalized token with the query are touched.
// The candidate budget is one fixed policy, max(16, ceil(f·n), topK) with
// f = 1/4 for the pruned scan and 1/8 for the indexed path; the serving
// layer's degradation halves the fraction and the floor.
// PersistentRegistry makes the repository durable — every mutation
// appends the schema's source document to a write-ahead journal that a
// background compactor folds into versioned JSON-lines snapshots, and a
// restart restores the newest consistent snapshot plus the journal tail
// with bit-identical rankings. The cupidd command serves
// register/list/match/batch over HTTP/JSON on top of all of this
// (docs/API.md is the full reference; docs/ARCHITECTURE.md the system
// tour).
//
// The cupidbench command's bench experiment (-exp bench) measures the
// sequential-vs-parallel pipeline on synthetic schemas of growing size,
// the 1-vs-K batch repository workload (naive Match calls vs the
// prepared-schema registry), the 1-vs-200 pruned-retrieval workload
// (exhaustive scan vs signature-pruned scan, recall@K asserted
// exactly 1.0), and the 1-vs-2000 indexed-retrieval workload (inverted
// index vs pruned scan vs full scan, recall@10 asserted >= 0.98 and the
// indexed path required to beat the pruned one), and merges the
// trajectory into BENCH_cupid.json as the perf baseline for future
// changes.
package cupid

import (
	"bytes"
	"fmt"
	"io"
	"strings"

	"repro/internal/avro"
	"repro/internal/core"
	"repro/internal/dtd"
	"repro/internal/instance"
	"repro/internal/jsonschema"
	"repro/internal/linguistic"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/schematree"
	"repro/internal/sqlddl"
	"repro/internal/structural"
	"repro/internal/thesaurus"
	"repro/internal/tuner"
	"repro/internal/workloads"
	"repro/internal/xsdlite"
)

// Schema is a generic schema graph: a rooted graph of elements connected
// by containment, aggregation, IsDerivedFrom and reference relationships
// (paper §8.1).
type Schema = model.Schema

// Element is a node of a schema graph.
type Element = model.Element

// Kind classifies an element by its role in its native data model.
type Kind = model.Kind

// Element kinds.
const (
	KindOther     = model.KindOther
	KindSchema    = model.KindSchema
	KindTable     = model.KindTable
	KindColumn    = model.KindColumn
	KindElement   = model.KindElement
	KindAttribute = model.KindAttribute
	KindType      = model.KindType
	KindKey       = model.KindKey
	KindRefInt    = model.KindRefInt
	KindView      = model.KindView
	KindJoinView  = model.KindJoinView
)

// DataType is the broad data-type classification used for the leaf
// compatibility table and the linguistic data-type categories.
type DataType = model.DataType

// Broad data types.
const (
	DTNone     = model.DTNone
	DTString   = model.DTString
	DTInt      = model.DTInt
	DTFloat    = model.DTFloat
	DTDecimal  = model.DTDecimal
	DTBool     = model.DTBool
	DTDate     = model.DTDate
	DTTime     = model.DTTime
	DTDateTime = model.DTDateTime
	DTBinary   = model.DTBinary
	DTEnum     = model.DTEnum
	DTID       = model.DTID
	DTIDRef    = model.DTIDRef
	DTComplex  = model.DTComplex
	DTAny      = model.DTAny
)

// NewSchema creates an empty schema whose root carries the given name.
func NewSchema(name string) *Schema { return model.New(name) }

// ParseDataType maps a concrete type name (SQL, XSD, or programming-language
// spelling) to its broad class.
func ParseDataType(name string) DataType { return model.ParseDataType(name) }

// Thesaurus holds the auxiliary linguistic knowledge Cupid consumes:
// synonym and hypernym entries annotated with strengths in [0,1],
// abbreviation expansions, stop-words, and concept tags.
type Thesaurus = thesaurus.Thesaurus

// NewThesaurus returns an empty thesaurus.
func NewThesaurus() *Thesaurus { return thesaurus.New() }

// BaseThesaurus returns the curated base thesaurus shipped with the
// library (the offline substitute for WordNet and hand-curated thesauri).
func BaseThesaurus() *Thesaurus { return thesaurus.Base() }

// ReadThesaurus parses a thesaurus from its JSON serialization.
func ReadThesaurus(r io.Reader) (*Thesaurus, error) { return thesaurus.ReadJSON(r) }

// Config collects every knob of the matching pipeline; start from
// DefaultConfig.
type Config = core.Config

// Mode selects full, linguistic-only, or structural-only matching.
type Mode = core.Mode

// Matching modes.
const (
	ModeFull           = core.ModeFull
	ModeLinguisticOnly = core.ModeLinguisticOnly
	ModeStructuralOnly = core.ModeStructuralOnly
)

// PathPair names a source and target element by containment path; used
// for initial mappings (§8.4).
type PathPair = core.PathPair

// LinguisticParams holds the per-token-type weights and the category
// compatibility threshold thns (§5).
type LinguisticParams = linguistic.Params

// StructuralParams holds the TreeMatch thresholds and factors of Table 1
// plus the §8.4 feature toggles.
type StructuralParams = structural.Params

// CompatTable is the data-type compatibility table initializing leaf
// structural similarity (entries in [0, 0.5]).
type CompatTable = structural.CompatTable

// DefaultCompat returns the default compatibility table.
func DefaultCompat() *CompatTable { return structural.DefaultCompat() }

// TreeOptions controls schema-graph-to-tree expansion (join views, views,
// node cap).
type TreeOptions = schematree.Options

// MappingOptions controls mapping generation (threshold, cardinality,
// non-leaf output).
type MappingOptions = mapping.Options

// Cardinality selects 1:n (the paper's naive scheme) or 1:1 output.
type Cardinality = mapping.Cardinality

// Mapping cardinalities.
const (
	OneToN   = mapping.OneToN
	OneToOne = mapping.OneToOne
)

// Mapping is the result of the Match operation: a set of mapping elements
// (correspondences between schema-tree nodes).
type Mapping = mapping.Mapping

// MappingElement is one correspondence, annotated with the similarities
// that produced it.
type MappingElement = mapping.Element

// Result is the full output of one Match run: the mapping plus every
// intermediate artifact (similarity matrices, expanded trees, linguistic
// analysis).
type Result = core.Result

// Tree is an expanded schema tree; Result exposes the source and target
// trees for similarity inspection.
type Tree = schematree.Tree

// Node is one context of one schema element in an expanded schema tree.
type Node = schematree.Node

// DefaultConfig returns the paper's typical configuration (Table 1 values,
// base thesaurus, join views enabled, naive 1:n generation).
func DefaultConfig() Config { return core.DefaultConfig() }

// Matcher runs the Cupid pipeline for one configuration. A Matcher may be
// reused across schema pairs and is safe for concurrent use (see the
// package documentation's concurrency contract): the token-similarity
// cache is sharded behind striped mutexes and all other per-match state is
// call-local. Configure first, then share.
type Matcher = core.Matcher

// NewMatcher builds a Matcher, validating the configuration.
func NewMatcher(cfg Config) (*Matcher, error) { return core.NewMatcher(cfg) }

// Match runs the full pipeline with DefaultConfig.
func Match(source, target *Schema) (*Result, error) { return core.Match(source, target) }

// Prepared is the reusable per-schema matching artifact: a validated
// schema plus its expanded schema tree and linguistic analysis, immutable
// after construction. Build one with Matcher.Prepare; matching two
// prepared schemas with Matcher.MatchPrepared skips the per-schema phases
// and is bit-identical to Match. Repository/service workloads (matching
// one incoming schema against many stored ones) should prepare each
// schema once — see SchemaRegistry and the cupidd server.
type Prepared = core.Prepared

// InstanceSamples is sampled instance data for a schema's leaves, keyed by
// leaf path ("table.column", with or without the schema-name prefix).
// Attaching samples at preparation (Matcher.PrepareWithInstances) or
// registration (SchemaRegistry.RegisterInstances, cupidd's POST /schemas
// "instances" field) builds per-leaf value profiles that sharpen leaf
// matching between profile-carrying schemas — observed-value evidence
// breaking ties that names and declared types leave ambiguous. Parse the
// JSON wire form with ParseInstanceSamples.
type InstanceSamples = instance.Samples

// ParseInstanceSamples decodes the JSON instances payload: an object
// mapping each sampled leaf path to an array of scalar values (strings,
// numbers, booleans; null marks a missing value). Sampling caps are
// enforced at parse time — at most 256 sampled leaves, 1024 values per
// leaf, and 256 bytes per value — so profile memory stays bounded
// regardless of payload size.
func ParseInstanceSamples(data []byte) (InstanceSamples, error) {
	return instance.ParseSamples(data)
}

// SchemaRegistry is a concurrency-safe repository of prepared schemas,
// keyed by name and content fingerprint. Register schemas once, then
// MatchAll an incoming schema against every entry (fanned out over the
// worker pool) for ranked top-K retrieval.
type SchemaRegistry = registry.Registry

// RegistryEntry is one registered schema: name, content fingerprint, and
// prepared artifact.
type RegistryEntry = registry.Entry

// RankedMatch is one repository schema's result in a MatchAll run.
type RankedMatch = registry.Ranked

// NewRegistry builds a schema registry with its own Matcher for the given
// configuration.
func NewRegistry(cfg Config) (*SchemaRegistry, error) { return registry.New(cfg) }

// NewRegistryWithMatcher builds a schema registry around an existing
// Matcher.
func NewRegistryWithMatcher(m *Matcher) *SchemaRegistry { return registry.NewWithMatcher(m) }

// RetrievalStats reports what one retrieval call did — the strategy that
// ran (planned or forced), the statistics the planner decided from, and
// how many entries were scored, tree-matched and budgeted. Every
// retrieval path returns it.
type RetrievalStats = registry.RetrievalStats

// RetrievalStrategy names a repository retrieval path: the planner
// (RetrievalAuto) or one of the three forced strategies.
type RetrievalStrategy = registry.Strategy

// Retrieval strategies, mirroring cupidd's -retrieval flag values.
const (
	// RetrievalAuto lets the stats-driven planner pick a strategy and
	// candidate budget per probe (SchemaRegistry.Plan).
	RetrievalAuto = registry.StrategyAuto
	// RetrievalExact forces the exhaustive scan (MatchAll).
	RetrievalExact = registry.StrategyExact
	// RetrievalPruned forces the linear signature-pruned scan
	// (SchemaRegistry.Match with PlanOptions.Force = RetrievalPruned).
	RetrievalPruned = registry.StrategyPruned
	// RetrievalIndexed forces inverted-index candidate generation
	// (SchemaRegistry.Match with PlanOptions.Force = RetrievalIndexed).
	RetrievalIndexed = registry.StrategyIndexed
)

// ParseRetrievalStrategy parses a -retrieval flag value (auto, exact,
// pruned, index or indexed).
func ParseRetrievalStrategy(s string) (RetrievalStrategy, error) { return registry.ParseStrategy(s) }

// PlanOptions configures SchemaRegistry.Match's planned retrieval: an
// optional forced strategy and the serving layer's degradation signal,
// which halves the candidate budgets.
type PlanOptions = registry.PlanOptions

// DefaultPlanOptions returns the zero PlanOptions: automatic planning
// under the fixed candidate budgets.
func DefaultPlanOptions() PlanOptions { return registry.DefaultPlanOptions() }

// PersistentRegistry is a SchemaRegistry whose contents survive restarts:
// each mutation's source document is made durable through the write-ahead
// journal (checksummed appends, group-commit fsync batching, background
// compaction into snapshot generations), and opening the data directory
// recovers the newest consistent snapshot plus the ordered journal tail. Matching is
// served from memory exactly like the plain registry. The cupidd server
// runs on one when started with -data; docs/PERSISTENCE.md specifies the
// durability contract.
type PersistentRegistry = registry.Persistent

// PersistOptions tunes a PersistentRegistry's write-ahead journal: the
// group-commit window and the compaction thresholds. The zero value takes
// the defaults.
type PersistOptions = registry.PersistOptions

// DefaultPersistOptions is the journal with the default compaction
// thresholds — the configuration cupidd runs unless flagged otherwise.
func DefaultPersistOptions() PersistOptions { return registry.DefaultPersistOptions() }

// SchemaSignature is the cheap per-schema summary (size + normalized token
// bag) candidate pruning compares; derive one with Prepared.Signature.
type SchemaSignature = model.Signature

// RegistryDoc is one persisted repository entry's source document — the
// registration key plus the bytes it was parsed from — as stored by a
// PersistentRegistry and shipped over the replication stream.
type RegistryDoc = registry.Doc

// ReplPos is a position in a PersistentRegistry's replication stream:
// the journal generation (WAL base sequence) plus the number of records
// applied within it. Followers checkpoint it to resume as a tail.
type ReplPos = registry.ReplPos

// ReplState is the concurrency-safe follower progress cell a replica's
// apply loop keeps current and its readiness probe reads.
type ReplState = registry.ReplState

// ReplStatus is a snapshot of a follower's replication progress: applied
// position, catch-up horizon, the primary's last observed position, and
// whether the follower has caught up.
type ReplStatus = registry.ReplStatus

// OpenPersistentRegistryOptions opens (creating if needed) the data
// directory, recovers the repository (newest consistent snapshot +
// ordered journal tail replay; a snapshot-only directory is a base
// generation), and returns the durable registry journaling under opts.
// Warnings report everything recovery had to skip or repair.
func OpenPersistentRegistryOptions(dir string, m *Matcher, opts PersistOptions) (p *PersistentRegistry, warnings []string, err error) {
	return registry.OpenPersistentOptions(dir, m, opts, ParseSchema)
}

// SchemaFingerprint returns the stable content hash of a schema — the
// identity the registry keys entries by.
func SchemaFingerprint(s *Schema) string { return model.Fingerprint(s) }

// SchemaFormats lists the schema formats ParseSchema accepts.
func SchemaFormats() []string {
	return []string{"sql", "xsd", "dtd", "json", "jsonschema", "avro"}
}

// ParseSchema imports a schema from raw bytes in the named format: "sql"
// (SQL DDL), "xsd" (XML Schema), "dtd" (XML DTD), "json" (the native
// schema JSON), "jsonschema" (JSON Schema draft-07 subset), or "avro"
// (Avro schema declarations; "avsc", the conventional file extension, is
// an alias). Format names are case-insensitive and may carry a leading
// dot (".sql"), so file extensions can be passed through directly. The
// cupidmatch CLI and the cupidd server share this loader.
func ParseSchema(name, format string, data []byte) (*Schema, error) {
	switch strings.TrimPrefix(strings.ToLower(strings.TrimSpace(format)), ".") {
	case "sql":
		return sqlddl.Parse(name, string(data))
	case "xsd":
		return xsdlite.Parse(name, data)
	case "dtd":
		return dtd.Parse(name, string(data))
	case "json":
		return model.ReadJSON(bytes.NewReader(data))
	case "jsonschema":
		return jsonschema.Parse(name, data)
	case "avro", "avsc":
		return avro.Parse(name, data)
	}
	return nil, fmt.Errorf("unknown schema format %q (want sql, xsd, dtd, json, jsonschema or avro)", format)
}

// ParseSQL imports a relational schema from SQL DDL (CREATE TABLE with
// PRIMARY KEY / FOREIGN KEY constraints, CREATE VIEW).
func ParseSQL(schemaName, ddl string) (*Schema, error) { return sqlddl.Parse(schemaName, ddl) }

// ParseXSD imports an XML Schema document (elements, attributes, named
// complex types as shared types, key/keyref as referential constraints).
func ParseXSD(schemaName string, doc []byte) (*Schema, error) {
	return xsdlite.Parse(schemaName, doc)
}

// ParseDTD imports an XML DTD (element content models, attribute lists,
// ID/IDREF as referential constraints).
func ParseDTD(schemaName, doc string) (*Schema, error) { return dtd.Parse(schemaName, doc) }

// ParseJSONSchema imports a JSON Schema document (draft-07 subset:
// objects/properties/required, $defs+$ref shared definitions with cycle
// cutting, arrays, enums, type unions).
func ParseJSONSchema(schemaName string, doc []byte) (*Schema, error) {
	return jsonschema.Parse(schemaName, doc)
}

// ParseAvro imports an Avro schema declaration (records, enums, arrays,
// maps, unions, fixed, named-type references, common logical types).
func ParseAvro(schemaName string, doc []byte) (*Schema, error) {
	return avro.Parse(schemaName, doc)
}

// ReadSchemaJSON parses a schema from the native JSON format.
func ReadSchemaJSON(r io.Reader) (*Schema, error) { return model.ReadJSON(r) }

// BuildTree expands a schema graph into a schema tree without running the
// matcher — useful for inspecting context expansion and join-view
// augmentation.
func BuildTree(s *Schema, opt TreeOptions) (*Tree, error) { return schematree.Build(s, opt) }

// DefaultTreeOptions enables join views and view expansion.
func DefaultTreeOptions() TreeOptions { return schematree.DefaultOptions() }

// --- gold mappings and auto-tuning (paper §10 future work) --------------

// GoldPair is one expected correspondence, named by schema-tree node
// paths; used to score mappings and to drive auto-tuning.
type GoldPair = workloads.GoldPair

// Gold is a gold-standard mapping: expected pairs, forbidden pairs, and
// per-target alternative acceptable sources.
type Gold = workloads.Gold

// TuneSpace lists candidate values per tunable structural parameter for
// the auto-tuning grid search.
type TuneSpace = tuner.Space

// TuneResult holds the evaluated trials of a grid search, best first.
type TuneResult = tuner.Result

// DefaultTuneSpace is a small grid around the paper's Table 1 values.
func DefaultTuneSpace() TuneSpace { return tuner.DefaultSpace() }

// Tune grid-searches the structural parameters against a gold mapping,
// addressing the paper's open problem of automatic parameter tuning (§9.3
// conclusion 8). It returns every valid trial scored by F1, best first.
func Tune(source, target *Schema, gold Gold, base Config, space TuneSpace) (*TuneResult, error) {
	w := workloads.Workload{Name: "tune", Source: source, Target: target, Gold: gold}
	return tuner.Grid(w, base, space)
}
