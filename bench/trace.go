package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	cupid "repro"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/linguistic"
	"repro/internal/mapping"
	"repro/internal/matrix"
	"repro/internal/registry"
	"repro/internal/schematree"
	"repro/internal/structural"
)

// span is one timed call into a layer. Spans of one replayed request share
// Req; Parent is the enclosing span's ID (0 at the root).
type span struct {
	Req    int              `json:"req"`
	ID     int              `json:"span"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory. When off, begin returns 0 and every other
// method does nothing, so the same code measures the untraced loop.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id != 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

func (t *tracer) count(id int, key string, v int64) {
	if id == 0 {
		return
	}
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] = v
}

// memStats reads the allocation counters when tracing; the untraced loop
// skips the read, so its cost shows in trace.overhead_ratio.
func (t *tracer) memStats() runtime.MemStats {
	var ms runtime.MemStats
	if t.on {
		runtime.ReadMemStats(&ms)
	}
	return ms
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Children may overlap (parallel work), so the
// covered part is the length of the union of their intervals, clipped to
// the parent.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		iv := kids[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, curS, curE := int64(0), int64(0), int64(-1)
		for _, c := range iv {
			a, b := max(c[0], s.Start), min(c[1], s.End)
			if b <= a {
				continue
			}
			if a > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = a, b
			} else if b > curE {
				curE = b
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// traceSizes is how much of each workload's seeded input the traced replay
// covers.
type traceSizes struct {
	Probes   int `json:"probes"`    // first batch-2k probes
	Pairs    int `json:"pairs"`     // first pair-large pairs
	Register int `json:"register"`  // register-churn documents journaled
	Overhead int `json:"overhead"`  // probes replayed with spans off and on
	Corpus   int `json:"corpus"`    // batch-2k corpus size
	TopK     int `json:"top_k"`     // ranking length
	Checks   int `json:"bit_check"` // probes and pairs checked bit for bit
}

func traceSizesFor(toy bool) traceSizes {
	if toy {
		return traceSizes{Probes: 4, Pairs: 2, Register: 50, Overhead: 2, Corpus: 100, TopK: 10, Checks: 4}
	}
	return traceSizes{Probes: 64, Pairs: 32, Register: 2000, Overhead: 16, Corpus: 2000, TopK: 10, Checks: 64}
}

// replayer runs the seeded inputs in-process, one call at a time, with a
// span around every call into a layer's public entry point.
type replayer struct {
	tr   *tracer
	m    *core.Matcher
	cfg  core.Config
	ling *linguistic.Matcher // same thesaurus and parameters as m's, for the stage replay
	reg  *registry.Registry
	ix   *index.Index // mirror of reg's index, built from the entries' signatures
	topK int
	req  int
	// Allocation deltas, summed per layer.
	allocs map[string][2]uint64 // name → {mallocs, bytes}
	calls  map[string]int
	failed []string
}

func (x *replayer) fail(format string, args ...any) {
	x.failed = append(x.failed, fmt.Sprintf(format, args...))
}

func (x *replayer) addAllocs(name string, before, after runtime.MemStats, calls int) {
	if !x.tr.on {
		return
	}
	a := x.allocs[name]
	a[0] += after.Mallocs - before.Mallocs
	a[1] += after.TotalAlloc - before.TotalAlloc
	x.allocs[name] = a
	x.calls[name] += calls
}

// prepare times core.Matcher.Prepare and, on the same schema, the two
// stages it runs: schematree.Build and linguistic.Matcher.Analyze.
func (x *replayer) prepare(parent int, name string, content []byte) (*core.Prepared, error) {
	sp := x.tr.begin(x.req, parent, "cupid.parse")
	s, err := cupid.ParseSchema(name, "json", content)
	x.tr.end(sp)
	if err != nil {
		return nil, err
	}
	m0 := x.tr.memStats()
	sp = x.tr.begin(x.req, parent, "core.prepare")
	p, err := x.m.Prepare(s)
	x.tr.end(sp)
	x.addAllocs("core.prepare", m0, x.tr.memStats(), 1)
	if err != nil {
		return nil, err
	}
	x.tr.count(sp, "nodes", int64(p.Tree().Len()))
	sp = x.tr.begin(x.req, parent, "schematree.build")
	_, err = schematree.Build(s, x.cfg.Tree)
	x.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = x.tr.begin(x.req, parent, "linguistic.analyze")
	x.ling.Analyze(s)
	x.tr.end(sp)
	return p, nil
}

// replayed is one replayed batch request, kept for its bit-for-bit check.
type replayed struct {
	req     int
	src     *core.Prepared
	top     []registry.Ranked
	matched int
}

// batch replays one /match/batch request the way Registry.Match runs it:
// Plan, candidate generation for the planned strategy, MatchPrepared and
// Score per candidate, then the sort.
func (x *replayer) batch(probe doc) (replayed, bool) {
	x.req++
	root := x.tr.begin(x.req, 0, "batch")
	defer x.tr.end(root)
	src, err := x.prepare(root, "", probe.Content)
	if err != nil {
		x.fail("batch %d: %v", x.req, err)
		return replayed{}, false
	}
	m0 := x.tr.memStats()
	sp := x.tr.begin(x.req, root, "registry.plan")
	plan := x.reg.Plan(src, x.topK, registry.DefaultPlanOptions())
	x.tr.end(sp)
	x.addAllocs("registry.plan", m0, x.tr.memStats(), 1)

	cands := x.candidates(root, src, plan)
	m0 = x.tr.memStats()
	rank := x.tr.begin(x.req, root, "registry.rank")
	out := make([]registry.Ranked, len(cands))
	for i, e := range cands {
		sp := x.tr.begin(x.req, rank, "core.match_prepared")
		res, err := x.m.MatchPrepared(src, e.Prepared)
		x.tr.end(sp)
		if err != nil {
			x.tr.end(rank)
			x.fail("batch %d: %v", x.req, err)
			return replayed{}, false
		}
		sp = x.tr.begin(x.req, rank, "registry.score")
		out[i] = registry.Ranked{Entry: e, Result: res, Score: registry.Score(res)}
		x.tr.end(sp)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Entry.Name < out[j].Entry.Name
	})
	if x.topK > 0 && x.topK < len(out) {
		out = out[:x.topK]
	}
	x.tr.end(rank)
	x.addAllocs("core.match_prepared", m0, x.tr.memStats(), len(cands))
	x.tr.count(rank, "matched", int64(len(cands)))
	x.tr.count(rank, "returned", int64(len(out)))
	return replayed{req: x.req, src: src, top: out, matched: len(cands)}, true
}

// checkBatch requires a replayed top-K to equal Registry.Match's bit for
// bit, after the same number of full matches.
func (x *replayer) checkBatch(b replayed) {
	want, st, err := x.reg.Match(b.src, x.topK, registry.DefaultPlanOptions())
	if err != nil {
		x.fail("batch %d: Registry.Match: %v", b.req, err)
		return
	}
	if st.CandidatesMatched != b.matched {
		x.fail("batch %d: replay matched %d candidates, Registry.Match %d", b.req, b.matched, st.CandidatesMatched)
	}
	var got batchReply
	for _, rk := range b.top {
		got.Results = append(got.Results, rankedName{rk.Entry.Name, rk.Score})
	}
	if ok, detail := sameRanking(got, want); !ok {
		x.fail("batch %d: replayed top-K differs from Registry.Match: %s", b.req, detail)
	}
}

// candidates mirrors the registry's execution of a planned strategy.
func (x *replayer) candidates(root int, src *core.Prepared, plan registry.Plan) []*registry.Entry {
	entries := x.reg.List()
	switch plan.Strategy {
	case registry.StrategyIndexed:
		sig := src.Signature()
		if plan.Budget >= len(entries) || len(sig.Tokens) == 0 {
			return entries
		}
		sp := x.tr.begin(x.req, root, "index.topk")
		cands, st := x.ix.TopK(sig, plan.Budget)
		x.tr.end(sp)
		x.tr.count(sp, "scored", int64(st.Scored))
		out := make([]*registry.Entry, 0, len(cands))
		for _, c := range cands {
			if e, ok := x.reg.Get(c.Key); ok {
				out = append(out, e)
			}
		}
		return out
	case registry.StrategyPruned:
		if plan.Budget >= len(entries) {
			return entries
		}
		sp := x.tr.begin(x.req, root, "registry.prune")
		defer x.tr.end(sp)
		sig := src.Signature()
		affs := make([]float64, len(entries))
		for i, e := range entries {
			affs[i] = sig.Affinity(e.Prepared.Signature())
		}
		order := indexes(len(entries))
		sort.SliceStable(order, func(i, j int) bool {
			if affs[order[i]] != affs[order[j]] {
				return affs[order[i]] > affs[order[j]]
			}
			return entries[order[i]].Name < entries[order[j]].Name
		})
		out := make([]*registry.Entry, plan.Budget)
		for i := range out {
			out[i] = entries[order[i]]
		}
		return out
	default:
		return entries
	}
}

// pair replays one /match request, then replays the matcher's stages on
// the same prepared pair: LSim, BlendDescriptions, TreeMatch, SecondPass
// and mapping generation. With check set, the stages' wsim and mapping
// must equal MatchPrepared's.
func (x *replayer) pair(pr [2]doc, check bool) {
	x.req++
	root := x.tr.begin(x.req, 0, "pair")
	src, err1 := x.prepare(root, "", pr[0].Content)
	dst, err2 := x.prepare(root, "", pr[1].Content)
	if src == nil || dst == nil {
		x.fail("pair %d: %v %v", x.req, err1, err2)
		x.tr.end(root)
		return
	}
	sp := x.tr.begin(x.req, root, "core.match_prepared")
	res, err := x.m.MatchPrepared(src, dst)
	x.tr.end(sp)
	x.tr.end(root)
	if err != nil {
		x.fail("pair %d: %v", x.req, err)
		return
	}

	stages := x.tr.begin(x.req, 0, "stages")
	defer x.tr.end(stages)
	ts, tt := src.Tree(), dst.Tree()
	sp = x.tr.begin(x.req, stages, "linguistic.lsim")
	elem := x.ling.LSim(src.Info(), dst.Info())
	x.tr.end(sp)
	sp = x.tr.begin(x.req, stages, "linguistic.blend")
	x.ling.BlendDescriptions(src.Info(), dst.Info(), elem, x.cfg.DescriptionWeight)
	x.tr.end(sp)
	lsim := liftToNodes(ts, tt, elem)
	sp = x.tr.begin(x.req, stages, "structural.treematch")
	st := structural.TreeMatch(ts, tt, lsim, x.cfg.Structural)
	x.tr.end(sp)
	if x.cfg.Mapping.NonLeaves {
		sp = x.tr.begin(x.req, stages, "structural.secondpass")
		structural.SecondPass(st, ts, tt, lsim, x.cfg.Structural)
		x.tr.end(sp)
	}
	sp = x.tr.begin(x.req, stages, "mapping.generate")
	mp := mapping.Generate(ts, tt, st, lsim, x.cfg.Mapping)
	x.tr.end(sp)
	if check {
		if !st.WSim.Equal(res.WSim) {
			x.fail("pair %d: stage replay wsim differs from MatchPrepared", x.req)
		}
		if !slices.Equal(mp.All(), res.Mapping.All()) {
			x.fail("pair %d: stage replay mapping differs from MatchPrepared", x.req)
		}
	}
}

// liftToNodes gives every context copy of an element the element's
// similarity, as core.MatchPrepared does between LSim and TreeMatch.
func liftToNodes(ts, tt *schematree.Tree, elem matrix.Matrix) matrix.Matrix {
	out := matrix.New(ts.Len(), tt.Len())
	for i, s := range ts.Nodes {
		row, dst := elem.Row(s.Elem.ID()), out.Row(i)
		for j, t := range tt.Nodes {
			dst[j] = row[t.Elem.ID()]
		}
	}
	return out
}

// register journals documents through Persistent.RegisterSource, timing
// the parse and Prepare it performs separately on the same document, then
// closes and reopens the directory to time recovery.
func (x *replayer) register(dir string, docs []doc) {
	p, _, err := registry.OpenPersistentOptions(dir, x.m, registry.DefaultPersistOptions(), cupid.ParseSchema)
	if err != nil {
		x.fail("opening %s: %v", dir, err)
		return
	}
	for _, d := range docs {
		x.req++
		root := x.tr.begin(x.req, 0, "register")
		sp := x.tr.begin(x.req, root, "registry.register_source")
		_, _, err := p.RegisterSource(d.Name, "json", d.Content)
		x.tr.end(sp)
		if err != nil {
			x.fail("registering %s: %v", d.Name, err)
		}
		if _, err := x.prepare(root, d.Name, d.Content); err != nil {
			x.fail("preparing %s: %v", d.Name, err)
		}
		x.tr.end(root)
	}
	if err := p.Close(); err != nil {
		x.fail("closing %s: %v", dir, err)
	}
	x.req++
	sp := x.tr.begin(x.req, 0, "registry.recover")
	p, _, err = registry.OpenPersistentOptions(dir, x.m, registry.DefaultPersistOptions(), cupid.ParseSchema)
	x.tr.end(sp)
	if err != nil {
		x.fail("recovering %s: %v", dir, err)
		return
	}
	if p.Len() != len(docs) {
		x.fail("recovered %d schemas, registered %d", p.Len(), len(docs))
	}
	if err := p.Close(); err != nil {
		x.fail("closing %s: %v", dir, err)
	}
}

// traceRun is the outcome of one traced replay.
type traceRun struct {
	Sizes     traceSizes        `json:"sizes"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    []string          `json:"failed,omitempty"`
	spans     []span
}

// runTrace replays the seeded inputs in-process on one goroutine. It
// replays the first probes with spans off and then on to measure the
// tracing overhead, then every input with spans on.
func runTrace(e *env) (*traceRun, error) {
	sz := traceSizesFor(e.toy)
	cfg := core.DefaultConfig()
	m, err := core.NewMatcher(cfg)
	if err != nil {
		return nil, err
	}
	ling := linguistic.NewMatcher(cfg.Thesaurus)
	ling.P = cfg.Linguistic
	docs := corpus(sz.Corpus, e.seed)
	reg := registry.NewWithMatcher(m)
	for _, d := range docs {
		s, err := cupid.ParseSchema(d.Name, "json", d.Content)
		if err != nil {
			return nil, err
		}
		if _, _, err := reg.Register(d.Name, s); err != nil {
			return nil, err
		}
	}
	ix := index.New(index.DefaultShards)
	for _, en := range reg.List() {
		ix.Upsert(en.Name, en.Fingerprint, en.Prepared.Signature())
	}
	probes := newProbeStream(e.seed).take(sz.Probes)
	prs := pairs(sz.Pairs, 0, e.seed)

	x := &replayer{
		tr: &tracer{}, m: m, cfg: cfg, ling: ling, reg: reg, ix: ix, topK: sz.TopK,
		allocs: map[string][2]uint64{}, calls: map[string]int{},
	}
	// Overhead: a warm-up pass, the untraced pass, then the traced pass
	// times the same probes with the same warm caches.
	k := min(sz.Overhead, len(probes))
	for _, pr := range probes[:k] {
		x.batch(pr)
	}
	t0 := time.Now()
	for _, pr := range probes[:k] {
		x.batch(pr)
	}
	untraced := time.Since(t0)

	x.tr = &tracer{on: true, t0: time.Now()}
	x.req = 0
	var traced time.Duration
	var done []replayed
	t0 = time.Now()
	for i, pr := range probes {
		if b, ok := x.batch(pr); ok {
			done = append(done, b)
		}
		if i == k-1 {
			traced = time.Since(t0)
		}
	}
	for i, b := range done {
		if i < sz.Checks {
			x.checkBatch(b)
		}
	}
	for i, pr := range prs {
		x.pair(pr, i < sz.Checks)
	}
	dir, err := os.MkdirTemp(e.work, "trace-registry-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	x.register(dir, docs[:min(sz.Register, len(docs))])

	t := &traceRun{Sizes: sz, Metrics: layerMetrics(x), Attempted: x.req, Failed: x.failed, spans: x.tr.spans}
	t.Metrics["trace.overhead_ratio"] = metric{Value: traced.Seconds() / untraced.Seconds(), Unit: "ratio", N: k}
	return t, nil
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics turns the spans and allocation counters into the per-layer
// metrics. Timings are means per call: a layer's busy time divided by its
// calls.
func layerMetrics(x *replayer) map[string]metric {
	spans := x.tr.spans
	self := selfTimes(spans)
	dur := func(s span) float64 { return float64(s.End - s.Start) }
	parentName := func(s span) string {
		if s.Parent == 0 {
			return ""
		}
		return spans[s.Parent-1].Name
	}
	type acc struct {
		sum float64
		n   int
	}
	by := map[string]*acc{}
	add := func(key string, v float64) {
		a := by[key]
		if a == nil {
			a = &acc{}
			by[key] = a
		}
		a.sum += v
		a.n++
	}
	// Per request: what the pair's MatchPrepared and a register's
	// RegisterSource cost beyond the stages timed beside them.
	type reqAcc struct{ whole, parts float64 }
	pairOther := map[int]*reqAcc{}
	walCommit := map[int]*reqAcc{}
	get := func(m map[int]*reqAcc, req int) *reqAcc {
		if m[req] == nil {
			m[req] = &reqAcc{}
		}
		return m[req]
	}
	var matched, returned int64
	for _, s := range spans {
		d := dur(s)
		pn := parentName(s)
		switch {
		case s.Name == "core.match_prepared" && pn == "registry.rank":
			add("core.match_prepared", d)
		case s.Name == "core.match_prepared" && pn == "pair":
			get(pairOther, s.Req).whole += d
		case pn == "stages":
			add(s.Name, d)
			get(pairOther, s.Req).parts += d
		case s.Name == "registry.register_source":
			get(walCommit, s.Req).whole += d
		case pn == "register" && (s.Name == "cupid.parse" || s.Name == "core.prepare"):
			get(walCommit, s.Req).parts += d
		}
		switch s.Name {
		case "cupid.parse", "core.prepare", "schematree.build", "linguistic.analyze",
			"registry.plan", "index.topk", "registry.score", "registry.recover":
			add(s.Name, d)
		case "registry.rank":
			add("registry.rank", d)
			add("registry.rank_self", float64(self[s.ID]))
			matched += s.Counts["matched"]
			returned += s.Counts["returned"]
			add("registry.matched", float64(s.Counts["matched"]))
		}
		if s.Name == "core.prepare" {
			add("schematree.nodes", float64(s.Counts["nodes"]))
		}
		if s.Name == "index.topk" {
			add("index.scored", float64(s.Counts["scored"]))
		}
	}
	mean := func(key string, unit float64) float64 {
		a := by[key]
		if a == nil || a.n == 0 {
			return 0
		}
		return a.sum / float64(a.n) / unit
	}
	n := func(key string) int {
		if a := by[key]; a != nil {
			return a.n
		}
		return 0
	}
	out := map[string]metric{}
	// A residual is the difference of two timings of a few hundred
	// microseconds to tens of milliseconds, so one jittered call can swing
	// it by more than its size: residuals take the median over requests.
	residual := func(name string, m map[int]*reqAcc) {
		var xs []float64
		for _, r := range m {
			xs = append(xs, (r.whole-r.parts)/1e3)
		}
		out[name] = metric{median(xs), "us", len(xs)}
	}
	residual("core.match_other_us", pairOther)
	residual("registry.wal_commit_us", walCommit)
	us := func(name, key string) { out[name] = metric{mean(key, 1e3), "us", n(key)} }
	us("importer.parse_us", "cupid.parse")
	us("core.prepare_us", "core.prepare")
	us("schematree.build_us", "schematree.build")
	us("linguistic.analyze_us", "linguistic.analyze")
	us("index.topk_us", "index.topk")
	us("core.match_prepared_us", "core.match_prepared")
	us("linguistic.lsim_us", "linguistic.lsim")
	us("linguistic.blend_us", "linguistic.blend")
	us("structural.treematch_us", "structural.treematch")
	us("structural.secondpass_us", "structural.secondpass")
	us("mapping.generate_us", "mapping.generate")
	us("registry.match_us", "registry.rank")
	us("registry.rank_other_us", "registry.rank_self")
	out["registry.plan_ns"] = metric{mean("registry.plan", 1), "ns", n("registry.plan")}
	out["registry.score_ns"] = metric{mean("registry.score", 1), "ns", n("registry.score")}
	out["registry.recover_ms"] = metric{mean("registry.recover", 1e6), "ms", n("registry.recover")}
	out["schematree.nodes"] = metric{mean("schematree.nodes", 1), "count", n("schematree.nodes")}
	out["index.scored"] = metric{mean("index.scored", 1), "count", n("index.scored")}
	out["registry.matched"] = metric{mean("registry.matched", 1), "count", n("registry.matched")}
	out["registry.useful_ratio"] = metric{ratio(int(returned), int(matched)), "ratio", n("registry.matched")}
	per := func(calls int, v uint64, unit float64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(v) / float64(calls) / unit
	}
	for _, l := range []struct{ layer, prefix string }{
		{"core.prepare", "core.prepare"},
		{"core.match_prepared", "core.match_prepared"},
		{"registry.plan", "registry.plan"},
	} {
		a, c := x.allocs[l.layer], x.calls[l.layer]
		out[l.prefix+"_allocs"] = metric{per(c, a[0], 1), "count", c}
		out[l.prefix+"_kb"] = metric{per(c, a[1], 1024), "KB", c}
	}
	return out
}
