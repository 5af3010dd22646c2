package main

// The shared harness every report experiment is built on: the report
// format and its one writer, the one timing loop, and the fixtures more
// than one experiment uses (FamilyCorpus registries, prepared probes,
// persistent primary/follower pairs, the replication pipe and ranking
// identity). An experiment file holds only its workload, its gates and
// its report block.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	cupid "repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// BenchReport is the file format of BENCH_cupid.json. Each experiment
// owns its blocks; writeReport merges one experiment's blocks into the
// file and keeps the rest.
type BenchReport struct {
	GeneratedUnix int64        `json:"generated_unix"`
	GoMaxProcs    int          `json:"go_maxprocs"`
	NumCPU        int          `json:"num_cpu"`
	Workers       int          `json:"workers"`
	Note          string       `json:"note"`
	Points        []BenchPoint `json:"points"`
	// Batch is the 1-vs-K repository workload (the registry's raison
	// d'être): prepared matching must beat K independent Match calls on
	// both time and allocations.
	Batch *BatchPoint `json:"batch,omitempty"`
	// Prune is the big-repository retrieval workload: signature-based
	// candidate pruning must beat the exhaustive scan on time with
	// recall@K = 1.0.
	Prune *PrunePoint `json:"prune,omitempty"`
	// Index is the 1-vs-2000 retrieval workload: the token inverted
	// index must beat the pruned scan on time with recall@10 >=
	// 0.98 against the exact scan.
	Index *IndexPoint `json:"index,omitempty"`
	// Overload is the serving-layer saturation sweep (-exp overload):
	// closed-loop mixed traffic at 1x/2x/4x capacity through the
	// admission-controlled frontend, plus the match cache's warm-vs-cold
	// cell. Gated: goodput at 2x >= 0.8x capacity, the 2x p99 bounded by
	// queue-wait + 5x the 1x p99, cache-warm >= 10x cold.
	Overload *OverloadPoint `json:"overload,omitempty"`
	// Planner is the planner-vs-static retrieval workload (-exp planner):
	// the stats-driven adaptive planner against every static policy at
	// three FamilyCorpus scales. Gated: planned recall@10 exactly 1.0,
	// planned aggregate sweep time never above any static policy, and an
	// allocation-free planning step.
	Planner *PlannerPoint `json:"planner,omitempty"`
	// Cluster is the scale-out workload (-exp cluster): scatter-gather
	// scaling over 1/2/4 consistent-hash shards (critical-path timing),
	// merged-ranking recall through the router's merge, and the
	// killed-and-restarted replica convergence cell. Gated: >= 1.6x
	// aggregate matches/sec from 1 to 4 shards, merged recall@10
	// exactly 1.0, byte-identical replica rankings.
	Cluster *ClusterPoint `json:"cluster,omitempty"`
	// Corpus is the corpus-scale retrieval workload (-exp corpus):
	// planned and indexed recall on a 10k FamilyCorpus registry and on
	// its bridged variant. Gated: every recall@10 >= 0.98 vs the
	// exhaustive scan.
	Corpus *CorpusPoint `json:"corpus,omitempty"`
	// CrossFormat is the generic-model fan-in workload (-exp crossformat):
	// cross-format self-match over the examples/crossformat corpus plus
	// the instance tie-break cell on byte-identical DDL. Gated: self-match
	// top-1 >= 0.95, cross-format recall@10 exactly 1.0, and instance
	// blending strictly beating name-only top-1 on the ambiguous corpus.
	CrossFormat *CrossFormatPoint `json:"crossformat,omitempty"`
}

// writeReport merges one experiment's results into the report at path:
// every block already in the file is kept, set fills in the experiment's
// own, and the generation time and machine fields are stamped from the
// current process. Experiments can therefore run in any order.
func writeReport(path string, set func(*BenchReport)) error {
	var report BenchReport
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing existing %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	set(&report)
	report.GeneratedUnix = time.Now().Unix()
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.NumCPU = runtime.NumCPU()
	report.Workers = par.Workers()
	if data, err = json.MarshalIndent(report, "", "  "); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results merged into %s\n", path)
	return nil
}

// timingReps is how many times timeArms repeats every arm. The timed
// workloads are deterministic, so each arm keeps its fastest repetition
// (the standard way to strip scheduler and allocator noise), and every
// cell at every scale gets the same count: no cell rests on one sample.
const timingReps = 5

// timing is one arm's cost: the fastest repetition's wall clock and the
// heap objects (runtime.MemStats.Mallocs) that repetition allocated.
type timing struct {
	ns, allocs int64
}

// timeArms times the arms of one comparison; one call of an arm is one
// repetition of its whole workload. Every arm runs once untimed (paging
// in data and code paths), then timingReps times. Two biases are
// neutralized beyond plain min-of-reps: ambient load drifts over
// seconds, so the arms are cycled within each repetition (every arm
// samples the same windows instead of one arm getting the quietest);
// and position within a cycle matters (one arm's garbage inflates the
// GC pacer's target, taxing whoever runs next), so the starting arm
// rotates per repetition and every run starts from a collected heap.
func timeArms(arms ...func() error) ([]timing, error) {
	for _, arm := range arms {
		if err := arm(); err != nil {
			return nil, err
		}
	}
	best := make([]timing, len(arms))
	var ms0, ms1 runtime.MemStats
	for r := 0; r < timingReps; r++ {
		for j := range arms {
			i := (r + j) % len(arms)
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			if err := arms[i](); err != nil {
				return nil, err
			}
			ns := time.Since(start).Nanoseconds()
			runtime.ReadMemStats(&ms1)
			if r == 0 || ns < best[i].ns {
				best[i] = timing{ns: ns, allocs: int64(ms1.Mallocs - ms0.Mallocs)}
			}
		}
	}
	return best, nil
}

// policy is one retrieval path under comparison.
type policy func(*core.Prepared) ([]registry.Ranked, error)

// retrieval is the policy ranking with reg.Match under opt.
func retrieval(reg *registry.Registry, topK int, opt registry.PlanOptions) policy {
	return func(p *core.Prepared) ([]registry.Ranked, error) {
		ranked, _, err := reg.Match(p, topK, opt)
		return ranked, err
	}
}

// exactPlan forces the exhaustive scan (what MatchAll runs).
var exactPlan = registry.PlanOptions{Force: registry.StrategyExact}

// forcedBudget is the candidate budget strategy s runs under, forced, at
// reg's size: what its RetrievalStats report.
func forcedBudget(reg *registry.Registry, p *core.Prepared, topK int, s registry.Strategy) (int, error) {
	_, st, err := reg.Match(p, topK, registry.PlanOptions{Force: s})
	return st.CandidateBudget, err
}

// sweepArm is the timeArms arm running every probe through run; it
// leaves the rankings in *out. The retrieval paths are deterministic, so
// any repetition's rankings are the rankings.
func sweepArm(probes []*core.Prepared, run policy, out *[][]registry.Ranked) func() error {
	return func() error {
		got := make([][]registry.Ranked, len(probes))
		for i, p := range probes {
			var err error
			if got[i], err = run(p); err != nil {
				return err
			}
		}
		*out = got
		return nil
	}
}

// topNames returns the entry-name set of a ranking.
func topNames(ranked []registry.Ranked) map[string]bool {
	out := make(map[string]bool, len(ranked))
	for _, rk := range ranked {
		out[rk.Entry.Name] = true
	}
	return out
}

// meanRecall is the mean top-K name overlap of each ranking with its
// probe's exhaustive ground truth.
func meanRecall(truth, got [][]registry.Ranked) float64 {
	total, hits := 0, 0
	for i := range truth {
		exact := topNames(truth[i])
		total += len(truth[i])
		for _, rk := range got[i] {
			if exact[rk.Entry.Name] {
				hits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// rankingKey renders a ranking as a comparable string: per result the
// entry name, fingerprint and full-precision score, then every leaf
// element's paths and similarities. Two rankings are identical, down to
// the mappings a response serializes, iff their keys are equal. Registry
// rankings go through serve.ResultsOf, the rendering the frontend caches
// and a reply sends.
func rankingKey(ranked []serve.BatchResult) string {
	var b strings.Builder
	for _, rk := range ranked {
		fmt.Fprintf(&b, "%s@%s:%.17g{", rk.Name, rk.Fingerprint, rk.Score)
		for _, p := range rk.Leaves {
			fmt.Fprintf(&b, "%s>%s:%.17g/%.17g/%.17g,", p.Source, p.Target, p.WSim, p.SSim, p.LSim)
		}
		b.WriteString("};")
	}
	return b.String()
}

// familyCorpus generates a k-schema FamilyCorpus under seed. Registration
// names are the generated schema names (the cluster ring hashes names,
// so naming is placement).
func familyCorpus(k int, seed int64) []*model.Schema {
	return workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: k / workloads.NumFamilies(), Seed: seed})
}

// familyRegistry registers familyCorpus(k, seed) into a fresh registry.
func familyRegistry(cfg core.Config, k int, seed int64) (*registry.Registry, error) {
	return registryOf(cfg, familyCorpus(k, seed))
}

// registryOf registers docs into a fresh registry.
func registryOf(cfg core.Config, docs []*model.Schema) (*registry.Registry, error) {
	reg, err := registry.New(cfg)
	if err != nil {
		return nil, err
	}
	return reg, registerCorpus(docs, func(*model.Schema) *registry.Registry { return reg })
}

// registerCorpus registers every schema into the registry target picks
// for it, fanned over the worker pool (corpus construction is ~half
// linguistic analysis and dominates setup at the large scales), and
// returns the first error.
func registerCorpus(corpus []*model.Schema, target func(*model.Schema) *registry.Registry) error {
	var mu sync.Mutex
	var firstErr error
	par.For(len(corpus), func(i int) {
		s := corpus[i]
		if _, _, err := target(s).Register(s.Name, s); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	return firstErr
}

// familyProbes generates one FamilyProbe per domain under seed.
func familyProbes(seed int64) []*model.Schema {
	out := make([]*model.Schema, workloads.NumFamilies())
	for f := range out {
		out[f] = workloads.FamilyProbe(f, seed)
	}
	return out
}

// prepareProbes prepares each probe schema with m and warms its cached
// signature, so timed retrieval measures planning, not memoization. Each
// side of a comparison prepares its own probes from the same schemas:
// prepared artifacts never cross matchers.
func prepareProbes(m *core.Matcher, schemas []*model.Schema) ([]*core.Prepared, error) {
	probes := make([]*core.Prepared, len(schemas))
	for i, s := range schemas {
		p, err := m.Prepare(s)
		if err != nil {
			return nil, err
		}
		p.Signature()
		probes[i] = p
	}
	return probes, nil
}

// replicaDirs creates the primary and follower data directories of a
// durability cell under one temporary root; cleanup removes both.
func replicaDirs() (pri, fol string, cleanup func(), err error) {
	root, err := os.MkdirTemp("", "cupidbench-repl-*")
	if err != nil {
		return "", "", nil, err
	}
	return filepath.Join(root, "primary"), filepath.Join(root, "follower"), func() { os.RemoveAll(root) }, nil
}

// openDataDir opens the data directory dir with a fresh matcher, as a
// new process would, and treats any recovery warning as an error.
func openDataDir(cfg core.Config, dir string) (*registry.Persistent, error) {
	m, err := core.NewMatcher(cfg)
	if err != nil {
		return nil, err
	}
	p, warns, err := registry.OpenPersistentOptions(dir, m, registry.PersistOptions{}, cupid.ParseSchema)
	if err != nil {
		return nil, err
	}
	if len(warns) > 0 {
		p.Close()
		return nil, fmt.Errorf("recovery warnings on %s: %v", dir, warns)
	}
	return p, nil
}

// shipStream drives one replication connection over an in-process pipe:
// the primary's real StreamReplication on one end, the follower's real
// ApplyReplication on the other. limit > 0 cuts the follower's read
// after that many bytes (the mid-stream kill); target != nil stops the
// connection cleanly once the follower has applied through target.
// Returns the follower's position after the connection ends.
func shipStream(pri, fol *registry.Persistent, state *registry.ReplState, from registry.ReplPos, limit int64, target *registry.ReplPos, onAdvance func(registry.ReplPos)) (registry.ReplPos, error) {
	pr, pw := io.Pipe()
	sctx, scancel := context.WithCancel(context.Background())
	defer scancel()
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		// Ctx-cancel returns nil; a severed pipe returns a transport
		// error. Either way the deferred close delivers EOF (or the
		// error) to the apply side.
		_ = pri.StreamReplication(sctx, pw, from, 20*time.Millisecond)
		pw.Close()
	}()
	if target != nil {
		watchDone := make(chan struct{})
		defer func() { <-watchDone }()
		go func() {
			defer close(watchDone)
			for {
				st := state.Status()
				if st.CaughtUp && !st.Pos.Before(*target) {
					scancel() // stream exits, closes pw, apply sees EOF
					return
				}
				select {
				case <-streamDone:
					return
				case <-time.After(2 * time.Millisecond):
				}
			}
		}()
	}
	var r io.Reader = pr
	if limit > 0 {
		r = io.LimitReader(pr, limit)
	}
	err := fol.ApplyReplication(context.Background(), r, state, onAdvance)
	// Unblock the streamer if it is mid-write, then reap it.
	scancel()
	pr.CloseWithError(io.ErrClosedPipe)
	<-streamDone
	return state.Status().Pos, err
}
