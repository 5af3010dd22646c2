package main

// The overload experiment: a closed-loop saturation harness for the
// serving layer (internal/serve). Mixed register/match traffic is driven
// at 1x, 2x and 4x of the read pool's capacity against a family-corpus
// repository; each cell records offered load, goodput, shed (429-class)
// rejections, degraded rankings and the p50/p99 latency of successful
// requests — the p99-vs-throughput knee admission control exists to
// flatten. A separate cache cell measures the warm-over-cold speedup of
// the singleflight match cache, and an identity pass asserts the cached,
// uncached and degraded paths return bit-identical rankings (the degraded
// one under its reported, shrunken candidate budget). Results merge into
// BENCH_cupid.json under "overload".

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// Overload workload shape. Capacity is defined by the read pool: slots
// default to the match worker count, so "1x load" means one closed-loop
// client per slot. Writes churn a bounded set of names so the corpus
// (and with it the per-match cost) stays comparable across cells.
const (
	overloadCorpus    = 200
	overloadTopK      = 10
	overloadQueueWait = 50 * time.Millisecond
	overloadChurn     = 64 // register ops cycle through this many names
	registerEvery     = 10 // 1 register per 10 requests (10% writes)
)

// OverloadCell is one load level of the saturation sweep.
type OverloadCell struct {
	// LoadX is the offered load as a multiple of capacity (closed-loop
	// workers per read slot).
	LoadX   int `json:"load_x"`
	Workers int `json:"workers"`
	// Offered counts every request issued; Succeeded the ones answered;
	// Shed the 429-class rejections (queue full or queue wait over the
	// latency target); Failed any other error (must be zero).
	Offered   int64 `json:"offered"`
	Succeeded int64 `json:"succeeded"`
	Shed      int64 `json:"shed"`
	Failed    int64 `json:"failed"`
	// Degraded counts successful rankings that ran under a shrunken
	// candidate budget (read-pool saturation at or past the threshold).
	Degraded int64 `json:"degraded"`
	// GoodputRPS is successful requests per second over the window;
	// P50MS/P99MS the latency percentiles of those successes.
	GoodputRPS float64 `json:"goodput_rps"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
}

// OverloadPoint is the overload experiment's record in BENCH_cupid.json.
type OverloadPoint struct {
	Corpus      int     `json:"corpus"`
	Slots       int     `json:"slots"`
	QueueWaitMS int64   `json:"queue_wait_ms"`
	WindowMS    int64   `json:"window_ms"`
	RegisterPct float64 `json:"register_pct"`
	// Cells holds the 1x/2x/4x sweep (caching disabled, so the knee
	// reflects admission and scoring, not repeated-query absorption).
	Cells []OverloadCell `json:"cells"`
	// Cache cell: mean ns for a batch ranking computed fresh (cold)
	// versus served from the warm cache, and their ratio (gated >= 10x).
	ColdNsPerOp  int64   `json:"cold_ns_per_op"`
	WarmNsPerOp  int64   `json:"warm_ns_per_op"`
	CacheSpeedup float64 `json:"cache_speedup"`
}

// percentileMS returns the p-quantile of lats in milliseconds.
func percentileMS(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(p * float64(len(lats)-1))
	return float64(lats[idx].Nanoseconds()) / 1e6
}

// overloadSpec is the retrieval mode every harness match uses: indexed
// candidates under the default budgets, like a default-flag cupidd.
func overloadSpec() serve.MatchSpec {
	return serve.MatchSpec{
		Retrieval: registry.StrategyIndexed,
		TopK:      overloadTopK,
		Prune:     registry.DefaultPruneOptions(),
		Index:     registry.DefaultIndexOptions(),
	}
}

// runOverloadCell drives `workers` closed-loop clients (each issues its
// next request as soon as the previous one resolves) for the window.
// Every registerEvery-th request is a write: admitted through the write
// pool, committed into the registry under a churn name, cache
// invalidated — exactly the server's mutation sequence.
func runOverloadCell(front *serve.Frontend, probes []*core.Prepared, reserve []*model.Schema, workers int, window time.Duration) (OverloadCell, error) {
	cell := OverloadCell{Workers: workers}
	spec := overloadSpec()
	var (
		offered, succeeded, shed, failed, degraded atomic.Int64
		regSeq                                     atomic.Int64
		mu                                         sync.Mutex
		lats                                       []time.Duration
		firstErr                                   error
	)
	deadline := time.Now().Add(window)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			local := make([]time.Duration, 0, 256)
			reg := front.Registry()
			for seq := id; time.Now().Before(deadline); seq += workers {
				offered.Add(1)
				begin := time.Now()
				var err error
				if seq%registerEvery == 0 {
					var release func()
					release, err = front.AcquireWrite(context.Background())
					if err == nil {
						n := int(regSeq.Add(1))
						_, _, err = reg.Register(fmt.Sprintf("churn-%d", n%overloadChurn), reserve[n%len(reserve)])
						front.Invalidate()
						release()
					}
				} else {
					var res serve.Result
					res, err = front.MatchBatch(context.Background(), probes[seq%len(probes)], spec)
					if err == nil && res.Stats.Degraded {
						degraded.Add(1)
					}
				}
				switch {
				case err == nil:
					succeeded.Add(1)
					local = append(local, time.Since(begin))
				case errors.Is(err, serve.ErrQueueFull) || errors.Is(err, serve.ErrQueueWait):
					shed.Add(1)
				default:
					failed.Add(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			lats = append(lats, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return cell, fmt.Errorf("overload cell (%d workers): unexpected request error: %w", workers, firstErr)
	}
	cell.Offered = offered.Load()
	cell.Succeeded = succeeded.Load()
	cell.Shed = shed.Load()
	cell.Failed = failed.Load()
	cell.Degraded = degraded.Load()
	cell.GoodputRPS = float64(cell.Succeeded) / elapsed.Seconds()
	cell.P50MS = percentileMS(lats, 0.50)
	cell.P99MS = percentileMS(lats, 0.99)
	return cell, nil
}

// overloadRegistry builds the harness repository: overloadCorpus family
// schemas registered, per-family probes prepared, and a reserve of
// distinct schemas for the write mix.
func overloadRegistry(cfg core.Config) (*registry.Registry, []*core.Prepared, []*model.Schema, error) {
	reg, err := registry.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: overloadCorpus / workloads.NumFamilies(), Seed: 11})
	for _, s := range corpus {
		if _, _, err := reg.Register(s.Name, s); err != nil {
			return nil, nil, nil, err
		}
	}
	probes := make([]*core.Prepared, workloads.NumFamilies())
	for fam := range probes {
		p, err := reg.Matcher().Prepare(workloads.FamilyProbe(fam, 42))
		if err != nil {
			return nil, nil, nil, err
		}
		probes[fam] = p
	}
	reserve := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: overloadChurn / workloads.NumFamilies(), Seed: 99})
	return reg, probes, reserve, nil
}

// runCacheCell measures the cold-vs-warm cost of a batch ranking through
// a cache-enabled frontend: cold is the mean first-computation cost over
// the probe set, warm the mean cost once every probe's ranking is
// resident (pure cache hits, admission bypassed).
func runCacheCell(reg *registry.Registry, probes []*core.Prepared) (coldNs, warmNs int64, err error) {
	front := serve.NewFrontend(reg, serve.Options{
		CacheCapacity: 1024,
		MatchDeadline: time.Minute,
	})
	spec := overloadSpec()
	start := time.Now()
	for _, p := range probes {
		if _, err := front.MatchBatch(context.Background(), p, spec); err != nil {
			return 0, 0, err
		}
	}
	coldNs = time.Since(start).Nanoseconds() / int64(len(probes))
	const warmRounds = 200
	start = time.Now()
	for i := 0; i < warmRounds; i++ {
		res, err := front.MatchBatch(context.Background(), probes[i%len(probes)], spec)
		if err != nil {
			return 0, 0, err
		}
		if !res.Cached {
			return 0, 0, fmt.Errorf("warm cache cell: request %d recomputed (cache miss) despite no mutation", i)
		}
	}
	warmNs = time.Since(start).Nanoseconds() / warmRounds
	return coldNs, warmNs, nil
}

// rankingIdentity renders a ranking as a comparable string (entry name +
// full-precision score, the same identity the registry tests use).
func rankingIdentity(ranked []registry.Ranked) string {
	out := ""
	for _, rk := range ranked {
		out += fmt.Sprintf("%s:%.17g;", rk.Entry.Name, rk.Score)
	}
	return out
}

// overloadIdentity asserts the serving layer never changes what a caller
// sees: cached, coalesced and uncached rankings are bit-identical to the
// registry's own, and a degraded ranking equals the registry run under
// the halved budget its RetrievalStats reports.
func overloadIdentity(reg *registry.Registry, probes []*core.Prepared) error {
	spec := overloadSpec()
	probe := probes[3%len(probes)]
	direct, _, err := reg.Match(probe, spec.TopK, registry.PlanOptions{Force: registry.StrategyIndexed, Index: spec.Index})
	if err != nil {
		return err
	}
	want := rankingIdentity(direct)

	// Cached path: cold fill, then a warm hit; both must equal direct.
	cached := serve.NewFrontend(reg, serve.Options{CacheCapacity: 64, MatchDeadline: time.Minute})
	cold, err := cached.MatchBatch(context.Background(), probe, spec)
	if err != nil {
		return err
	}
	warm, err := cached.MatchBatch(context.Background(), probe, spec)
	if err != nil {
		return err
	}
	if !warm.Cached {
		return fmt.Errorf("overload identity: repeat ranking was not a cache hit")
	}
	if got := rankingIdentity(cold.Ranked); got != want {
		return fmt.Errorf("overload identity: cold frontend ranking differs from the registry's\n got %s\nwant %s", got, want)
	}
	if got := rankingIdentity(warm.Ranked); got != want {
		return fmt.Errorf("overload identity: cached ranking differs from the registry's\n got %s\nwant %s", got, want)
	}

	// Uncached path (cache disabled) must also equal direct.
	uncached := serve.NewFrontend(reg, serve.Options{MatchDeadline: time.Minute})
	plain, err := uncached.MatchBatch(context.Background(), probe, spec)
	if err != nil {
		return err
	}
	if plain.Cached {
		return fmt.Errorf("overload identity: cache-disabled frontend served a cache hit")
	}
	if got := rankingIdentity(plain.Ranked); got != want {
		return fmt.Errorf("overload identity: uncached ranking differs from the registry's\n got %s\nwant %s", got, want)
	}

	// Degraded path: a one-slot frontend with the threshold at 0.5 is
	// saturated by its own request, so the ranking runs under the halved
	// budget — and must equal the registry run under that same budget.
	degradedFront := serve.NewFrontend(reg, serve.Options{
		Read:          serve.PoolOptions{Slots: 1, Queue: 4, MaxWait: time.Minute},
		MatchDeadline: time.Minute,
		DegradeAt:     0.5,
	})
	deg, err := degradedFront.MatchBatch(context.Background(), probe, spec)
	if err != nil {
		return err
	}
	if !deg.Stats.Degraded {
		return fmt.Errorf("overload identity: saturated one-slot frontend did not degrade")
	}
	halved := spec.Index
	halved.Fraction /= 2
	if halved.MinCandidates > 1 {
		halved.MinCandidates /= 2
	}
	if got, wantBudget := deg.Stats.CandidateBudget, halved.Limit(reg.Len(), spec.TopK); got != wantBudget {
		return fmt.Errorf("overload identity: degraded budget = %d, want the halved limit %d", got, wantBudget)
	}
	shrunk, _, err := reg.Match(probe, spec.TopK, registry.PlanOptions{Force: registry.StrategyIndexed, Index: halved})
	if err != nil {
		return err
	}
	if got, wantDeg := rankingIdentity(deg.Ranked), rankingIdentity(shrunk); got != wantDeg {
		return fmt.Errorf("overload identity: degraded ranking differs from the registry under the same shrunken budget\n got %s\nwant %s", got, wantDeg)
	}
	return nil
}

// runOverload executes the saturation sweep, the cache cell and the
// identity pass, enforces the overload gates, and merges the result into
// the bench report at outPath (preserving any other experiment's data).
func runOverload(outPath string, window time.Duration) error {
	cfg := core.DefaultConfig()
	reg, probes, reserve, err := overloadRegistry(cfg)
	if err != nil {
		return err
	}
	if err := overloadIdentity(reg, probes); err != nil {
		return err
	}
	fmt.Println("cupidbench: overload identity checks passed (cached == uncached == registry; degraded == registry under its reported budget)")

	front := serve.NewFrontend(reg, serve.Options{
		Read:          serve.PoolOptions{MaxWait: overloadQueueWait},
		Write:         serve.PoolOptions{Slots: 2, MaxWait: time.Second},
		MatchDeadline: time.Minute,
	})
	slots := front.ReadPool().Slots()
	pt := &OverloadPoint{
		Corpus:      reg.Len(),
		Slots:       slots,
		QueueWaitMS: overloadQueueWait.Milliseconds(),
		WindowMS:    window.Milliseconds(),
		RegisterPct: 100.0 / registerEvery,
	}
	fmt.Printf("cupidbench: overload sweep (corpus %d, %d read slots, %v queue-wait, %v per cell, %d%% writes)\n",
		pt.Corpus, slots, overloadQueueWait, window, int(pt.RegisterPct))
	fmt.Println("  load  workers  offered  goodput/s  shed  degraded  p50 ms   p99 ms")
	for _, loadX := range []int{1, 2, 4} {
		cell, err := runOverloadCell(front, probes, reserve, loadX*slots, window)
		if err != nil {
			return err
		}
		cell.LoadX = loadX
		pt.Cells = append(pt.Cells, cell)
		fmt.Printf("  %2dx   %7d  %7d  %9.1f  %4d  %8d  %7.2f  %7.2f\n",
			cell.LoadX, cell.Workers, cell.Offered, cell.GoodputRPS, cell.Shed, cell.Degraded, cell.P50MS, cell.P99MS)
	}

	cold, warm, err := runCacheCell(reg, probes)
	if err != nil {
		return err
	}
	pt.ColdNsPerOp, pt.WarmNsPerOp = cold, warm
	pt.CacheSpeedup = float64(cold) / float64(warm)
	fmt.Printf("  cache: cold %d ns/op, warm %d ns/op — %.0fx\n", cold, warm, pt.CacheSpeedup)

	// Gates. 1x is the capacity reference; the 2x cell must keep goodput
	// (admission sheds instead of collapsing) and a bounded p99 (no
	// request is served after queueing past the latency target, so the
	// tail cannot grow past queue-wait plus scoring time).
	c1, c2 := pt.Cells[0], pt.Cells[1]
	if c1.Succeeded == 0 {
		return fmt.Errorf("overload gate: the 1x cell completed no requests; window %v is too small", window)
	}
	for _, c := range pt.Cells {
		if c.Failed != 0 {
			return fmt.Errorf("overload gate: %d requests failed with non-overload errors at %dx load", c.Failed, c.LoadX)
		}
	}
	if c2.GoodputRPS < 0.8*c1.GoodputRPS {
		return fmt.Errorf("overload gate: goodput at 2x load = %.1f/s, want >= 0.8x the 1x capacity %.1f/s (admission control failed to protect throughput)",
			c2.GoodputRPS, c1.GoodputRPS)
	}
	if maxP99 := float64(overloadQueueWait.Milliseconds()) + 5*c1.P99MS; c2.P99MS > maxP99 {
		return fmt.Errorf("overload gate: p99 at 2x load = %.1fms, want <= queue-wait + 5x the 1x p99 (%.1fms) — the latency knee is not flat",
			c2.P99MS, maxP99)
	}
	if pt.CacheSpeedup < 10 {
		return fmt.Errorf("overload gate: cache-warm speedup = %.1fx (cold %dns, warm %dns), want >= 10x", pt.CacheSpeedup, cold, warm)
	}

	// Merge into the bench report without clobbering other experiments.
	report := BenchReport{}
	if data, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(data, &report); err != nil {
			return fmt.Errorf("parsing existing %s: %w", outPath, err)
		}
	}
	report.GeneratedUnix = time.Now().Unix()
	if report.GoMaxProcs == 0 {
		report.GoMaxProcs = runtime.GOMAXPROCS(0)
		report.NumCPU = runtime.NumCPU()
		report.Workers = par.Workers()
	}
	report.Overload = pt
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("overload results merged into %s\n", outPath)
	return nil
}
