package registry

// Request-lifecycle coverage: the context-threaded match paths must stop
// consuming CPU when the caller abandons them, must report ctx.Err()
// instead of partial rankings, and must stay bit-identical to their
// context-free forms when never canceled.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/workloads"
)

// corpusRegistry builds a registry over n family-corpus schemas.
func corpusRegistry(t *testing.T, n int) *Registry {
	t.Helper()
	r, err := New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: n / workloads.NumFamilies(), Seed: 5})
	for _, s := range corpus {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestMatchContextCanceledReturnsError(t *testing.T) {
	r := corpusRegistry(t, 40)
	probe, err := r.Matcher().Prepare(workloads.FamilyProbe(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	opt := PruneOptions{Fraction: 0.25, MinCandidates: 4}
	for _, force := range []Strategy{StrategyExact, StrategyPruned, StrategyIndexed} {
		if _, _, err := r.MatchContext(ctx, probe, 5, PlanOptions{Force: force, Prune: opt, Index: opt}); err != context.Canceled {
			t.Errorf("force=%s on canceled ctx = %v, want context.Canceled", force, err)
		}
	}
}

// countdownCtx is a context whose Err() flips to context.Canceled after
// a fixed number of Err() calls. Because the match loops consult Err()
// exactly once per candidate (plus once for the return value), it turns
// "cancel mid-scoring" into a deterministic event — no timers, no racing
// the scheduler — and its call counter records how many checks the loop
// made after cancellation.
type countdownCtx struct {
	context.Context
	calls atomic.Int64
	fuse  int64
	done  chan struct{}
}

func newCountdownCtx(fuse int64) *countdownCtx {
	return &countdownCtx{Context: context.Background(), fuse: fuse, done: make(chan struct{})}
}

// Done returns a non-nil (never-closed) channel so ForCtx takes its
// cancellation path rather than the background fast path.
func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) > c.fuse {
		return context.Canceled
	}
	return nil
}

// TestMatchContextCancellationIsPrompt cancels a 1-vs-N ranking
// mid-scoring — deterministically, after exactly fuse candidate checks —
// and asserts the sweep stops there instead of scoring the rest of the
// corpus.
func TestMatchContextCancellationIsPrompt(t *testing.T) {
	prev := par.SetMaxWorkers(1) // sequential: one Err() check per candidate, in order
	defer par.SetMaxWorkers(prev)
	r := corpusRegistry(t, 100)
	if r.Len() < 20 {
		t.Fatalf("corpus too small for a mid-loop cancellation: %d entries", r.Len())
	}
	probe, err := r.Matcher().Prepare(workloads.FamilyProbe(2, 7))
	if err != nil {
		t.Fatal(err)
	}

	const fuse = 5 // scored candidates before Err() starts reporting Canceled
	ctx := newCountdownCtx(fuse)
	ranked, _, err := r.MatchContext(ctx, probe, 5, PlanOptions{Force: StrategyExact})
	if err != context.Canceled {
		t.Fatalf("canceled exact scan = %v, want context.Canceled", err)
	}
	if ranked != nil {
		t.Errorf("canceled exact scan returned a partial ranking (%d entries), want nil", len(ranked))
	}
	// The loop checks Err() once per candidate; after the first Canceled it
	// must stop immediately. ForCtx consults Err() once more for its return
	// value, so a prompt stop is fuse+2 calls; scoring the whole corpus
	// would be > r.Len() calls.
	if calls := ctx.calls.Load(); calls > fuse+2 {
		t.Errorf("loop kept checking after cancellation: %d Err() calls, want <= %d (corpus %d)", calls, fuse+2, r.Len())
	}
}

// TestMatchContextIdenticalToContextFree asserts the ctx-threaded paths
// return bit-identical rankings to the context-free ones when never
// canceled.
func TestMatchContextIdenticalToContextFree(t *testing.T) {
	r := corpusRegistry(t, 60)
	probe, err := r.Matcher().Prepare(workloads.FamilyProbe(3, 9))
	if err != nil {
		t.Fatal(err)
	}
	opt := PruneOptions{Fraction: 0.25, MinCandidates: 4}
	for _, force := range []Strategy{StrategyAuto, StrategyExact, StrategyPruned, StrategyIndexed} {
		plan := PlanOptions{Force: force, Prune: opt, Index: opt}
		a, _, err := r.Match(probe, 10, plan)
		if err != nil {
			t.Fatalf("force=%s: %v", force, err)
		}
		b, _, err := r.MatchContext(context.Background(), probe, 10, plan)
		if err != nil {
			t.Fatalf("force=%s (ctx): %v", force, err)
		}
		if fmt.Sprint(rankingKey(a)) != fmt.Sprint(rankingKey(b)) {
			t.Errorf("force=%s: ctx-threaded ranking differs from context-free:\n%v\nvs\n%v", force, rankingKey(a), rankingKey(b))
		}
	}
}

func rankingKey(ranked []Ranked) []string {
	out := make([]string, len(ranked))
	for i, rk := range ranked {
		out[i] = fmt.Sprintf("%s:%.17g", rk.Entry.Name, rk.Score)
	}
	return out
}

// TestRetrievalStatsReportsBudget asserts every forced indexed outcome
// carries the candidate budget it ran under — the field the serving layer
// relies on to make degraded rankings self-describing.
func TestRetrievalStatsReportsBudget(t *testing.T) {
	r := corpusRegistry(t, 60)
	probe, err := r.Matcher().Prepare(workloads.FamilyProbe(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	opt := PruneOptions{Fraction: 0.125, MinCandidates: 4}
	_, st, err := r.Match(probe, 5, PlanOptions{Force: StrategyIndexed, Index: opt})
	if err != nil {
		t.Fatal(err)
	}
	if want := opt.Limit(r.Len(), 5); st.CandidateBudget != want {
		t.Errorf("CandidateBudget = %d, want Limit(%d, 5) = %d", st.CandidateBudget, r.Len(), want)
	}
	if st.Degraded {
		t.Error("an undegraded indexed run set Degraded; only the serving layer may")
	}
	// The exact-scan fallback reports its (over-)budget too.
	_, st, err = r.Match(probe, 5, PlanOptions{Force: StrategyIndexed})
	if err != nil {
		t.Fatal(err)
	}
	if st.CandidateBudget < r.Len() {
		t.Errorf("fallback CandidateBudget = %d, want >= corpus %d", st.CandidateBudget, r.Len())
	}
}
