package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func computeConst(v any) func(context.Context, any) (any, bool, error) {
	return func(context.Context, any) (any, bool, error) { return v, true, nil }
}

func TestCacheHitMissAndLRU(t *testing.T) {
	c := NewCache(2)
	ctx := context.Background()
	for _, k := range []string{"a", "b"} {
		if _, shared, err := c.Do(ctx, k, false, computeConst(k)); err != nil || shared {
			t.Fatalf("first Do(%q) = shared %t, err %v; want fresh compute", k, shared, err)
		}
	}
	if v, ok := c.Get("a"); !ok || v != "a" {
		t.Fatalf("Get(a) = %v, %t; want cached \"a\"", v, ok)
	}
	// "a" is now most recent, so inserting "c" evicts "b".
	if _, _, err := c.Do(ctx, "c", false, computeConst("c")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("Get(b) hit after capacity eviction; want LRU entry evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("Get(a) missed; recently-used entry should survive eviction")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Len != 2 {
		t.Errorf("stats = evictions %d, len %d; want 1, 2", st.Evictions, st.Len)
	}
}

func TestCacheDoCoalescesConcurrentCallers(t *testing.T) {
	c := NewCache(8)
	var computes atomic.Int64
	enter := make(chan struct{})
	proceed := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, shared, err := c.Do(context.Background(), "k", false, func(context.Context, any) (any, bool, error) {
			computes.Add(1)
			close(enter)
			<-proceed
			return 42, true, nil
		})
		if v != 42 || shared || err != nil {
			t.Errorf("leader Do = %v, %t, %v; want 42, false, nil", v, shared, err)
		}
	}()
	<-enter
	const joiners = 8
	var wg sync.WaitGroup
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := c.Do(context.Background(), "k", false, func(context.Context, any) (any, bool, error) {
				computes.Add(1)
				return -1, true, nil
			})
			if v != 42 || !shared || err != nil {
				t.Errorf("joiner Do = %v, %t, %v; want 42, true, nil", v, shared, err)
			}
		}()
	}
	// Joiners reach the flight join point before the leader finishes.
	waitFor(t, func() bool { return c.Stats().Coalesced == joiners })
	close(proceed)
	<-leaderDone
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times for %d concurrent callers, want 1", got, joiners+1)
	}
}

func TestCacheInvalidateDropsInFlightInsert(t *testing.T) {
	c := NewCache(8)
	enter := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do(context.Background(), "k", false, func(context.Context, any) (any, bool, error) {
			close(enter)
			<-proceed // an Invalidate lands here, mid-computation
			return "stale", true, nil
		})
		if v != "stale" || err != nil {
			t.Errorf("Do = %v, %v; the caller still gets its (pre-mutation) value", v, err)
		}
	}()
	<-enter
	c.Invalidate()
	close(proceed)
	<-done
	if v, ok := c.Get("k"); ok {
		t.Errorf("Get after cross-epoch insert = %v; a result computed before Invalidate must not be cached", v)
	}
}

func TestCacheUncacheableResultNotStored(t *testing.T) {
	c := NewCache(8)
	v, shared, err := c.Do(context.Background(), "k", false, func(context.Context, any) (any, bool, error) {
		return "degraded", false, nil
	})
	if v != "degraded" || shared || err != nil {
		t.Fatalf("Do = %v, %t, %v", v, shared, err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("uncacheable (degraded) result was stored")
	}
}

func TestCacheComputeErrorNotStoredAndPropagates(t *testing.T) {
	c := NewCache(8)
	boom := errors.New("boom")
	if _, _, err := c.Do(context.Background(), "k", false, func(context.Context, any) (any, bool, error) {
		return nil, true, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("errored computation was cached")
	}
}

func TestCacheFollowerRetriesAfterLeaderCancellation(t *testing.T) {
	c := NewCache(8)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	enter := make(chan struct{})
	proceed := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, err := c.Do(leaderCtx, "k", false, func(ctx context.Context, _ any) (any, bool, error) {
			close(enter)
			<-proceed
			return nil, false, ctx.Err() // leader's client disconnected mid-compute
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader Do = %v, want context.Canceled", err)
		}
	}()
	<-enter
	followerDone := make(chan struct{})
	var followerComputed atomic.Bool
	go func() {
		defer close(followerDone)
		v, _, err := c.Do(context.Background(), "k", false, func(context.Context, any) (any, bool, error) {
			followerComputed.Store(true)
			return "fresh", true, nil
		})
		if v != "fresh" || err != nil {
			t.Errorf("follower Do = %v, %v; want it to retry past the leader's cancellation", v, err)
		}
	}()
	waitFor(t, func() bool { return c.Stats().Coalesced >= 1 })
	cancelLeader()
	close(proceed)
	<-leaderDone
	<-followerDone
	if !followerComputed.Load() {
		t.Error("follower never recomputed; it inherited the abandoned leader's cancellation")
	}
	if v, ok := c.Get("k"); !ok || v != "fresh" {
		t.Errorf("Get after follower retry = %v, %t; want fresh cached", v, ok)
	}
}

func TestCacheJoinerOwnCancellationWins(t *testing.T) {
	c := NewCache(8)
	enter := make(chan struct{})
	proceed := make(chan struct{})
	defer close(proceed)
	go c.Do(context.Background(), "k", false, func(context.Context, any) (any, bool, error) {
		close(enter)
		<-proceed
		return 1, true, nil
	})
	<-enter
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", false, computeConst(2)); !errors.Is(err, context.Canceled) {
		t.Errorf("joiner with dead ctx = %v, want context.Canceled", err)
	}
}

// TestCacheLeaderPanicReleasesJoiners: a compute that panics must not
// strand its flight. The panic reaches the leader, a joiner coalesced
// onto the flight returns errComputePanicked at once (not after its
// deadline), nothing is cached, and the next Do for the key recomputes.
func TestCacheLeaderPanicReleasesJoiners(t *testing.T) {
	c := NewCache(8)
	enter := make(chan struct{})
	proceed := make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		c.Do(context.Background(), "k", false, func(context.Context, any) (any, bool, error) {
			close(enter)
			<-proceed
			panic("compute failed")
		})
	}()
	<-enter
	joinerDone := make(chan error, 1)
	go func() {
		v, _, err := c.Do(context.Background(), "k", false, computeConst("joiner computed"))
		if v != nil {
			err = fmt.Errorf("joiner got value %v alongside error %v", v, err)
		}
		joinerDone <- err
	}()
	waitFor(t, func() bool { return c.Stats().Coalesced == 1 })
	close(proceed)
	if r := <-leaderDone; r != "compute failed" {
		t.Errorf("leader recovered %v, want the compute's panic", r)
	}
	select {
	case err := <-joinerDone:
		if !errors.Is(err, errComputePanicked) {
			t.Errorf("joiner Do error = %v, want errComputePanicked", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("joiner still waiting on the panicked flight after 10s")
	}
	if _, ok := c.Get("k"); ok {
		t.Error("a panicked computation left an entry in the cache")
	}
	v, shared, err := c.Do(context.Background(), "k", false, computeConst("recomputed"))
	if v != "recomputed" || shared || err != nil {
		t.Errorf("Do after the panic = %v, %t, %v; want a fresh computation", v, shared, err)
	}
}

func TestNilCacheDisablesCaching(t *testing.T) {
	c := NewCache(0)
	if c != nil {
		t.Fatal("NewCache(0) should return nil (disabled)")
	}
	c.Invalidate() // must not panic
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache Get hit")
	}
	for i := 0; i < 2; i++ {
		v, shared, err := c.Do(context.Background(), "k", false, computeConst(i))
		if shared || err != nil || v != i {
			t.Errorf("nil cache Do #%d = %v, %t, %v; want fresh compute each time", i, v, shared, err)
		}
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache Stats = %+v, want zero", st)
	}
}

func TestCacheEpochAdvancesPerInvalidation(t *testing.T) {
	c := NewCache(4)
	for i := uint64(1); i <= 3; i++ {
		c.Invalidate()
		if got := c.Epoch(); got != i {
			t.Fatalf("Epoch after %d invalidations = %d", i, got)
		}
	}
	if st := c.Stats(); st.Invalidations != 3 {
		t.Errorf("Invalidations = %d, want 3", st.Invalidations)
	}
}

func TestCacheKeysAreIndependent(t *testing.T) {
	c := NewCache(16)
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := c.Do(ctx, k, false, computeConst(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if v, ok := c.Get(fmt.Sprintf("k%d", i)); !ok || v != i {
			t.Errorf("Get(k%d) = %v, %t; want %d", i, v, ok, i)
		}
	}
}

// TestCacheInvalidateStalesOnlyMembershipEntries: Invalidate leaves a
// content entry servable, and makes a membership entry stale — not
// served, still counted against capacity, and handed to the computation
// that replaces it.
func TestCacheInvalidateStalesOnlyMembershipEntries(t *testing.T) {
	c := NewCache(8)
	ctx := context.Background()
	if _, _, err := c.Do(ctx, "pair", true, computeConst("p1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Do(ctx, "batch", false, computeConst("b1")); err != nil {
		t.Fatal(err)
	}
	c.Invalidate()
	if v, ok := c.Get("pair"); !ok || v != "p1" {
		t.Errorf("Get(pair) after Invalidate = %v, %t; a content entry must survive", v, ok)
	}
	if v, ok := c.Get("batch"); ok {
		t.Errorf("Get(batch) after Invalidate = %v; a stale membership entry was served", v)
	}
	if n := c.Stats().Len; n != 2 {
		t.Errorf("cache holds %d entries, want 2: the stale one stays under the bound", n)
	}
	var got any
	v, shared, err := c.Do(ctx, "batch", false, func(_ context.Context, stale any) (any, bool, error) {
		got = stale
		return "b2", true, nil
	})
	if v != "b2" || shared || err != nil || got != "b1" {
		t.Errorf("Do(batch) after Invalidate = %v, %t, %v with stale %v; want a fresh b2 computed with stale b1", v, shared, err, got)
	}
	if v, ok := c.Get("batch"); !ok || v != "b2" {
		t.Errorf("Get(batch) after recomputation = %v, %t; want b2", v, ok)
	}
	if _, _, err := c.Do(ctx, "pair", true, func(_ context.Context, stale any) (any, bool, error) {
		t.Error("a content entry was recomputed after Invalidate")
		return nil, false, nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCacheContentFlightSurvivesInvalidate: a content computation that an
// Invalidate lands in the middle of still inserts its result, and a
// caller arriving after the Invalidate joins it.
func TestCacheContentFlightSurvivesInvalidate(t *testing.T) {
	c := NewCache(8)
	enter := make(chan struct{})
	proceed := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do(context.Background(), "pair", true, func(context.Context, any) (any, bool, error) {
			close(enter)
			<-proceed
			return "p", true, nil
		})
	}()
	<-enter
	c.Invalidate()
	joined := make(chan any, 1)
	go func() {
		v, _, _ := c.Do(context.Background(), "pair", true, computeConst("second computation"))
		joined <- v
	}()
	waitFor(t, func() bool { return c.Stats().Coalesced == 1 })
	close(proceed)
	<-done
	if v := <-joined; v != "p" {
		t.Errorf("caller after Invalidate got %v, want the in-flight content result", v)
	}
	if v, ok := c.Get("pair"); !ok || v != "p" {
		t.Errorf("Get(pair) = %v, %t; a content result computed across an Invalidate must be cached", v, ok)
	}
}
