package serve

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Cache is an LRU result cache with singleflight coalescing and
// epoch-based invalidation.
//
// Staleness contract: Invalidate bumps the epoch and clears every entry.
// A computation captures the epoch *before* it reads the backing store
// and its result is inserted only if the epoch is unchanged when it
// finishes, so a mutation that commits mid-computation (then calls
// Invalidate before acking) can never leave a pre-mutation result in the
// cache. Callers coalescing onto an in-flight computation join only
// flights of the current epoch; a value they receive was therefore
// computed from a store state no older than their own arrival. Together:
// once a mutation has been acknowledged (registry committed, then
// Invalidate called, then ack), no later Get or Do can observe a
// pre-mutation value. The property test in cache_test.go exercises this
// under randomized mutate/match interleavings.
//
// Values are shared between all readers and must be treated as immutable.
//
// A nil *Cache is valid and disables caching: Get always misses, Do
// computes directly without coalescing. NewCache returns nil for
// capacity <= 0.
type Cache struct {
	capacity int

	mu      sync.Mutex
	epoch   uint64
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	flights map[string]*flight

	hits          atomic.Uint64
	misses        atomic.Uint64
	coalesced     atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

type cacheEntry struct {
	key string
	val any
}

// flight is one in-progress computation; joiners block on done.
type flight struct {
	epoch uint64
	done  chan struct{}
	val   any
	err   error
}

// errComputePanicked is the error a caller coalesced onto a computation
// gets when that computation panicked instead of returning.
var errComputePanicked = errors.New("serve: the shared computation panicked")

// NewCache builds a Cache holding up to capacity entries; capacity <= 0
// returns nil (caching disabled).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return nil
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
		flights:  make(map[string]*flight),
	}
}

// Invalidate discards every cached entry and bumps the epoch so that
// in-flight computations (which captured the old epoch) cannot insert
// their now-possibly-stale results. Call it after a mutation commits and
// before acknowledging it to the client.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.epoch++
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.mu.Unlock()
	c.invalidations.Add(1)
}

// Epoch reports the current invalidation epoch (0 for a nil cache).
func (c *Cache) Epoch() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Get returns the cached value for key, if present.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).val, true
	}
	c.misses.Add(1)
	return nil, false
}

// Do returns the cached value for key or computes it, coalescing
// concurrent callers of the same key onto one computation. The returned
// bool reports whether the caller was spared the computation (cache hit
// or coalesced join).
//
// compute receives the caller's ctx and returns (value, cacheable, err);
// cacheable=false (e.g. a degraded, budget-shrunk result) hands the value
// to this caller and any joiners without inserting it. A compute error is
// returned to the leader and every joiner — except that a joiner whose
// own ctx is still live retries (possibly becoming the new leader) when
// the leader's error was only the *leader's* cancellation or deadline,
// so one abandoned client cannot fail the requests coalesced behind it.
// A compute that panics panics in the leader; its joiners return
// errComputePanicked, nothing is cached, and the next Do for the key
// computes afresh.
func (c *Cache) Do(ctx context.Context, key string, compute func(ctx context.Context) (val any, cacheable bool, err error)) (any, bool, error) {
	if c == nil {
		v, _, err := compute(ctx)
		return v, false, err
	}
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.lru.MoveToFront(el)
			v := el.Value.(*cacheEntry).val
			c.mu.Unlock()
			c.hits.Add(1)
			return v, true, nil
		}
		if f, ok := c.flights[key]; ok && f.epoch == c.epoch {
			// Same-epoch flight: its result is at least as fresh as our
			// arrival. A stale-epoch flight is left to finish (it will not
			// insert) and we start our own below.
			c.mu.Unlock()
			c.coalesced.Add(1)
			var done <-chan struct{}
			if ctx != nil {
				done = ctx.Done()
			}
			select {
			case <-f.done:
			case <-done:
				return nil, false, ctx.Err()
			}
			if isCtxErr(f.err) && ctxLive(ctx) {
				continue
			}
			return f.val, true, f.err
		}
		f := &flight{epoch: c.epoch, done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		c.misses.Add(1)

		v, err := c.lead(ctx, key, f, compute)
		return v, false, err
	}
}

// lead runs compute for flight f and publishes its outcome. The flight
// is released and its joiners woken even when compute panics: they then
// get errComputePanicked, and the panic carries on up the leader's stack.
func (c *Cache) lead(ctx context.Context, key string, f *flight, compute func(ctx context.Context) (any, bool, error)) (any, error) {
	var cacheable bool
	f.err = errComputePanicked // until compute returns
	defer func() {
		c.mu.Lock()
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		if f.err == nil && cacheable && c.epoch == f.epoch {
			c.insertLocked(key, f.val)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, cacheable, f.err = compute(ctx)
	return f.val, f.err
}

func (c *Cache) insertLocked(key string, val any) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, val: val})
	for c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func ctxLive(ctx context.Context) bool {
	return ctx == nil || ctx.Err() == nil
}

// CacheStats is a point-in-time snapshot of the cache's counters.
type CacheStats struct {
	Capacity      int    `json:"capacity"`
	Len           int    `json:"len"`
	Epoch         uint64 `json:"epoch"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Coalesced     uint64 `json:"coalesced"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
}

// Stats snapshots the cache's counters (zero value for a nil cache).
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	n, epoch := c.lru.Len(), c.epoch
	c.mu.Unlock()
	return CacheStats{
		Capacity:      c.capacity,
		Len:           n,
		Epoch:         epoch,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}
