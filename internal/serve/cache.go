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
// An entry is one of two kinds, chosen by its Do caller. A content entry
// is a pure function of the content its key names (a /match pair, keyed
// by both sides' content), so no mutation of the store can change it and
// it survives Invalidate. A membership entry reads the store's
// membership (a /match/batch ranking): Invalidate makes it stale.
//
// Staleness contract: Invalidate bumps the epoch, and a membership entry
// is served only while the epoch it was computed in is current. A stale
// entry is never served; it stays in the LRU, under the same capacity,
// and the next Do of its key hands it to the computation that replaces
// it, as a memo of work no mutation can have changed (the frontend reuses
// a stale ranking's per-pair scores this way). A computation captures the
// epoch *before* it reads the backing store, and a membership result is
// inserted only if the epoch is unchanged when it finishes, so a mutation
// that commits mid-computation (then calls Invalidate before acking) can
// never leave a pre-mutation result servable. Callers coalescing onto an
// in-flight membership computation join only flights of the current
// epoch; a value they receive was therefore computed from a store state
// no older than their own arrival. Together: once a mutation has been
// acknowledged (registry committed, then Invalidate called, then ack), no
// later Get or Do can observe a pre-mutation value that the mutation
// could have changed. The property tests in cache_test.go and
// frontend_test.go exercise this under randomized mutate/match
// interleavings.
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
	// content marks an entry that survives Invalidate; any other entry
	// is served only while epoch is the cache's.
	content bool
	epoch   uint64
}

// fresh reports whether e may be served at the cache epoch now.
func (e *cacheEntry) fresh(now uint64) bool { return e.content || e.epoch == now }

// flight is one in-progress computation; joiners block on done.
type flight struct {
	epoch   uint64
	content bool
	done    chan struct{}
	val     any
	err     error
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

// Invalidate makes every membership entry stale and bumps the epoch so
// that in-flight membership computations (which captured the old epoch)
// cannot insert their now-possibly-stale results. Content entries stay.
// Call it after a mutation commits and before acknowledging it to the
// client.
func (c *Cache) Invalidate() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.epoch++
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

// Get returns the cached value for key, if present and not stale.
func (c *Cache) Get(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok && el.Value.(*cacheEntry).fresh(c.epoch) {
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).val, true
	}
	c.misses.Add(1)
	return nil, false
}

// Do returns the cached value for key or computes it, coalescing
// concurrent callers of the same key onto one computation. content says
// which kind of entry the key names (see Cache): true for a value that
// depends only on the content its key names, false for one that reads
// the store's membership. The returned bool reports whether the caller
// was spared the computation (cache hit or coalesced join).
//
// compute receives the caller's ctx and the key's stale entry (nil when
// there is none: always for content keys), which it may read as a memo
// but must not modify, and returns (value, cacheable, err);
// cacheable=false (e.g. a degraded, budget-shrunk result) hands the value
// to this caller and any joiners without inserting it. A compute error is
// returned to the leader and every joiner — except that a joiner whose
// own ctx is still live retries (possibly becoming the new leader) when
// the leader's error was only the *leader's* cancellation or deadline,
// so one abandoned client cannot fail the requests coalesced behind it.
// A compute that panics panics in the leader; its joiners return
// errComputePanicked, nothing is cached, and the next Do for the key
// computes afresh.
func (c *Cache) Do(ctx context.Context, key string, content bool, compute func(ctx context.Context, stale any) (val any, cacheable bool, err error)) (any, bool, error) {
	if c == nil {
		v, _, err := compute(ctx, nil)
		return v, false, err
	}
	for {
		c.mu.Lock()
		var stale any
		if el, ok := c.entries[key]; ok {
			e := el.Value.(*cacheEntry)
			if e.fresh(c.epoch) {
				c.lru.MoveToFront(el)
				c.mu.Unlock()
				c.hits.Add(1)
				return e.val, true, nil
			}
			stale = e.val
		}
		if f, ok := c.flights[key]; ok && (content || f.epoch == c.epoch) {
			// A content flight, or a same-epoch one: its result is at
			// least as fresh as our arrival. A stale-epoch membership
			// flight is left to finish (it will not insert) and we start
			// our own below.
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
		f := &flight{epoch: c.epoch, content: content, done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()
		c.misses.Add(1)

		v, err := c.lead(ctx, key, f, stale, compute)
		return v, false, err
	}
}

// lead runs compute for flight f and publishes its outcome. The flight
// is released and its joiners woken even when compute panics: they then
// get errComputePanicked, and the panic carries on up the leader's stack.
func (c *Cache) lead(ctx context.Context, key string, f *flight, stale any, compute func(ctx context.Context, stale any) (any, bool, error)) (any, error) {
	var cacheable bool
	f.err = errComputePanicked // until compute returns
	defer func() {
		c.mu.Lock()
		if c.flights[key] == f {
			delete(c.flights, key)
		}
		if f.err == nil && cacheable && (f.content || c.epoch == f.epoch) {
			c.insertLocked(&cacheEntry{key: key, val: f.val, content: f.content, epoch: f.epoch})
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, cacheable, f.err = compute(ctx, stale)
	return f.val, f.err
}

func (c *Cache) insertLocked(e *cacheEntry) {
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.lru.PushFront(e)
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
	Capacity int `json:"capacity"`
	// Len counts every entry, stale ones included.
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
