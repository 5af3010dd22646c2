// Package serve is the serving layer of cupidd and cupidrouter. It holds
// the overload-resilience machinery between the HTTP handlers and the
// schema registry: bounded admission pools that fast-fail instead of
// queueing without limit, a singleflight LRU cache over match results
// with epoch-based invalidation, and a Frontend that threads request
// deadlines into the registry's context-aware match paths and sheds load
// by shrinking candidate budgets when the read pool saturates.
//
// It also carries the HTTP contract both binaries share (http.go): the
// route-table dispatcher with JSON 404/405 and the drain-time 503, the
// status-carrying Error and its JSON writer, the capped body decoder, the
// mapping of admission and context errors onto 429/503 + Retry-After,
// the serving flags (-concurrency, -queue-depth, -queue-wait,
// -match-deadline, -max-body) with their validation, and the
// listen-drain-shutdown loop. And it declares, once, every JSON shape
// the two binaries exchange (wire.go): the schema reference, the schema
// summary and list, mapping pairs, the batch request, result and reply,
// plus the one ranking merge (Merge) and the one batch rule (Trim) that
// cupidd's replies and the router's merged replies both go through.
//
// The layering is deliberate: admission happens *inside* the cache's
// compute callback, so a pure cache hit (or a request coalesced onto an
// in-flight computation) costs no pool slot — under a repeated-query
// storm the cache absorbs the load before the pools ever see it, and the
// pools bound only the genuinely distinct work.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/par"
)

// Admission errors. The HTTP layer maps ErrQueueFull and ErrQueueWait to
// 429 with a Retry-After hint, ErrDraining to 503 during shutdown.
var (
	// ErrQueueFull means the pool's wait queue was already at capacity, so
	// the request was rejected immediately rather than queued.
	ErrQueueFull = errors.New("serve: work queue full")
	// ErrQueueWait means the request queued but no slot freed within the
	// pool's latency target (MaxWait), so it was rejected rather than left
	// to accumulate unbounded latency.
	ErrQueueWait = errors.New("serve: queue wait exceeded latency target")
	// ErrDraining means the server is shutting down and no longer admits
	// new work; in-flight requests are drained to completion.
	ErrDraining = errors.New("serve: draining, not accepting new work")
)

// PoolOptions sizes an admission Pool. The zero value is usable: Slots
// defaults to par.Workers() (one slot per match worker, so admitted work
// never oversubscribes the CPU bound the matcher itself runs under),
// Queue to 8x Slots, MaxWait to 100ms.
type PoolOptions struct {
	// Slots is the number of requests allowed to execute concurrently.
	Slots int
	// Queue bounds how many requests may wait for a slot; arrivals beyond
	// it fail fast with ErrQueueFull.
	Queue int
	// MaxWait is the admission latency target: a request that queues
	// longer is rejected with ErrQueueWait instead of serving a reply
	// whose latency the caller has likely given up on.
	MaxWait time.Duration
}

// Pool is a bounded admission gate: at most Slots concurrent holders, at
// most Queue waiters, and no waiter waits past MaxWait. It deliberately
// rejects early under overload — the knee-shaped alternative (unbounded
// queueing) trades a fast 429 for timeouts on every request.
type Pool struct {
	slots    chan struct{}
	queueCap int64
	maxWait  time.Duration

	queued   atomic.Int64
	inFlight atomic.Int64

	admitted     atomic.Uint64
	rejectedFull atomic.Uint64
	rejectedWait atomic.Uint64
	canceled     atomic.Uint64
}

// NewPool builds a Pool, applying PoolOptions defaults.
func NewPool(opt PoolOptions) *Pool {
	slots := opt.Slots
	if slots <= 0 {
		slots = par.Workers()
	}
	queue := opt.Queue
	if queue <= 0 {
		queue = 8 * slots
	}
	maxWait := opt.MaxWait
	if maxWait <= 0 {
		maxWait = 100 * time.Millisecond
	}
	p := &Pool{slots: make(chan struct{}, slots), queueCap: int64(queue), maxWait: maxWait}
	for i := 0; i < slots; i++ {
		p.slots <- struct{}{}
	}
	return p
}

// Acquire admits the caller, blocking up to MaxWait for a free slot. On
// success it returns a release func (idempotent; must be called exactly
// when the work finishes). It fails with ErrQueueFull when the queue is
// at capacity, ErrQueueWait when the latency target passes first, or
// ctx.Err() when the caller gives up while queued — in every failure case
// no slot is held.
func (p *Pool) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot means no queueing and no timer.
	select {
	case <-p.slots:
		return p.admit(), nil
	default:
	}
	// The check-then-add is benign: a racing burst can overshoot the queue
	// cap by at most the number of racers, and the cap is a shed threshold,
	// not an invariant other code relies on.
	if p.queued.Load() >= p.queueCap {
		p.rejectedFull.Add(1)
		return nil, ErrQueueFull
	}
	p.queued.Add(1)
	defer p.queued.Add(-1)
	timer := time.NewTimer(p.maxWait)
	defer timer.Stop()
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case <-p.slots:
		return p.admit(), nil
	case <-timer.C:
		p.rejectedWait.Add(1)
		return nil, ErrQueueWait
	case <-done:
		p.canceled.Add(1)
		return nil, ctx.Err()
	}
}

func (p *Pool) admit() func() {
	p.admitted.Add(1)
	p.inFlight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			p.inFlight.Add(-1)
			p.slots <- struct{}{}
		})
	}
}

// Slots reports the pool's concurrency limit.
func (p *Pool) Slots() int { return cap(p.slots) }

// InFlight reports how many holders currently occupy slots.
func (p *Pool) InFlight() int { return int(p.inFlight.Load()) }

// Queued reports how many callers are waiting for a slot.
func (p *Pool) Queued() int { return int(p.queued.Load()) }

// Saturation reports instantaneous pressure as (inFlight+queued)/slots:
// <1 means free capacity, 1 means exactly busy, >1 means a backlog. The
// Frontend's degradation threshold compares against this.
func (p *Pool) Saturation() float64 {
	return float64(p.inFlight.Load()+p.queued.Load()) / float64(cap(p.slots))
}

// MaxWait reports the admission latency target (the Retry-After hint the
// HTTP layer sends with a 429).
func (p *Pool) MaxWait() time.Duration { return p.maxWait }

// PoolStats is a point-in-time snapshot of a Pool's counters.
type PoolStats struct {
	Slots        int     `json:"slots"`
	Queue        int     `json:"queue"`
	InFlight     int     `json:"inFlight"`
	Queued       int     `json:"queued"`
	Admitted     uint64  `json:"admitted"`
	RejectedFull uint64  `json:"rejectedFull"`
	RejectedWait uint64  `json:"rejectedWait"`
	Canceled     uint64  `json:"canceled"`
	Saturation   float64 `json:"saturation"`
}

// Stats snapshots the pool's counters. Counters are read individually
// (not under a lock), so concurrent snapshots are approximate.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Slots:        cap(p.slots),
		Queue:        int(p.queueCap),
		InFlight:     p.InFlight(),
		Queued:       p.Queued(),
		Admitted:     p.admitted.Load(),
		RejectedFull: p.rejectedFull.Load(),
		RejectedWait: p.rejectedWait.Load(),
		Canceled:     p.canceled.Load(),
		Saturation:   p.Saturation(),
	}
}
