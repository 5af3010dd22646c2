// Package par provides the bounded worker pool used to data-parallelize
// Cupid's quadratic phases (element-pair lsim, the leaf-leaf
// initialization and refresh sweeps of TreeMatch) and the registry's
// per-candidate fan-out.
//
// All parallel loops in this repository go through For (fine-grained
// loops, inline below seqThreshold iterations) or ForCtx (coarse-grained,
// cancelable loops such as the registry's per-candidate fan-out), so a
// single knob — SetMaxWorkers — switches the whole pipeline between
// sequential and concurrent execution. That is what the determinism tests
// and the cupidbench sequential-vs-parallel comparison rely on. Every loop
// body writes only cells owned by its index, so results are bit-identical
// to the sequential order regardless of scheduling.
//
// The worker bound is per-For-call, not global: each call spawns its own
// (short-lived) goroutine set, so k concurrent top-level Match calls can
// run up to k×Workers() goroutines at once. The Go scheduler still
// multiplexes them onto GOMAXPROCS OS threads; callers that need a hard
// global CPU bound should gate their own Match concurrency.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers caps the number of goroutines For may use. 0 (the default)
// means runtime.GOMAXPROCS(0).
var maxWorkers atomic.Int64

// SetMaxWorkers caps the worker count for subsequent For calls; n <= 0
// restores the default (GOMAXPROCS). It returns the previous cap so
// callers can defer-restore. Safe for concurrent use, but intended for
// setup/benchmark code, not for calls racing with active loops.
func SetMaxWorkers(n int) int {
	prev := int(maxWorkers.Swap(int64(n)))
	return prev
}

// Workers reports how many workers For would use for a large loop.
func Workers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// seqThreshold is the loop size below which For runs inline. For's loops
// are fine-grained (one matrix row of a schema tree per iteration), and a
// per-candidate match runs them on trees of tens of rows from inside the
// registry's already-parallel candidate fan-out: below this size goroutine
// startup and scheduling cost more than the rows they would offload.
const seqThreshold = 64

// For runs fn(i) for every i in [0, n), using up to Workers() goroutines
// once n reaches seqThreshold (shorter loops run inline). Iterations are
// handed out in contiguous chunks via an atomic cursor, so scheduling is
// work-stealing-ish without per-index channel traffic. fn must be safe to
// call concurrently for distinct indexes; For returns only after every
// iteration completed.
func For(n int, fn func(i int)) {
	forCancel(n, seqThreshold, nil, fn)
}

// ForCtx is the coarse-grained loop, with cooperative cancellation: every
// iteration is a whole unit of work (one candidate match), so it fans out
// from two iterations on. Every worker checks the context before each
// iteration and stops handing out work once it is done, so an abandoned
// caller (client disconnect, deadline) stops consuming CPU after at most
// one in-flight fn per worker. It returns ctx.Err() when the loop was cut
// short — iterations may then have been skipped, so the caller must
// discard partial results — and nil when every iteration ran. The serving
// layer threads request contexts through the registry's candidate-scoring
// loops with this.
func ForCtx(ctx context.Context, n int, fn func(i int)) error {
	if ctx == nil || ctx.Done() == nil {
		// Background-like contexts can never be canceled; skip the
		// per-iteration Err() calls entirely.
		forCancel(n, 2, nil, fn)
		return nil
	}
	forCancel(n, 2, ctx.Err, fn)
	return ctx.Err()
}

// forCancel is the shared loop body: loops shorter than minPar run inline,
// and canceled (nil = never) is consulted before each iteration.
func forCancel(n, minPar int, canceled func() error, fn func(i int)) {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 || n < minPar {
		for i := 0; i < n; i++ {
			if canceled != nil && canceled() != nil {
				return
			}
			fn(i)
		}
		return
	}
	// Chunks small enough to balance uneven iteration costs, large enough
	// to amortize the atomic increment.
	chunk := n / (w * 4)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				end := int(cursor.Add(int64(chunk)))
				start := end - chunk
				if start >= n {
					return
				}
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					if canceled != nil && canceled() != nil {
						return
					}
					fn(i)
				}
			}
		}()
	}
	wg.Wait()
}
