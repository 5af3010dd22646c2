package main

import (
	"sync"
	"time"
)

// clock is the load generator's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// openLoop issues requests on a fixed schedule, whether or not earlier
// ones have completed: request i is due at start + i·interval. Independent
// users arrive like this, so a stall in the server queues the requests
// behind it instead of slowing the arrivals.
type openLoop struct {
	clock    clock
	start    time.Time
	interval time.Duration
}

// due returns request i's scheduled send time.
func (o openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(i) * o.interval)
}

// run sends requests 0..n-1, each as soon as it is due, and returns how late
// the generator issued each one against the schedule. A late generator
// never skips or bunches requests away: it sends the overdue ones at once,
// and since send measures latency from the due time, the wait still counts.
func (o openLoop) run(n int, send func(i int, due time.Time)) []time.Duration {
	lateness := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due := o.due(i)
		o.clock.SleepUntil(due)
		lateness[i] = o.clock.Now().Sub(due)
		send(i, due)
	}
	return lateness
}

// recorder collects the outcome of concurrent requests.
type recorder struct {
	mu      sync.Mutex
	lat     []time.Duration
	ok      int
	failed  int
	errText map[string]int // first words of each distinct failure, for the log
}

func (r *recorder) add(lat time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failed++
		if r.errText == nil {
			r.errText = map[string]int{}
		}
		r.errText[firstLine(err.Error())]++
		return
	}
	r.ok++
	r.lat = append(r.lat, lat)
}

// runOpen drives n requests through an open loop on the real clock, each
// on its own goroutine, and waits for all of them. do sends request i and
// records its latency measured from due. It returns the generator's
// lateness per request.
func runOpen(n int, interval time.Duration, do func(i int, due time.Time)) []time.Duration {
	var wg sync.WaitGroup
	o := openLoop{clock: realClock{}, start: time.Now(), interval: interval}
	late := o.run(n, func(i int, due time.Time) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, due)
		}()
	})
	wg.Wait()
	return late
}

// runClosed runs clients closed loops until the deadline: each client sends
// its next request only after the previous one completed. do receives the
// client number and returns the request's latency, which it measures
// itself so that preparing the next input is not counted.
func runClosed(clients int, until time.Time, rec *recorder, do func(client int) (time.Duration, error)) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				rec.add(do(c))
			}
		}(c)
	}
	wg.Wait()
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			s = s[:i]
			break
		}
	}
	if len(s) > 120 {
		s = s[:120]
	}
	return s
}
