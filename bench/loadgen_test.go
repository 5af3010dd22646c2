package main

import (
	"testing"
	"time"
)

// fakeClock advances only when told to: SleepUntil jumps to the target, and
// the test moves time forward to simulate a stalled generator.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

func TestOpenLoopAccountsLatenessAgainstTheSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	o := openLoop{clock: clk, start: start, interval: 10 * time.Millisecond}
	var dues []time.Duration
	late := o.run(6, func(i int, due time.Time) {
		dues = append(dues, due.Sub(start))
		if i == 2 {
			clk.now = clk.now.Add(25 * time.Millisecond) // the generator stalls
		}
	})
	ms := time.Millisecond
	wantLate := []time.Duration{0, 0, 0, 15 * ms, 5 * ms, 0}
	wantDue := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms, 50 * ms}
	if len(late) != len(wantLate) || len(dues) != len(wantDue) {
		t.Fatalf("sent %d requests with %d lateness entries, want 6 of each", len(dues), len(late))
	}
	for i := range wantLate {
		if late[i] != wantLate[i] {
			t.Errorf("request %d lateness = %v, want %v", i, late[i], wantLate[i])
		}
		// Overdue requests keep their scheduled due time, so their latency
		// includes the stall.
		if dues[i] != wantDue[i] {
			t.Errorf("request %d due at %v, want %v", i, dues[i], wantDue[i])
		}
	}
}

func TestRecorderSeparatesFailures(t *testing.T) {
	var r recorder
	r.add(time.Millisecond, nil)
	r.add(2*time.Millisecond, &statusError{code: 429, body: "overloaded"})
	r.add(3*time.Millisecond, nil)
	if r.ok != 2 || r.failed != 1 || len(r.lat) != 2 {
		t.Fatalf("ok=%d failed=%d latencies=%d, want 2, 1, 2", r.ok, r.failed, len(r.lat))
	}
	if r.errText["HTTP 429: overloaded"] != 1 {
		t.Errorf("errText = %v", r.errText)
	}
}
