package par

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 3, 4, 7, 100, 1000} {
			prev := SetMaxWorkers(workers)
			hits := make([]int32, n)
			For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
			SetMaxWorkers(prev)
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestSetMaxWorkersRoundTrip(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetMaxWorkers(3)", got)
	}
	if got := SetMaxWorkers(0); got != 3 {
		t.Fatalf("SetMaxWorkers returned previous cap %d, want 3", got)
	}
	if Workers() < 1 {
		t.Fatal("default worker count must be at least 1")
	}
}

func TestForNestedDoesNotDeadlock(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	var total atomic.Int64
	// Both levels above the inline threshold, so both spawn workers.
	For(seqThreshold, func(i int) {
		For(seqThreshold, func(j int) { total.Add(1) })
	})
	if total.Load() != seqThreshold*seqThreshold {
		t.Fatalf("nested For ran %d iterations, want %d", total.Load(), seqThreshold*seqThreshold)
	}
}
