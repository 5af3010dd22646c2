package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two parallel children overlapping on [30, 50]: together they
		// cover [10, 70], not 80 ns.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "c", Start: 80, End: 90},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "d", Start: 95, End: 120},
		// A grandchild is its parent's, not the root's.
		{ID: 6, Parent: 2, Name: "a1", Start: 20, End: 40},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 100 - 60 - 10 - 5, 2: 40 - 20, 3: 40, 5: 25, 6: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := &tracer{}
	id := tr.begin(1, 0, "x")
	tr.count(id, "n", 3)
	tr.end(id)
	if id != 0 || len(tr.spans) != 0 {
		t.Fatalf("tracer off recorded span %d, %d spans", id, len(tr.spans))
	}
}
