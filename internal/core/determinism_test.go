package core

// End-to-end parallel-vs-sequential determinism: the whole pipeline
// (Analyze, CompatiblePairs, LSim, lift, TreeMatch, SecondPass, Generate)
// must produce bit-identical similarity matrices and the same mapping
// whether the par pool runs one worker or many. The ISSUE acceptance
// criterion; run with -race to exercise the concurrent paths on any
// machine.

import (
	"testing"

	"repro/internal/par"
	"repro/internal/workloads"
)

func matchWorkers(t *testing.T, w workloads.Workload, workers int) *Result {
	t.Helper()
	prev := par.SetMaxWorkers(workers)
	defer par.SetMaxWorkers(prev)
	m, err := NewMatcher(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Match(w.Source, w.Target)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPipelineParallelMatchesSequential(t *testing.T) {
	for _, w := range []workloads.Workload{
		workloads.Figure2(),   // canonical PO example
		workloads.CIDXExcel(), // the paper's real-world PO workload
		workloads.University(),
		// Larger than par's inline threshold: the row loops really fan out.
		workloads.Synthetic(workloads.SyntheticSpec{Tables: 10, ColsPerTable: 9, Depth: 2, Seed: 3, Rename: 0.3, Renest: 0.2}),
	} {
		seq := matchWorkers(t, w, 1)
		par8 := matchWorkers(t, w, 8)

		if !seq.LSim.Equal(par8.LSim) {
			t.Fatalf("%s: parallel node lsim differs from sequential (max diff %v)",
				w.Name, seq.LSim.MaxAbsDiff(par8.LSim))
		}
		if !seq.WSim.Equal(par8.WSim) {
			t.Fatalf("%s: parallel wsim differs from sequential (max diff %v)",
				w.Name, seq.WSim.MaxAbsDiff(par8.WSim))
		}
		if !seq.Struct.SSim.Equal(par8.Struct.SSim) {
			t.Fatalf("%s: parallel ssim differs from sequential", w.Name)
		}
		if got, want := par8.Mapping.String(), seq.Mapping.String(); got != want {
			t.Fatalf("%s: mappings differ\nsequential:\n%s\nparallel:\n%s", w.Name, want, got)
		}
	}
}

// Concurrent Match calls on one shared Matcher must be safe and agree with
// the sequential result (the documented concurrency contract).
func TestConcurrentMatchCalls(t *testing.T) {
	w := workloads.Figure2()
	m, err := NewMatcher(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Match(w.Source, w.Target)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 6
	results := make([]*Result, callers)
	errs := make([]error, callers)
	done := make(chan int, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			results[g], errs[g] = m.Match(w.Source, w.Target)
			done <- g
		}(g)
	}
	for i := 0; i < callers; i++ {
		<-done
	}
	for g := 0; g < callers; g++ {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !results[g].WSim.Equal(want.WSim) {
			t.Fatalf("concurrent Match call %d drifted from sequential result", g)
		}
		if results[g].Mapping.String() != want.Mapping.String() {
			t.Fatalf("concurrent Match call %d produced a different mapping", g)
		}
	}
}
