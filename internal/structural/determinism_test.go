package structural_test

// Parallel-vs-sequential determinism of TreeMatch: the phase-1 leaf
// initialization and the final leaf-wsim refresh run on the par worker
// pool, while the phase-2 post-order sweep stays sequential. These tests
// force a multi-worker pool (even on one core) and assert the matrices are
// bit-identical to a fully sequential run — run them with -race to also
// exercise the disjoint-row write discipline.

import (
	"testing"

	"repro/internal/linguistic"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/schematree"
	"repro/internal/structural"
	"repro/internal/workloads"
)

func matchWithWorkers(t *testing.T, w workloads.Workload, workers int) (*structural.Result, *structural.Result) {
	t.Helper()
	prev := par.SetMaxWorkers(workers)
	defer par.SetMaxWorkers(prev)
	ts, err := schematree.Build(w.Source, schematree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tt, err := schematree.Build(w.Target, schematree.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lm := linguistic.NewMatcher(workloads.PaperThesaurus())
	elem := lm.LSim(lm.Analyze(w.Source), lm.Analyze(w.Target))
	lsim := matrix.New(ts.Len(), tt.Len())
	for i, sn := range ts.Nodes {
		for j, tn := range tt.Nodes {
			lsim.Set(i, j, elem.At(sn.Elem.ID(), tn.Elem.ID()))
		}
	}
	p := structural.DefaultParams()
	res := structural.TreeMatch(ts, tt, lsim, p)
	second := &structural.Result{SSim: res.SSim.Clone(), WSim: res.WSim.Clone()}
	structural.SecondPass(second, ts, tt, lsim, p)
	return res, second
}

func TestTreeMatchParallelMatchesSequential(t *testing.T) {
	// The synthetic pair has more leaves than par's inline threshold, so
	// its leaf sweeps really fan out.
	large := workloads.Synthetic(workloads.SyntheticSpec{Tables: 10, ColsPerTable: 9, Depth: 2, Seed: 3, Rename: 0.3, Renest: 0.2})
	for _, w := range []workloads.Workload{workloads.CIDXExcel(), workloads.University(), large} {
		seq, seq2 := matchWithWorkers(t, w, 1)
		par8, par8x2 := matchWithWorkers(t, w, 8)

		if !seq.SSim.Equal(par8.SSim) {
			t.Fatalf("%s: parallel ssim differs from sequential", w.Name)
		}
		if !seq.WSim.Equal(par8.WSim) {
			t.Fatalf("%s: parallel wsim differs from sequential", w.Name)
		}
		if seq.Comparisons != par8.Comparisons || seq.Pruned != par8.Pruned {
			t.Fatalf("%s: stats drifted: %d/%d (seq) vs %d/%d (par)",
				w.Name, seq.Comparisons, seq.Pruned, par8.Comparisons, par8.Pruned)
		}
		if !seq2.SSim.Equal(par8x2.SSim) || !seq2.WSim.Equal(par8x2.WSim) {
			t.Fatalf("%s: second-pass matrices differ between seq and par", w.Name)
		}
	}
}
