package linguistic_test

// Parallel-vs-sequential determinism of the linguistic phase: LSim fans
// its element rows out over a worker pool, and the contract is that the
// parallel result is bit-identical to the sequential one. Run with -race:
// these tests force multiple workers even on a single-core machine, so
// the name table, the name memo and the disjoint matrix writes are
// actually exercised concurrently.

import (
	"testing"

	"repro/internal/linguistic"
	"repro/internal/matrix"
	"repro/internal/par"
	"repro/internal/workloads"
)

func lsimWithWorkers(t *testing.T, w workloads.Workload, workers int) matrix.Matrix {
	t.Helper()
	prev := par.SetMaxWorkers(workers)
	defer par.SetMaxWorkers(prev)
	m := linguistic.NewMatcher(workloads.PaperThesaurus())
	a := m.Analyze(w.Source)
	b := m.Analyze(w.Target)
	return m.LSim(a, b)
}

func TestLSimParallelMatchesSequential(t *testing.T) {
	// The synthetic pair has more elements than par's inline threshold, so
	// its element rows really fan out.
	large := workloads.Synthetic(workloads.SyntheticSpec{Tables: 10, ColsPerTable: 9, Depth: 2, Seed: 3, Rename: 0.3, Renest: 0.2})
	for _, w := range []workloads.Workload{workloads.CIDXExcel(), workloads.University(), large} {
		seqLSim := lsimWithWorkers(t, w, 1)
		parLSim := lsimWithWorkers(t, w, 8)
		if !seqLSim.Equal(parLSim) {
			t.Fatalf("%s: parallel lsim differs from sequential (max abs diff %v)",
				w.Name, seqLSim.MaxAbsDiff(parLSim))
		}
	}
}

// The name table must also be safe for concurrent NameSimTS callers
// (concurrent Match calls share one Matcher).
func TestConcurrentNameSimCallers(t *testing.T) {
	m := linguistic.NewMatcher(workloads.PaperThesaurus())
	pairs := [][2]string{
		{"POBillTo", "InvoiceTo"}, {"Qty", "Quantity"},
		{"CustomerNumber", "ClientNo"}, {"UnitOfMeasure", "UOM"},
		{"POLines", "Items"}, {"City", "CityName"},
	}
	nameSim := func(p [2]string) float64 {
		return m.NameSimTS(linguistic.Normalize(p[0], m.Th), linguistic.Normalize(p[1], m.Th))
	}
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = nameSim(p)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for rep := 0; rep < 50; rep++ {
				for i, p := range pairs {
					if got := nameSim(p); got != want[i] {
						done <- errf(p, got, want[i])
						return
					}
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func errf(p [2]string, got, want float64) error {
	return &nameSimMismatch{p: p, got: got, want: want}
}

type nameSimMismatch struct {
	p         [2]string
	got, want float64
}

func (e *nameSimMismatch) Error() string {
	return "concurrent NameSim(" + e.p[0] + ", " + e.p[1] + ") drifted"
}
