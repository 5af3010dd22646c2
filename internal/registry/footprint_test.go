package registry

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// TestRegistryBytesPerEntry pins the resident heap of a 10k-schema
// repository: FamilyCorpus (10 families of 1000, seed 17, about 16
// elements a schema) registered into one registry, heap after GC divided
// by the entry count. The count includes the parsed schemas themselves.
// Each entry's element tokens are the matcher's shared token sets, not
// private copies: per-entry copies measured 20.1 KB per entry, the shared
// form 11.6 KB, and the shared form with each analysis's categories and
// memberships laid out exactly (one membership array per schema, no
// spare append capacity) 11.2 KB.
func TestRegistryBytesPerEntry(t *testing.T) {
	if testing.Short() {
		t.Skip("registers 10k schemas")
	}
	const n, maxKB = 10000, 15.5
	before := heapAfterGC()
	r, err := New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	corpus := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: n / workloads.NumFamilies(), Seed: 17})
	for _, s := range corpus {
		if _, _, err := r.Register("", s); err != nil {
			t.Fatal(err)
		}
	}
	corpus = nil
	after := heapAfterGC()
	if r.Len() != n {
		t.Fatalf("registered %d entries, want %d", r.Len(), n)
	}
	kb := float64(after-before) / n / 1024
	t.Logf("%.1f KB of heap per registered entry at %d entries", kb, n)
	if kb > maxKB {
		t.Errorf("%.1f KB of heap per registered entry, want <= %.1f", kb, maxKB)
	}
	runtime.KeepAlive(r)
}

// heapAfterGC is the live heap after two full collections (the second
// frees what the first only finalized).
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
