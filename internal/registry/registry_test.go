package registry

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/workloads"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := New(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// repoSchemas returns a deterministic set of distinct repository schemas.
func repoSchemas(n int) []*model.Schema {
	out := make([]*model.Schema, 0, n)
	for i := 0; i < n; i++ {
		w := workloads.Synthetic(workloads.SyntheticSpec{
			Tables: 2, ColsPerTable: 4, Depth: 2, Seed: int64(i + 1), Rename: 0.4, Renest: 0.3,
		})
		s := w.Target
		s.Name = s.Name + string(rune('A'+i%26))
		out = append(out, s)
	}
	return out
}

func TestRegisterIdempotentAndReplace(t *testing.T) {
	r := newTestRegistry(t)
	w := workloads.Figure2()

	e1, created, err := r.Register("po", w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("first registration reported created=false")
	}
	e2, created, err := r.Register("po", w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Error("idempotent re-registration reported created=true")
	}
	if e1 != e2 {
		t.Error("re-registering identical content did not return the existing entry")
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}

	// Different content under the same name replaces the entry.
	e3, created, err := r.Register("po", w.Target)
	if err != nil {
		t.Fatal(err)
	}
	if !created {
		t.Error("replacement registration reported created=false")
	}
	if e3 == e1 || e3.Fingerprint == e1.Fingerprint {
		t.Error("changed content did not replace the entry")
	}
	if r.Len() != 1 {
		t.Fatalf("Len after replace = %d, want 1", r.Len())
	}
	got, ok := r.Get("po")
	if !ok || got != e3 {
		t.Error("Get does not return the replacing entry")
	}

	// Default name comes from the schema.
	e4, _, err := r.Register("", w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if e4.Name != w.Source.Name {
		t.Errorf("default name = %q, want %q", e4.Name, w.Source.Name)
	}

	if !r.Remove("po") {
		t.Error("Remove of existing entry returned false")
	}
	if r.Remove("po") {
		t.Error("Remove of missing entry returned true")
	}
	if _, _, err := r.Register("anon", model.New("")); err != nil {
		t.Errorf("explicit name with a nameless schema rejected: %v", err)
	}
	if _, _, err := r.Register("", model.New("")); err == nil {
		t.Error("registration with no name at all accepted")
	}
	if _, _, err := r.Register("nil", nil); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestListSorted(t *testing.T) {
	r := newTestRegistry(t)
	for _, s := range repoSchemas(5) {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	list := r.List()
	if len(list) != 5 {
		t.Fatalf("List length %d, want 5", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Name >= list[i].Name {
			t.Fatalf("List not sorted: %q before %q", list[i-1].Name, list[i].Name)
		}
	}
}

func matchAllWorkers(t *testing.T, r *Registry, src *model.Schema, workers, topK int) []Ranked {
	t.Helper()
	prev := par.SetMaxWorkers(workers)
	defer par.SetMaxWorkers(prev)
	ranked, err := r.MatchAll(mustPrepare(t, r, src), topK)
	if err != nil {
		t.Fatal(err)
	}
	return ranked
}

// TestMatchAllDeterministic: the ranking must be identical with one worker
// and many (run with -race; the ISSUE acceptance criterion).
func TestMatchAllDeterministic(t *testing.T) {
	r := newTestRegistry(t)
	for _, s := range repoSchemas(8) {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	probe := workloads.Synthetic(workloads.SyntheticSpec{
		Tables: 2, ColsPerTable: 4, Depth: 2, Seed: 3, Rename: 0.4, Renest: 0.3,
	}).Source

	seq := matchAllWorkers(t, r, probe, 1, 0)
	par8 := matchAllWorkers(t, r, probe, 8, 0)
	if len(seq) != 8 || len(par8) != 8 {
		t.Fatalf("rankings cover %d/%d entries, want 8", len(seq), len(par8))
	}
	for i := range seq {
		if seq[i].Entry.Name != par8[i].Entry.Name || seq[i].Score != par8[i].Score {
			t.Fatalf("rank %d differs: seq %s %.6f vs par %s %.6f",
				i, seq[i].Entry.Name, seq[i].Score, par8[i].Entry.Name, par8[i].Score)
		}
		if !seq[i].Result.WSim.Equal(par8[i].Result.WSim) {
			t.Fatalf("rank %d: wsim differs between worker counts", i)
		}
	}
	for i := 1; i < len(seq); i++ {
		if seq[i-1].Score < seq[i].Score {
			t.Fatalf("ranking not descending at %d: %.6f < %.6f", i, seq[i-1].Score, seq[i].Score)
		}
	}

	top3 := matchAllWorkers(t, r, probe, 8, 3)
	if len(top3) != 3 {
		t.Fatalf("topK=3 returned %d results", len(top3))
	}
	for i := range top3 {
		if top3[i].Entry.Name != seq[i].Entry.Name {
			t.Fatalf("topK ranking diverges at %d", i)
		}
	}
}

// TestConcurrentRegisterAndMatchAll hammers the registry from concurrent
// registrars and matchers (run with -race). In-flight MatchAll calls work
// on snapshots, so every call must succeed and return a consistent,
// descending ranking.
func TestConcurrentRegisterAndMatchAll(t *testing.T) {
	r := newTestRegistry(t)
	schemas := repoSchemas(6)
	for _, s := range schemas[:2] {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	probe := workloads.Figure2().Source

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	for _, s := range schemas[2:] {
		wg.Add(1)
		go func(s *model.Schema) {
			defer wg.Done()
			if _, _, err := r.Register(s.Name, s); err != nil {
				errCh <- err
			}
		}(s)
	}
	// Prepared once on the test goroutine (t.Fatal must not run in the
	// workers) and shared — exercising concurrent artifact reuse too.
	prepared := mustPrepare(t, r, probe)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ranked, err := r.MatchAll(prepared, 0)
			if err != nil {
				errCh <- err
				return
			}
			for i := 1; i < len(ranked); i++ {
				if ranked[i-1].Score < ranked[i].Score {
					errCh <- errNotSorted
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if r.Len() != 6 {
		t.Fatalf("Len = %d after concurrent registration, want 6", r.Len())
	}
}

// TestConcurrentRegisterRemoveAndMatchIndexed runs planned and forced
// indexed Match against concurrent inserts, replaces and removes (run with
// -race). The index has no lock of its own: the registry's one lock must
// keep it and the entry map consistent, so every call succeeds with a
// descending ranking whose entries all carry a result.
func TestConcurrentRegisterRemoveAndMatchIndexed(t *testing.T) {
	r := newTestRegistry(t)
	schemas := repoSchemas(48)
	name := func(i int) string { return fmt.Sprintf("e%02d", i) }
	for i, s := range schemas[:40] {
		if _, _, err := r.Register(name(i), s); err != nil {
			t.Fatal(err)
		}
	}
	probe := mustPrepare(t, r, schemas[0])
	if _, st, err := r.Match(probe, 5, PlanOptions{Force: StrategyIndexed}); err != nil || !st.Indexed {
		t.Fatalf("forced indexed run: indexed=%v, err=%v; want the index to generate the candidates", st.Indexed, err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 6) // at most one error per goroutine
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (w*17 + i*5) % len(schemas)
				if i%3 == 2 {
					r.Remove(name(k))
					continue
				}
				if _, _, err := r.Register(name(k), schemas[(k+i)%len(schemas)]); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for _, opt := range []PlanOptions{{}, {Force: StrategyIndexed}, {}, {Force: StrategyIndexed}} {
		wg.Add(1)
		go func(opt PlanOptions) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ranked, _, err := r.Match(probe, 5, opt)
				if err != nil {
					errCh <- err
					return
				}
				for j, rk := range ranked {
					if rk.Entry == nil || rk.Result == nil {
						errCh <- fmt.Errorf("ranked[%d] has no entry or no result", j)
						return
					}
					if j > 0 && ranked[j-1].Score < rk.Score {
						errCh <- errNotSorted
						return
					}
				}
			}
		}(opt)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

var errNotSorted = &notSortedError{}

type notSortedError struct{}

func (*notSortedError) Error() string { return "registry: MatchAll ranking not descending" }

func mustPrepare(t *testing.T, r *Registry, s *model.Schema) *core.Prepared {
	t.Helper()
	p, err := r.Matcher().Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMatchAllForeignPreparedRejected(t *testing.T) {
	r := newTestRegistry(t)
	w := workloads.Figure2()
	if _, _, err := r.Register("po", w.Target); err != nil {
		t.Fatal(err)
	}
	other, err := core.NewMatcher(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := other.Prepare(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.MatchAll(foreign, 0); err == nil {
		t.Error("MatchAll accepted a Prepared from a foreign matcher")
	}
}

func TestScoreEmptyMapping(t *testing.T) {
	r := newTestRegistry(t)
	// Two schemas with nothing in common: score must be 0 and MatchAll
	// must still rank them without error.
	a := model.New("Alpha")
	model.PreOrder(a.Root(), func(*model.Element) {})
	a.AddChild(a.Root(), "Zebra", model.KindElement).Type = model.DTBinary
	b := model.New("QQQ")
	b.AddChild(b.Root(), "Wombat", model.KindElement).Type = model.DTDate
	if _, _, err := r.Register("b", b); err != nil {
		t.Fatal(err)
	}
	ranked, err := r.MatchAll(mustPrepare(t, r, a), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 1 {
		t.Fatalf("ranked %d entries, want 1", len(ranked))
	}
	if ranked[0].Score < 0 || ranked[0].Score > 1 {
		t.Errorf("score %v out of [0,1]", ranked[0].Score)
	}
}
