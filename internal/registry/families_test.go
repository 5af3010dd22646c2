package registry

// Property tests for corpus-scale schema families: clustering determinism
// across registration interleavings, persistence of the installed view,
// planned retrieval's independence from it, and the reserved metadata
// document's lifecycle.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/model"
	"repro/internal/sqlddl"
	"repro/internal/workloads"
)

// familyTestCorpus returns a deterministic FamilyCorpus of n schemas.
func familyTestCorpus(n int) []*model.Schema {
	perFam := (n + workloads.NumFamilies() - 1) / workloads.NumFamilies()
	return workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: perFam, Seed: 17})[:n]
}

// clusterOver registers docs into a fresh registry (in the given order)
// and returns the clustering's canonical bytes.
func clusterOver(t *testing.T, docs []*model.Schema) []byte {
	t.Helper()
	r := newTestRegistry(t)
	for _, s := range docs {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.ClusterFamilies(corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestClusterFamiliesDeterministicAcrossInterleavings is the tentpole
// determinism property: the clustering's canonical bytes depend only on
// the surviving entry set — not on registration order, not on removals
// and re-registrations along the way (index rebuild paths), not on which
// shard an entry hashed to first.
func TestClusterFamiliesDeterministicAcrossInterleavings(t *testing.T) {
	docs := familyTestCorpus(120)
	want := clusterOver(t, docs)

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3; trial++ {
		shuffled := append([]*model.Schema(nil), docs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := clusterOver(t, shuffled); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: clustering differs under registration order", trial)
		}
	}

	// Churn: register everything, remove a third, re-register it — the
	// incrementally maintained index must cluster like a fresh build.
	r := newTestRegistry(t)
	for _, s := range docs {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range docs {
		if i%3 == 0 && !r.Remove(s.Name) {
			t.Fatalf("removing %s", s.Name)
		}
	}
	for i, s := range docs {
		if i%3 == 0 {
			if _, _, err := r.Register(s.Name, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := r.ClusterFamilies(corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("clustering after remove/re-register churn differs from a fresh build")
	}
}

// TestClusteringNeverChangesPlannedRanking: installing a clustering must
// not change what planned retrieval returns. The corpus is a 2k
// FamilyCorpus with every 4th member bridged to the next family's
// vocabulary, so the clustering chains several domains into one family
// and a ranking routed through it would miss most true matches. With the
// clustering installed, planned Match for one probe per family must be
// bit-identical — names, scores, mappings and stats — to planned Match
// with none installed, and recall the exhaustive scan's top 10 in full
// (which makes it the exhaustive ranking itself).
func TestClusteringNeverChangesPlannedRanking(t *testing.T) {
	const topK = 10
	r := newTestRegistry(t)
	for _, s := range workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 200, Seed: 17, Bridge: 4}) {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	probes := make([]*core.Prepared, workloads.NumFamilies())
	want := make([][]Ranked, len(probes))
	wantSt := make([]RetrievalStats, len(probes))
	for f := range probes {
		probes[f] = mustPrepare(t, r, workloads.FamilyProbe(f, 1234))
		var err error
		if want[f], wantSt[f], err = r.Match(probes[f], topK, DefaultPlanOptions()); err != nil {
			t.Fatal(err)
		}
	}

	res, err := r.ClusterFamilies(corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Families) >= workloads.NumFamilies() {
		t.Fatalf("setup: the bridged corpus clustered into %d families; the test needs chained ones (fewer than %d)",
			len(res.Families), workloads.NumFamilies())
	}
	if err := r.SetFamilies(res); err != nil {
		t.Fatal(err)
	}
	for f, src := range probes {
		got, st, err := r.Match(src, topK, DefaultPlanOptions())
		if err != nil {
			t.Fatal(err)
		}
		assertSameFullRanking(t, want[f], got)
		if st != wantSt[f] {
			t.Errorf("probe %d: stats %+v with the clustering installed, %+v without", f, st, wantSt[f])
		}
		truth, err := r.MatchAll(src, topK)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRanking(t, truth, got)
	}
}

// TestFamiliesPersistAcrossRestartByteIdentical: StoreFamilies journals
// the canonical clustering bytes through the WAL; a reopened node serves
// exactly those bytes, and removing the reserved document clears the
// clustering durably.
func TestFamiliesPersistAcrossRestartByteIdentical(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{})
	for _, s := range familyTestCorpus(120) {
		if _, _, err := p.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.ClusterFamilies(corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StoreFamilies(res); err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), p.FamiliesJSON()...)
	if len(want) == 0 {
		t.Fatal("no canonical bytes after StoreFamilies")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := newWAL(t, dir, PersistOptions{})
	if got := p2.FamiliesJSON(); !bytes.Equal(got, want) {
		t.Fatalf("restarted node serves different clustering bytes:\n%s\nvs\n%s", got, want)
	}

	// Removing the reserved document clears the clustering and survives
	// another restart.
	if existed, err := p2.Remove(FamiliesDocName); err != nil || !existed {
		t.Fatalf("removing families doc: existed=%v err=%v", existed, err)
	}
	if p2.FamiliesJSON() != nil {
		t.Fatal("clustering still installed after removing the reserved document")
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	p3 := newWAL(t, dir, PersistOptions{})
	defer p3.Close()
	if p3.FamiliesJSON() != nil {
		t.Fatal("removed clustering came back after restart")
	}
}

// TestFamiliesDocNameReserved: the reserved metadata document name and
// format are rejected as ordinary registrations on every path.
func TestFamiliesDocNameReserved(t *testing.T) {
	dir := t.TempDir()
	p := newWAL(t, dir, PersistOptions{})
	defer p.Close()
	if _, _, err := p.RegisterSource(FamiliesDocName, "json", []byte(`{}`)); err == nil {
		t.Error("RegisterSource accepted the reserved families document name")
	}
	if _, _, err := p.RegisterSource("innocent", FamiliesDocFormat, []byte(`{}`)); err == nil {
		t.Error("RegisterSource accepted the reserved families document format")
	}
}

// TestClusterFamiliesTiesStable: the tie-break corpus registers one SQL
// document under several names (the instance samples differ, the
// signatures do not), so its nodes tie exactly in summed edge affinity and
// the medoid must come from the name tie-break. Every one of many
// clustering runs over the same registry must encode to the same bytes;
// a weight summed in map iteration order splits the tie in the last bit
// and elects a different medoid from run to run.
func TestClusterFamiliesTiesStable(t *testing.T) {
	r := newTestRegistry(t)
	for _, d := range append(workloads.TieBreakTargets(4), workloads.TieBreakProbe(2)) {
		s, err := sqlddl.Parse(d.Name, d.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.RegisterInstances(d.Name, s, tieBreakSamples(t, d.Instances)); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range familyTestCorpus(9) {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	var want []byte
	for run := 0; run < 250; run++ {
		res, err := r.ClusterFamilies(corpus.Options{})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := res.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			want = raw
			continue
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("run %d: clustering encodes differently from run 0:\n%s\nvs\n%s", run, raw, want)
		}
	}
	t.Logf("families: %s", want)
}
