package registry

// Property tests for corpus-scale schema families: clustering determinism
// across registration interleavings, persistence and staleness of the
// installed view, the family retrieval route's agreement with the flat
// indexed path, and the reserved metadata document's lifecycle.

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

// TestFamilyRouteWithinIndexedTopK: the family route may match far fewer
// entries, but everything it returns must be something the flat indexed
// path also ranks in its top-K — family routing narrows the candidate
// set, it must never surface a result the indexed path would not. The
// corpus sits above familyAutoMinCorpus: the regime family routing is
// built for (and the only one the planner auto-selects it in).
func TestFamilyRouteWithinIndexedTopK(t *testing.T) {
	const topK = 10
	docs := familyTestCorpus(2000)
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
	if err := r.SetFamilies(res); err != nil {
		t.Fatal(err)
	}
	opt := DefaultPlanOptions()
	opt.Force = StrategyFamily
	for fam := 0; fam < workloads.NumFamilies(); fam++ {
		probe, err := r.Matcher().Prepare(workloads.FamilyProbe(fam, 4321))
		if err != nil {
			t.Fatal(err)
		}
		famRanked, st, err := r.Match(probe, topK, opt)
		if err != nil {
			t.Fatal(err)
		}
		if st.Strategy != StrategyFamily || st.FamilyFallback {
			t.Fatalf("probe %d: strategy %v fallback %v, want a routed family match", fam, st.Strategy, st.FamilyFallback)
		}
		indexed, _, err := r.Match(probe, topK, PlanOptions{Force: StrategyIndexed})
		if err != nil {
			t.Fatal(err)
		}
		inIndexed := make(map[string]bool, len(indexed))
		for _, rk := range indexed {
			inIndexed[rk.Entry.Name] = true
		}
		for i, rk := range famRanked {
			if !inIndexed[rk.Entry.Name] {
				t.Errorf("probe %d: family result %d (%s) is outside the flat indexed top-%d",
					fam, i, rk.Entry.Name, topK)
			}
		}
	}
}

// familyOracle reproduces the family route with full matches: rank the
// installed medoids by their full MatchPrepared score, take the winner's
// family, rank its members and the medoids together.
func familyOracle(t *testing.T, r *Registry, src *core.Prepared, topK int) ([]Ranked, RetrievalStats) {
	t.Helper()
	fams := r.Families().Families
	medoids := make([]*Entry, len(fams))
	for i, f := range fams {
		medoids[i], _ = r.Get(f.Medoid)
	}
	win := oracleRank(t, r, src, medoids, 1)[0].Entry.Name
	cands := append([]*Entry(nil), medoids...)
	members := 0
	for _, f := range fams {
		if f.Medoid != win {
			continue
		}
		members = len(f.Members)
		for _, name := range f.Members {
			if e, _ := r.Get(name); name != win {
				cands = append(cands, e)
			}
		}
	}
	st := RetrievalStats{
		Strategy: StrategyFamily, Families: len(medoids), Family: win,
		CandidateBudget: len(medoids) + members, CandidatesScored: len(cands), CandidatesMatched: len(cands),
	}
	return oracleRank(t, r, src, cands, topK), st
}

// TestFamilyRouteScoreOnlyMatchesFullMatch: the family route scores its
// medoids and the winning family without the full pipeline, then
// materializes the merged top K. Its ranking, results and stats must equal
// a full-match transcription of the route, for bounded and unbounded
// rankings and under degraded budgets.
func TestFamilyRouteScoreOnlyMatchesFullMatch(t *testing.T) {
	r := newTestRegistry(t)
	for _, s := range familyTestCorpus(120) {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.ClusterFamilies(corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetFamilies(res); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []int{0, 3, 7} {
		src := mustPrepare(t, r, workloads.FamilyProbe(fam, 99))
		for _, topK := range []int{10, 3, 0} {
			want, wantSt := familyOracle(t, r, src, topK)
			for _, degraded := range []bool{false, true} {
				opt := DefaultPlanOptions()
				opt.Force, opt.Degraded = StrategyFamily, degraded
				got, st, err := r.Match(src, topK, opt)
				if err != nil {
					t.Fatal(err)
				}
				assertSameFullRanking(t, want, got)
				wantSt.Degraded = degraded
				if st != wantSt {
					t.Errorf("family %d topK=%d degraded=%v: stats %+v, oracle %+v", fam, topK, degraded, st, wantSt)
				}
			}
		}
	}
}

// TestFamiliesStalenessAndFallback: the planner stops trusting an
// installed clustering once the corpus has mutated past the tolerance,
// and a forced family match then falls back to the indexed path (flagged
// in the stats) instead of serving stale routing.
func TestFamiliesStalenessAndFallback(t *testing.T) {
	docs := familyTestCorpus(64)
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
	if err := r.SetFamilies(res); err != nil {
		t.Fatal(err)
	}
	if !r.FamiliesFresh() {
		t.Fatal("freshly installed clustering reports stale")
	}

	// Mutate past the tolerance (max(16, 64/8) = 16 mutations).
	extra := workloads.FamilyCorpus(workloads.FamilyCorpusSpec{PerFamily: 2, Seed: 23})
	for i, s := range extra {
		if i >= 17 {
			break
		}
		if _, _, err := r.Register("staleness-"+s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	if r.FamiliesFresh() {
		t.Fatal("clustering still fresh after mutating past the tolerance")
	}

	probe, err := r.Matcher().Prepare(workloads.FamilyProbe(1, 4321))
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultPlanOptions()
	opt.Force = StrategyFamily
	ranked, st, err := r.Match(probe, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FamilyFallback {
		t.Fatalf("stale clustering did not fall back (stats %+v)", st)
	}
	indexed, _, err := r.Match(probe, 5, PlanOptions{Force: StrategyIndexed})
	if err != nil {
		t.Fatal(err)
	}
	assertSameRanking(t, indexed, ranked)

	// Re-clustering restores the route.
	res, err = r.ClusterFamilies(corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetFamilies(res); err != nil {
		t.Fatal(err)
	}
	if !r.FamiliesFresh() {
		t.Fatal("re-clustering did not restore freshness")
	}
}

// TestPlannedFamilyFallbackReplansWithoutFamilies: a planned family route
// whose medoids stopped resolving (all but one removed, still within the
// staleness tolerance) must run exactly the plan the planner makes with
// no clustering installed. For an index-blind probe that plan is the
// pruned scan; an indexed fallback would find no candidates at all.
func TestPlannedFamilyFallbackReplansWithoutFamilies(t *testing.T) {
	const topK = 10
	r := newTestRegistry(t)
	for _, s := range familyTestCorpus(600) {
		if _, _, err := r.Register(s.Name, s); err != nil {
			t.Fatal(err)
		}
	}
	res, err := r.ClusterFamilies(corpus.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetFamilies(res); err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Families[1:] {
		if !r.Remove(f.Medoid) {
			t.Fatalf("removing medoid %s", f.Medoid)
		}
	}
	if !r.FamiliesFresh() || r.Len() < familyAutoMinCorpus {
		t.Fatalf("setup: fresh=%v corpus=%d; the planner must still pick the family route", r.FamiliesFresh(), r.Len())
	}
	src := mustPrepare(t, r, unseenProbe())
	if p := r.Plan(src, topK, DefaultPlanOptions()); p.Strategy != StrategyFamily {
		t.Fatalf("plan = %+v, want the family route", p)
	}
	got, st, err := r.Match(src, topK, DefaultPlanOptions())
	if err != nil {
		t.Fatal(err)
	}

	r.ClearFamilies()
	want, wantSt, err := r.Match(src, topK, DefaultPlanOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != topK {
		t.Fatalf("plan without families returned %d results, want %d (stats %+v)", len(want), topK, wantSt)
	}
	assertSameRanking(t, want, got)
	if !st.FamilyFallback || st.Strategy != wantSt.Strategy {
		t.Errorf("fallback stats %+v, want FamilyFallback and strategy %s", st, wantSt.Strategy)
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
	if !p.FamiliesFresh() {
		t.Fatal("clustering not routable right after StoreFamilies")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := newWAL(t, dir, PersistOptions{})
	if got := p2.FamiliesJSON(); !bytes.Equal(got, want) {
		t.Fatalf("restarted node serves different clustering bytes:\n%s\nvs\n%s", got, want)
	}
	if !p2.FamiliesFresh() {
		t.Fatal("recovered clustering reports stale immediately after restart")
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
