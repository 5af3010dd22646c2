package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/model"
)

// TestDocumentFrequenciesTrackMaintenance drives a randomized (seeded)
// upsert/replace/remove sequence and asserts every token's document
// frequency (its posting-list length, what ProbeStats reads) and the
// document count always equal a from-scratch recount over the live
// entries. Replacements exercise the evict-then-add path, including
// same-key upserts whose old and new signatures overlap.
func TestDocumentFrequenciesTrackMaintenance(t *testing.T) {
	ix := New(8)
	rng := rand.New(rand.NewSource(23))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	version := map[string]int{}
	live := map[string]model.Signature{}
	for step := 0; step < 400; step++ {
		key := fmt.Sprintf("doc%d", rng.Intn(25))
		if _, ok := live[key]; ok && rng.Intn(4) == 0 {
			ix.Remove(key)
			delete(live, key)
		} else {
			toks := make([]string, 0, 4)
			for _, v := range vocab {
				if rng.Intn(2) == 0 {
					toks = append(toks, v)
				}
			}
			version[key]++
			live[key] = sig(3, toks...)
			ix.Upsert(key, fp(key, version[key]), live[key])
		}
		want := map[string]int{}
		for _, s := range live {
			for _, tok := range s.Tokens {
				want[tok]++
			}
		}
		if len(ix.post) != len(want) {
			t.Fatalf("step %d: %d posting lists, recount has %d tokens", step, len(ix.post), len(want))
		}
		for tok, n := range want {
			if got := len(ix.post[tok]); got != n {
				t.Fatalf("step %d: df(%s) = %d, recount %d", step, tok, got, n)
			}
		}
		if got := ix.ProbeStats(model.Signature{}).Docs; got != len(live) || ix.Len() != len(live) {
			t.Fatalf("step %d: Docs = %d, Len = %d, live %d", step, got, ix.Len(), len(live))
		}
	}
}

// TestProbeStatsValues pins ProbeStats field semantics on a hand-built
// corpus: per-token document frequencies, the common cutoff split, and
// the kept-postings aggregates.
func TestProbeStatsValues(t *testing.T) {
	ix := New(2)
	// The cutoff is max(512, ⌊0.25·docs⌋) = 600 at 2,400 documents, so
	// "pop" (in every document) is common and the rest are kept.
	for i := 0; i < 2400; i++ {
		toks := []string{"pop"}
		if i < 9 {
			toks = append(toks, "niche")
		}
		if i < 3 {
			toks = append(toks, "scarce")
		}
		key := fmt.Sprintf("d%d", i)
		ix.Upsert(key, fp(key, 1), sig(2, toks...))
	}
	st := ix.ProbeStats(sig(2, "pop", "niche", "scarce", "absent"))
	want := ProbeStats{
		Docs:          2400,
		ProbeTokens:   4,
		TokensIndexed: 3,
		TokensCommon:  1,  // pop: df 2400 > cutoff 600
		PostingsKept:  12, // niche + scarce
		MaxKeptDF:     9,  // niche
		MinKeptDF:     3,  // scarce
	}
	if st != want {
		t.Errorf("ProbeStats = %+v, want %+v", st, want)
	}
	if got := ix.ProbeStats(model.Signature{}); got != (ProbeStats{Docs: 2400}) {
		t.Errorf("empty-probe stats = %+v, want Docs only", got)
	}
}

// TestCommonCutoff pins the stop-posting cut: the 512 floor until a
// quarter of the corpus overtakes it, past 2,051 documents.
func TestCommonCutoff(t *testing.T) {
	cases := []struct{ docs, want int }{
		{0, 512},
		{200, 512},
		{2048, 512},
		{2051, 512},
		{2052, 513},
		{20000, 5000},
	}
	for _, tc := range cases {
		if got := stopPostingCut(tc.docs); got != tc.want {
			t.Errorf("stopPostingCut(%d) = %d, want %d", tc.docs, got, tc.want)
		}
	}
}

// TestProbeStatsMatchRetrievalCut holds the planner's statistics to the
// walk TopK actually does, on a corpus past the cut's floor: TopK's
// survivors are exactly the documents holding a token ProbeStats counts as
// kept, and PostingsKept is the number of postings walked. "mid" sits in
// 500 randomly chosen of 2,100 documents, under the corpus-wide cutoff of
// 525, so it is kept; "all" is in every document and is cut. A cut
// judged on any subset of the corpus would drop "mid" wherever chance
// concentrates it.
func TestProbeStatsMatchRetrievalCut(t *testing.T) {
	ix := New(0)
	mid := map[int]bool{}
	for _, i := range rand.New(rand.NewSource(1)).Perm(2100)[:500] {
		mid[i] = true
	}
	holders := map[string][]string{}
	for i := 0; i < 2100; i++ {
		key := fmt.Sprintf("d%04d", i)
		toks := []string{"all", fmt.Sprintf("u%d", i)}
		if mid[i] {
			toks = append(toks, "mid")
		}
		if i%100 == 0 {
			toks = append(toks, "rare")
		}
		for _, tok := range toks {
			holders[tok] = append(holders[tok], key)
		}
		ix.Upsert(key, fp(key, 0), sig(2, toks...))
	}
	q := sig(2, "all", "mid", "rare", "absent")
	st := ix.ProbeStats(q)
	want := map[string]bool{}
	walked := 0
	for _, tok := range q.Tokens {
		one := ix.ProbeStats(sig(2, tok))
		if one.TokensIndexed == 1 && one.TokensCommon == 0 {
			walked += len(holders[tok])
			for _, key := range holders[tok] {
				want[key] = true
			}
		}
	}
	if st.TokensCommon != 1 || st.TokensIndexed != 3 || len(want) < 500 {
		t.Fatalf("corpus shape: %d of %d indexed tokens common, %d kept holders; want 1 of 3 and >= 500",
			st.TokensCommon, st.TokensIndexed, len(want))
	}
	got, ist := ix.TopK(q, 0)
	var keys, wantKeys []string
	for _, c := range got {
		keys = append(keys, c.Key)
	}
	for key := range want {
		wantKeys = append(wantKeys, key)
	}
	sort.Strings(keys)
	sort.Strings(wantKeys)
	if fmt.Sprint(keys) != fmt.Sprint(wantKeys) || ist.Scored != len(want) {
		t.Errorf("TopK scored %d survivors, want the %d holders of kept tokens", ist.Scored, len(want))
	}
	if st.PostingsKept != walked {
		t.Errorf("PostingsKept = %d, want the %d postings walked", st.PostingsKept, walked)
	}
}

// TestProbeStatsDoesNotChangeRetrieval asserts the stats surface is pure
// observation: TopK before and after a ProbeStats call is identical.
func TestProbeStatsDoesNotChangeRetrieval(t *testing.T) {
	ix := New(4)
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"red", "green", "blue", "cyan", "teal", "plum"}
	for i := 0; i < 60; i++ {
		toks := make([]string, 0, 3)
		for _, v := range vocab {
			if rng.Intn(3) == 0 {
				toks = append(toks, v)
			}
		}
		key := fmt.Sprintf("d%d", i)
		ix.Upsert(key, fp(key, 1), sig(2, toks...))
	}
	q := sig(2, "red", "teal")
	before, bst := ix.TopK(q, 10)
	ix.ProbeStats(q)
	after, ast := ix.TopK(q, 10)
	if bst != ast {
		t.Fatalf("TopK stats changed: %+v vs %+v", bst, ast)
	}
	if len(before) != len(after) {
		t.Fatalf("TopK size changed: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("TopK[%d] changed: %+v vs %+v", i, before[i], after[i])
		}
	}
}

// TestProbeStatsAllocationFree pins the warm-path contract: planning
// consults ProbeStats on every query, so it must not allocate.
func TestProbeStatsAllocationFree(t *testing.T) {
	ix := New(4)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("d%d", i)
		ix.Upsert(key, fp(key, 1), sig(2, "shared", fmt.Sprintf("tok%d", i%7)))
	}
	q := sig(2, "shared", "tok3", "missing")
	if allocs := testing.AllocsPerRun(200, func() { ix.ProbeStats(q) }); allocs > 0 {
		t.Errorf("ProbeStats allocates %.1f objects per call, want 0", allocs)
	}
}
