package index

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/par"
)

// sig builds a test signature.
func sig(leaves int, tokens ...string) model.Signature {
	return model.NewSignature(leaves, leaves, append([]string(nil), tokens...))
}

// fp derives a deterministic fake fingerprint for a test document.
func fp(key string, version int) string {
	return fmt.Sprintf("%s#%d", key, version)
}

// bruteTopK is the reference retrieval: score every document sharing at
// least one token with the query by exact affinity, sort descending with
// key tie-break, truncate.
func bruteTopK(docs map[string]model.Signature, q model.Signature, k int) []Candidate {
	shared := func(a, b []string) int {
		i, j, n := 0, 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] == b[j]:
				n++
				i++
				j++
			case a[i] < b[j]:
				i++
			default:
				j++
			}
		}
		return n
	}
	var out []Candidate
	for key, ds := range docs {
		if shared(q.Tokens, ds.Tokens) == 0 {
			continue
		}
		out = append(out, Candidate{Key: key, Affinity: q.Affinity(ds)})
	}
	sortCandidates(out)
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

func sortCandidates(cs []Candidate) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0; j-- {
			a, b := cs[j-1], cs[j]
			if b.Affinity > a.Affinity || (b.Affinity == a.Affinity && b.Key < a.Key) {
				cs[j-1], cs[j] = b, a
			} else {
				break
			}
		}
	}
}

func assertSameCandidates(t *testing.T, want, got []Candidate) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("candidate counts differ: want %d, got %d\nwant %v\ngot  %v", len(want), len(got), want, got)
	}
	for i := range want {
		if want[i].Key != got[i].Key || want[i].Affinity != got[i].Affinity {
			t.Errorf("candidate %d: want (%s, %v), got (%s, %v)",
				i, want[i].Key, want[i].Affinity, got[i].Key, got[i].Affinity)
		}
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	ix := New(4)
	docs := map[string]model.Signature{
		"orders":    sig(4, "order", "date", "custom", "amount"),
		"purchases": sig(5, "purchas", "date", "custom", "total"),
		"telemetry": sig(3, "sensor", "volt", "read"),
		"payroll":   sig(6, "salari", "employe", "date"),
		"empty":     sig(2),
	}
	for k, s := range docs {
		ix.Upsert(k, fp(k, 0), s)
	}
	q := sig(4, "order", "date", "custom")
	for _, k := range []int{0, 1, 2, 10} {
		got, st := ix.TopK(q, k)
		want := bruteTopK(docs, q, k)
		assertSameCandidates(t, want, got)
		if st.Scored != 3 { // orders, purchases, payroll share tokens
			t.Errorf("k=%d: scored %d survivors, want 3", k, st.Scored)
		}
	}
	// telemetry and the token-less doc share nothing: never touched.
	all, _ := ix.TopK(q, 0)
	for _, c := range all {
		if c.Key == "telemetry" || c.Key == "empty" {
			t.Errorf("zero-overlap document %q surfaced", c.Key)
		}
	}
}

func TestTopKEmptyQueryAndEmptyIndex(t *testing.T) {
	ix := New(2)
	if got, st := ix.TopK(sig(1, "order"), 5); len(got) != 0 || st.Scored != 0 {
		t.Errorf("empty index returned %v (scored %d)", got, st.Scored)
	}
	ix.Upsert("orders", fp("orders", 0), sig(2, "order"))
	if got, st := ix.TopK(sig(0), 5); len(got) != 0 || st.Scored != 0 {
		t.Errorf("token-less query returned %v (scored %d)", got, st.Scored)
	}
}

func TestUpsertReplacesAcrossShards(t *testing.T) {
	// Replacing content under the same key must evict every old posting,
	// and reuse the freed document id rather than grow the index.
	ix := New(8)
	ix.Upsert("orders", fp("orders", 0), sig(3, "order", "date"))
	for v := 1; v <= 32; v++ {
		ix.Upsert("orders", fp("orders", v), sig(3, "purchas", "total"))
		if n := ix.Len(); n != 1 {
			t.Fatalf("after replace %d: Len = %d, want 1", v, n)
		}
	}
	if got, _ := ix.TopK(sig(3, "order", "date"), 0); len(got) != 0 {
		t.Errorf("stale postings survived replacement: %v", got)
	}
	got, _ := ix.TopK(sig(3, "purchas"), 0)
	if len(got) != 1 || got[0].Key != "orders" {
		t.Errorf("replacement not retrievable: %v", got)
	}
	if n := len(ix.docs); n != 1 {
		t.Errorf("replacements grew the document table to %d ids, want 1", n)
	}
}

func TestRemove(t *testing.T) {
	ix := New(4)
	ix.Upsert("a", fp("a", 0), sig(2, "order", "date"))
	ix.Upsert("b", fp("b", 0), sig(2, "order", "total"))
	if !ix.Remove("a") {
		t.Fatal("Remove(a) = false, want true")
	}
	if ix.Remove("a") {
		t.Error("double Remove(a) = true, want false")
	}
	if n := ix.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
	got, _ := ix.TopK(sig(2, "order"), 0)
	if len(got) != 1 || got[0].Key != "b" {
		t.Errorf("postings after remove: %v", got)
	}
}

// TestStopPostingCutSkipsCommonTokens pins the discovery cut: a token
// most of the corpus contains stops generating survivors, but still counts
// in every survivor's exact affinity.
func TestStopPostingCutSkipsCommonTokens(t *testing.T) {
	ix := New(0)
	docs := map[string]model.Signature{}
	const noise = 600 // "date" in 601 docs: past the floor (512) and ⌊0.25·601⌋
	for i := 0; i < noise; i++ {
		key := fmt.Sprintf("noise%d", i)
		docs[key] = sig(2, "date", fmt.Sprintf("uniq%d", i))
		ix.Upsert(key, fp(key, 0), docs[key])
	}
	docs["target"] = sig(2, "date", "order", "custom")
	ix.Upsert("target", fp("target", 0), docs["target"])

	// "order" is rare. Only genuine overlap should surface.
	q := sig(2, "date", "order")
	got, st := ix.TopK(q, 0)
	if len(got) != 1 || got[0].Key != "target" {
		t.Fatalf("survivors = %v, want only target (the date-sharers must be cut)", got)
	}
	if st.Scored != 1 {
		t.Errorf("scored %d, want 1", st.Scored)
	}
	// The affinity re-rank still sees the full bags, skipped token
	// included: it must equal the literal Signature.Affinity.
	if want := q.Affinity(docs["target"]); got[0].Affinity != want {
		t.Errorf("Affinity = %v, want exact %v", got[0].Affinity, want)
	}

	// A query of nothing but common tokens must not go blind: the guard
	// walks them all, exactly the scan the pruned path would do.
	if _, st2 := ix.TopK(sig(1, "date"), 0); st2.Scored != noise+1 {
		t.Errorf("all-common query scored %d survivors, want all %d", st2.Scored, noise+1)
	}

	// An absent token must not count as "kept": a query pairing a common
	// token with one the index has never seen still falls back to the
	// common token instead of going blind.
	if _, st3 := ix.TopK(sig(2, "date", "zebra"), 0); st3.Scored != noise+1 {
		t.Errorf("common+absent query scored %d survivors, want all %d (absent token suppressed the fallback)", st3.Scored, noise+1)
	}
}

// TestIncrementalEqualsFromScratch is the property test: after any random
// interleaving of Upsert (inserts and replaces) and Remove, the
// incrementally maintained index retrieves exactly what an index built
// from scratch over the surviving entries retrieves.
func TestIncrementalEqualsFromScratch(t *testing.T) {
	vocab := []string{"order", "date", "custom", "total", "purchas", "salari",
		"employe", "sensor", "volt", "read", "street", "citi", "zip"}
	rng := rand.New(rand.NewSource(7))
	randSig := func() model.Signature {
		n := 1 + rng.Intn(6)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = vocab[rng.Intn(len(vocab))]
		}
		return sig(1+rng.Intn(8), toks...)
	}

	for trial := 0; trial < 20; trial++ {
		ix := New(1 + rng.Intn(8))
		live := map[string]model.Signature{}
		version := map[string]int{}
		for op := 0; op < 120; op++ {
			key := fmt.Sprintf("doc%d", rng.Intn(20))
			switch rng.Intn(3) {
			case 0, 1: // insert or replace
				s := randSig()
				version[key]++
				ix.Upsert(key, fp(key, version[key]), s)
				live[key] = s
			case 2:
				got := ix.Remove(key)
				if _, ok := live[key]; ok != got {
					t.Fatalf("trial %d op %d: Remove(%s) = %v, live says %v", trial, op, key, got, ok)
				}
				delete(live, key)
			}
		}
		if ix.Len() != len(live) {
			t.Fatalf("trial %d: Len = %d, want %d", trial, ix.Len(), len(live))
		}
		fresh := New(4)
		for k, s := range live {
			fresh.Upsert(k, fp(k, version[k]), s)
		}
		for probe := 0; probe < 5; probe++ {
			q := randSig()
			for _, k := range []int{0, 3, 10} {
				inc, _ := ix.TopK(q, k)
				scr, _ := fresh.TopK(q, k)
				assertSameCandidates(t, scr, inc)
				assertSameCandidates(t, bruteTopK(live, q, k), inc)
			}
		}
	}
}

// TestTopKDeterministicAcrossWorkerCounts guards that retrieval stays
// independent of the worker pool's size.
func TestTopKDeterministicAcrossWorkerCounts(t *testing.T) {
	ix := New(8)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("doc%d", i)
		ix.Upsert(key, fp(key, 0), sig(1+i%5, "order", fmt.Sprintf("tok%d", i%7), "date"))
	}
	q := sig(3, "order", "tok3", "date")
	prev := par.SetMaxWorkers(1)
	seq, _ := ix.TopK(q, 16)
	par.SetMaxWorkers(8)
	conc, _ := ix.TopK(q, 16)
	par.SetMaxWorkers(prev)
	assertSameCandidates(t, seq, conc)
}
