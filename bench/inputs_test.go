package main

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/model"
)

func TestProbeStreamIsDeterministicAndNeverRepeats(t *testing.T) {
	a := newProbeStream(7).take(40)
	b := newProbeStream(7).take(40)
	c := newProbeStream(8).take(40)
	seen := map[string]bool{}
	differs := false
	for i := range a {
		if !bytes.Equal(a[i].Content, b[i].Content) {
			t.Fatalf("probe %d differs between two streams of seed 7", i)
		}
		if !bytes.Equal(a[i].Content, c[i].Content) {
			differs = true
		}
		s, err := model.ReadJSON(bytes.NewReader(a[i].Content))
		if err != nil {
			t.Fatal(err)
		}
		fp := model.Fingerprint(s)
		if seen[fp] {
			t.Fatalf("probe %d repeats an earlier fingerprint", i)
		}
		seen[fp] = true
	}
	if !differs {
		t.Error("seeds 7 and 8 drew the same probes")
	}
}

func TestZipfPicksAreDeterministicAndSkewed(t *testing.T) {
	a := zipfPicks(2000, 32, 1.1, rand.New(rand.NewSource(3)))
	b := zipfPicks(2000, 32, 1.1, rand.New(rand.NewSource(3)))
	counts := make([]int, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pick %d differs for the same seed", i)
		}
		if a[i] < 0 || a[i] >= 32 {
			t.Fatalf("pick %d = %d, outside [0, 32)", i, a[i])
		}
		counts[a[i]]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[31] {
		t.Errorf("not skewed toward rank 0: %v", counts)
	}
}

func TestCorpusAndPairsAreDeterministic(t *testing.T) {
	for i, d := range corpus(20, 5) {
		if !bytes.Equal(d.Content, corpus(20, 5)[i].Content) {
			t.Fatalf("corpus document %d differs for the same seed", i)
		}
	}
	p1, p2 := pairs(2, 3, 9), pairs(1, 4, 9)
	if !bytes.Equal(p1[1][0].Content, p2[0][0].Content) || !bytes.Equal(p1[1][1].Content, p2[0][1].Content) {
		t.Error("pair 4 differs between a batch and a single draw")
	}
	if bytes.Equal(p1[0][0].Content, p1[1][0].Content) {
		t.Error("consecutive pairs share a source schema")
	}
}
