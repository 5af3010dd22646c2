package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/sqlddl"
	"repro/internal/workloads"
)

// kernelCase is one pair of the scratch-reuse sequence and the matcher it
// runs under.
type kernelCase struct {
	name     string
	m        *Matcher
	src, dst *Prepared
}

// kernelCases lines up pairs of very different shapes and features, in an
// order where a small pair follows a large one and a large one follows it
// again: a buffer not cleared between uses, or sized for the wrong pair,
// changes a score. The matchers differ too (descriptions, an initial
// mapping, the lazy memo that reads the touched flags), all sharing the
// one package-level pool.
func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	newM := func(edit func(*Config)) *Matcher {
		cfg := DefaultConfig()
		edit(&cfg)
		m, err := NewMatcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	def := newM(func(*Config) {})
	described := newM(func(c *Config) { c.DescriptionWeight = 0.4 })
	initial := newM(func(c *Config) {
		c.InitialMapping = []PathPair{{Source: "PO.POLines.Item.Qty", Target: "PurchaseOrder.Items.Item.Quantity"}}
	})
	lazy := newM(func(c *Config) { c.Structural.LazyMemo = true })

	var cases []kernelCase
	add := func(name string, m *Matcher, w workloads.Workload) {
		src, dst := mustPrepare(t, m, w), mustPrepareTarget(t, m, w)
		cases = append(cases, kernelCase{name, m, src, dst})
	}
	large := workloads.Synthetic(workloads.SyntheticSpec{Tables: 12, ColsPerTable: 10, Depth: 3, Seed: 11, Rename: 0.3, Renest: 0.2, FKs: 3})
	legacy, crm := buildAnnotated()
	fig := workloads.Figure2()
	add("large", def, large)
	// Many source rows against few target columns: the small pair's
	// element table then lands on cells this pair filled densely.
	add("large source, small target", def, workloads.Workload{Name: "tall", Source: large.Source, Target: fig.Target})
	add("small after large", def, fig)
	add("large again", def, large)
	add("shared types", def, workloads.CIDXExcel())
	add("join views", def, workloads.RDBStar())
	add("small after join views", def, fig)
	add("shared-type PO", lazy, workloads.SharedTypePO())
	add("lazy memo after large", lazy, large)
	add("lazy memo small", lazy, fig)
	add("descriptions", described, workloads.Workload{Name: "annotated", Source: legacy, Target: crm})
	add("initial mapping", initial, fig)
	add("university", def, workloads.University())

	// Instance profiles on both sides, then on one side only (the hook
	// stays off), then a large pair after them.
	targets := workloads.TieBreakTargets(2)
	prep := func(d workloads.TieBreakDoc, withInstances bool) *Prepared {
		s, err := sqlddl.Parse(d.Name, d.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if !withInstances {
			p, err := def.Prepare(s)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p, err := def.PrepareWithInstances(s, mustSamples(t, d.Instances))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases = append(cases,
		kernelCase{"profiles on both sides", def, prep(targets[0], true), prep(targets[1], true)},
		kernelCase{"profiles on one side", def, prep(targets[0], true), prep(targets[1], false)},
	)
	add("large after profiles", def, large)
	return cases
}

// TestScratchReuseAcrossShapes runs the whole sequence through one scratch,
// twice: every score must equal the full pipeline's leaf score (registry's
// Score of MatchPrepared, transcribed as fullScore) on a fresh scratch, and
// MatchPrepared through the used scratch must return the same matrices,
// TreeMatch statistics and mapping as on a fresh one.
func TestScratchReuseAcrossShapes(t *testing.T) {
	cases := kernelCases(t)
	sc := new(scratch)
	for round := 0; round < 2; round++ {
		for _, c := range cases {
			label := fmt.Sprintf("round %d, %s", round, c.name)
			want, err := c.m.matchPrepared(new(scratch), c.src, c.dst)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.m.score(sc, c.src, c.dst)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := fmt.Sprintf("%.17g", got), fmt.Sprintf("%.17g", fullScore(want)); g != w {
				t.Errorf("%s: score on a reused scratch %s, full pipeline %s", label, g, w)
			}
			res, err := c.m.matchPrepared(sc, c.src, c.dst)
			if err != nil {
				t.Fatal(err)
			}
			if !res.LSim.Equal(want.LSim) || !res.Struct.SSim.Equal(want.Struct.SSim) || !res.WSim.Equal(want.WSim) {
				t.Errorf("%s: MatchPrepared on a reused scratch: matrices differ from a fresh scratch", label)
			}
			if gs, ws := statsOf(res), statsOf(want); gs != ws {
				t.Errorf("%s: MatchPrepared on a reused scratch: TreeMatch stats %v, fresh scratch %v", label, gs, ws)
			}
			if !slices.Equal(res.Mapping.All(), want.Mapping.All()) {
				t.Errorf("%s: MatchPrepared on a reused scratch: mapping differs from a fresh scratch", label)
			}
		}
	}
}

// statsOf is the TreeMatch statistics of a result (the lazy-memo hits
// drop when stale touched flags survive a reuse).
func statsOf(res *Result) [4]int {
	st := res.Struct
	return [4]int{st.Comparisons, st.Pruned, st.MemoHits, st.Shortcuts}
}

// TestScratchPoolConcurrent has 8 goroutines share the pool, each walking
// the sequence from its own offset and alternating MatchScore with
// MatchPrepared; every score must equal the sequential one. Under -race
// this also proves no two calls ever hold the same scratch.
func TestScratchPoolConcurrent(t *testing.T) {
	cases := kernelCases(t)
	want := make([]float64, len(cases))
	for i, c := range cases {
		res, err := c.m.matchPrepared(new(scratch), c.src, c.dst)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fullScore(res)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(cases); k++ {
				i := (g + k) % len(cases)
				c := cases[i]
				var got float64
				if (g+k)%2 == 0 {
					s, err := c.m.MatchScore(c.src, c.dst)
					if err != nil {
						t.Error(err)
						return
					}
					got = s
				} else {
					res, err := c.m.MatchPrepared(c.src, c.dst)
					if err != nil {
						t.Error(err)
						return
					}
					got = fullScore(res)
				}
				if got != want[i] {
					t.Errorf("goroutine %d, %s: score %.17g, sequential %.17g", g, c.name, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOversizedScratchNotPooled: a scratch grown past maxPooledCells is
// dropped on return instead of pooled.
func TestOversizedScratchNotPooled(t *testing.T) {
	sc := new(scratch)
	sc.elem = sc.elem.Reshape(1, maxPooledCells+1)
	if sc.cells() <= maxPooledCells {
		t.Fatalf("scratch holds %d cells, want more than %d", sc.cells(), maxPooledCells)
	}
	putScratch(sc)
	// Drain the pool: the oversized scratch must never come back.
	for i := 0; i < 64; i++ {
		if got := getScratch(); got == sc {
			t.Fatal("oversized scratch was pooled")
		}
	}
}
