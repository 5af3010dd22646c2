package core

import (
	"fmt"
	"testing"

	"repro/internal/mapping"
	"repro/internal/workloads"
)

// fullScore is the repository ranking score of a full result: the leaf
// mapping's wsim values summed in Mapping.Leaves order over the larger
// leaf count (the registry's Score, transcribed).
func fullScore(res *Result) float64 {
	leaves := max(res.SourceTree.NumLeaves(), res.TargetTree.NumLeaves())
	if leaves == 0 {
		return 0
	}
	sum := 0.0
	for _, e := range res.Mapping.Leaves {
		sum += e.WSim
	}
	return sum / float64(leaves)
}

// TestMatchScoreEqualsFullScore: the score-only kernel must reproduce the
// full pipeline's leaf score bit for bit — on shared types, join views,
// large synthetic pairs, described elements, initial mappings, with join
// views excluded from mapping, and with instance profiles.
func TestMatchScoreEqualsFullScore(t *testing.T) {
	pairs := []workloads.Workload{
		workloads.Figure2(), workloads.CIDXExcel(), workloads.University(),
		workloads.RDBStar(), workloads.SharedTypePO(),
		workloads.Synthetic(workloads.SyntheticSpec{Tables: 10, ColsPerTable: 9, Depth: 2, Seed: 3, Rename: 0.3, Renest: 0.2}),
	}
	legacy, crm := buildAnnotated()
	pairs = append(pairs, workloads.Workload{Name: "annotated", Source: legacy, Target: crm})
	noViews := DefaultConfig()
	noViews.Mapping.IncludeJoinViews = false
	described := DefaultConfig()
	described.DescriptionWeight = 0.4
	initial := DefaultConfig()
	initial.InitialMapping = []PathPair{{Source: "PO.POLines.Item.Qty", Target: "PurchaseOrder.Items.Item.Quantity"}}
	configs := map[string]Config{"default": DefaultConfig(), "no-join-views": noViews, "described": described}
	check := func(name string, m *Matcher, src, dst *Prepared) {
		t.Helper()
		res, err := m.MatchPrepared(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.MatchScore(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if want := fullScore(res); got != want {
			t.Errorf("%s: MatchScore %.17g, full pipeline %.17g", name, got, want)
		}
	}
	for cname, cfg := range configs {
		m, err := NewMatcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range pairs {
			src, dst := mustPrepare(t, m, w), mustPrepareTarget(t, m, w)
			check(fmt.Sprintf("%s %s", cname, w.Name), m, src, dst)
			check(fmt.Sprintf("%s %s reversed", cname, w.Name), m, dst, src)
		}
	}
	m, err := NewMatcher(initial)
	if err != nil {
		t.Fatal(err)
	}
	w := workloads.Figure2()
	check("initial mapping", m, mustPrepare(t, m, w), mustPrepareTarget(t, m, w))

	m, err = NewMatcher(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, dst := tieBreakArtifacts(t, m)
	check("instance profiles", m, src, dst)
}

// TestMatchScoreNeedsLeafOnlyConfig: configurations whose leaf score
// depends on more than TreeMatch refuse the kernel.
func TestMatchScoreNeedsLeafOnlyConfig(t *testing.T) {
	oneToOne := DefaultConfig()
	oneToOne.Mapping.Cardinality = mapping.OneToOne
	lingOnly := DefaultConfig()
	lingOnly.Mode = ModeLinguisticOnly
	structOnly := DefaultConfig()
	structOnly.Mode = ModeStructuralOnly
	for name, cfg := range map[string]Config{"1:1": oneToOne, "linguistic-only": lingOnly, "structural-only": structOnly} {
		m, err := NewMatcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.ScoreOnly() {
			t.Errorf("%s: ScoreOnly reports true", name)
		}
		w := workloads.Figure2()
		if _, err := m.MatchScore(mustPrepare(t, m, w), mustPrepareTarget(t, m, w)); err == nil {
			t.Errorf("%s: MatchScore ran", name)
		}
	}
}

func mustPrepare(t *testing.T, m *Matcher, w workloads.Workload) *Prepared {
	t.Helper()
	p, err := m.Prepare(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustPrepareTarget(t *testing.T, m *Matcher, w workloads.Workload) *Prepared {
	t.Helper()
	p, err := m.Prepare(w.Target)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
