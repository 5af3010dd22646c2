package eval

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
	"time"
)

func TestAblations(t *testing.T) {
	rows, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	base := byName["baseline"]
	if base.Metrics.F1() < 0.85 {
		t.Errorf("baseline F1 = %v", base.Metrics.F1())
	}
	// Lazy memo: identical quality guaranteed. (Hits are workload
	// dependent: on CIDX-Excel the cross-context boosts fire before the
	// copies are revisited, which conservatively invalidates the memo —
	// see TestLazyMemoIdenticalResults in internal/structural for a
	// workload where it does hit.)
	lm := byName["lazy-memo"]
	if lm.Metrics != base.Metrics {
		t.Errorf("lazy memo changed the metrics: %v vs %v", lm.Metrics, base.Metrics)
	}
	// Children shortcut fires and keeps recall high.
	cs := byName["children-shortcut"]
	if cs.Shortcuts == 0 {
		t.Error("children shortcut never fired")
	}
	if cs.Metrics.Recall() < 0.9 {
		t.Errorf("children shortcut recall = %v", cs.Metrics.Recall())
	}
	// Disabling pruning removes the pruned count.
	np := byName["no-leafcount-pruning"]
	if np.Pruned != 0 {
		t.Error("pruning disabled but pairs pruned")
	}
	if base.Pruned == 0 {
		t.Error("baseline pruned nothing")
	}
	// The paper's rejected alternative (children basis) is clearly worse.
	cb := byName["children-basis"]
	if cb.Metrics.F1() >= base.Metrics.F1() {
		t.Errorf("children basis F1 %v should be below leaf basis %v (paper §6 argument)",
			cb.Metrics.F1(), base.Metrics.F1())
	}
	out := RenderAblationRows(rows)
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "children-basis") {
		t.Errorf("render:\n%s", out)
	}
}

func TestWriteAblationCSV(t *testing.T) {
	rows, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteAblationCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("invalid csv: %v", err)
	}
	if len(recs) != len(rows)+1 {
		t.Errorf("csv rows = %d, want %d", len(recs), len(rows)+1)
	}
	if recs[0][0] != "variant" {
		t.Errorf("header = %v", recs[0])
	}
}

func TestWriteScaleCSV(t *testing.T) {
	pts := []ScalePoint{
		{Name: "x", Elements: 10, Leaves: 8, Duration: 1500 * time.Microsecond,
			Metrics: Metrics{TP: 4, FP: 1, FN: 1}},
	}
	var buf bytes.Buffer
	if err := WriteScaleCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1][0] != "x" || recs[1][3] != "1500" {
		t.Errorf("csv = %v", recs)
	}
}
