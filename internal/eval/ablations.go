package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/structural"
	"repro/internal/workloads"
)

// AblationRow is one design-choice variant evaluated on the CIDX-Excel
// workload (E10 in DESIGN.md: the choices the paper argues for in §6 and
// §8.4).
type AblationRow struct {
	Name    string
	Metrics Metrics
	// Stats from the structural matcher, showing what the variant changed.
	Comparisons int
	Pruned      int
	MemoHits    int
	Shortcuts   int
}

// Ablations evaluates the design-choice variants on CIDX-Excel.
func Ablations() ([]AblationRow, error) {
	w := workloads.CIDXExcel()
	cases := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"baseline", func(*core.Config) {}},
		{"lazy-memo", func(c *core.Config) { c.Structural.LazyMemo = true }},
		{"children-shortcut", func(c *core.Config) { c.Structural.ChildrenShortcut = true }},
		{"no-leafcount-pruning", func(c *core.Config) { c.Structural.LeafCountPruning = false }},
		{"no-optional-discount", func(c *core.Config) { c.Structural.OptionalDiscount = false }},
		{"children-basis", func(c *core.Config) { c.Structural.StructuralBasis = structural.BasisChildren }},
		{"frontier-depth-2", func(c *core.Config) { c.Structural.FrontierDepth = 2 }},
		{"one-to-one", func(c *core.Config) { c.Mapping.Cardinality = mapping.OneToOne }},
		{"no-join-views", func(c *core.Config) { c.Tree.JoinViews = false }},
	}
	var out []AblationRow
	for _, tc := range cases {
		cfg := core.DefaultConfig()
		cfg.Thesaurus = workloads.PaperThesaurus()
		tc.mutate(&cfg)
		res, m, err := RunCupid(w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tc.name, err)
		}
		row := AblationRow{Name: tc.name, Metrics: m}
		if res.Struct != nil {
			row.Comparisons = res.Struct.Comparisons
			row.Pruned = res.Struct.Pruned
			row.MemoHits = res.Struct.MemoHits
			row.Shortcuts = res.Struct.Shortcuts
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderAblationRows formats the E10 table.
func RenderAblationRows(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("design-choice ablations on CIDX-Excel (E10)\n")
	b.WriteString("  variant                F1     P      R      compared  pruned  memo  shortcut\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %.3f  %.3f  %.3f  %8d  %6d  %4d  %8d\n",
			r.Name, r.Metrics.F1(), r.Metrics.Precision(), r.Metrics.Recall(),
			r.Comparisons, r.Pruned, r.MemoHits, r.Shortcuts)
	}
	return b.String()
}

// WriteScaleCSV emits the scalability sweep as CSV, the raw series behind
// the E9 "figure".
func WriteScaleCSV(w io.Writer, points []ScalePoint) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"name", "elements", "leaves", "micros", "precision", "recall", "f1"}); err != nil {
		return err
	}
	for _, p := range points {
		rec := []string{
			p.Name,
			strconv.Itoa(p.Elements),
			strconv.Itoa(p.Leaves),
			strconv.FormatInt(p.Duration.Microseconds(), 10),
			strconv.FormatFloat(p.Metrics.Precision(), 'f', 4, 64),
			strconv.FormatFloat(p.Metrics.Recall(), 'f', 4, 64),
			strconv.FormatFloat(p.Metrics.F1(), 'f', 4, 64),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteAblationCSV emits the E10 ablation table as CSV.
func WriteAblationCSV(w io.Writer, rows []AblationRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"variant", "precision", "recall", "f1", "comparisons", "pruned", "memohits", "shortcuts"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Name,
			strconv.FormatFloat(r.Metrics.Precision(), 'f', 4, 64),
			strconv.FormatFloat(r.Metrics.Recall(), 'f', 4, 64),
			strconv.FormatFloat(r.Metrics.F1(), 'f', 4, 64),
			strconv.Itoa(r.Comparisons),
			strconv.Itoa(r.Pruned),
			strconv.Itoa(r.MemoHits),
			strconv.Itoa(r.Shortcuts),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
