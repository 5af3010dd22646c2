package main

// The crossformat experiment (-exp crossformat): the generic-model fan-in
// and instance-aware matching gates as a measured workload. The self-match
// cell registers every rendering of the cross-format corpus (each family
// as SQL DDL, JSON Schema and Avro — the same files checked in under
// examples/crossformat) and probes with each one: the top-ranked other
// entry must be the probe's own family for >= 95% of probes and both
// other-format renderings must rank in the top 10 (recall@10 exactly 1.0).
// The tie-break cell registers the ambiguous-names corpus — byte-identical
// DDL distinguishable only by sampled values — twice, with and without
// instance profiles, and gates that instance blending strictly improves
// top-1 accuracy over name/type-only matching.

import (
	"fmt"
	"time"

	cupid "repro"
	"repro/internal/core"
	"repro/internal/instance"
	"repro/internal/registry"
	"repro/internal/workloads"
)

// crossTop1Gate is the self-match cell's top-1 family-accuracy floor.
const crossTop1Gate = 0.95

// crossTieTargets sizes the tie-break corpus: one schema per value-kind
// rotation, so every probe has exactly one distribution-identical target.
const crossTieTargets = 6

// CrossFormatPoint is the -exp crossformat report cell. The *_recall
// metric names are load-bearing: the -compare trend gate floors every
// numeric key containing "recall", so the cross-format fan-in and the
// instance tie-break can never silently regress once a baseline records
// them.
type CrossFormatPoint struct {
	// Docs / Families / Formats describe the self-match corpus.
	Docs     int `json:"docs"`
	Families int `json:"families"`
	Formats  int `json:"formats"`
	// SweepNs is the aggregate wall clock of the all-pairs probe sweep.
	SweepNs int64 `json:"sweep_ns"`
	// SelfTop1 is the fraction of probes whose top-ranked other entry is
	// their own family; CrossRecall10 the mean fraction of a probe's two
	// other-format renderings found in its top 10 (gated exactly 1.0).
	SelfTop1      float64 `json:"self_top1_recall"`
	CrossRecall10 float64 `json:"cross_recall_at_10"`
	// Tie-break cell: top-1 accuracy over TieBreakTargets probes, with
	// name/type evidence only and with instance profiles blended in. The
	// name-only figure is the (low) baseline instance blending must
	// strictly beat, so it is deliberately not a gated metric name.
	TieBreakTargets int     `json:"tiebreak_targets"`
	NameOnlyTop1    float64 `json:"tiebreak_nameonly_top1"`
	InstancesTop1   float64 `json:"tiebreak_instances_top1_recall"`
}

// runCrossFormatSelf measures the self-match cell over the generated
// cross-format corpus (the byte-identical source of examples/crossformat).
func runCrossFormatSelf(cfg core.Config, point *CrossFormatPoint) error {
	docs := workloads.CrossFormatCorpus()
	point.Docs = len(docs)
	point.Families = workloads.CrossFormatFamilies()
	point.Formats = len(docs) / point.Families

	reg, err := registry.New(cfg)
	if err != nil {
		return err
	}
	type probe struct {
		name   string
		family string
		p      *core.Prepared
	}
	probes := make([]probe, 0, len(docs))
	for _, d := range docs {
		s, err := cupid.ParseSchema(d.Family, d.Format, []byte(d.Content))
		if err != nil {
			return fmt.Errorf("parsing %s as %s: %w", d.File, d.Format, err)
		}
		name := fmt.Sprintf("%s_%s", d.Family, d.Format)
		if _, _, err := reg.Register(name, s); err != nil {
			return fmt.Errorf("registering %s: %w", name, err)
		}
		p, err := reg.Matcher().Prepare(s)
		if err != nil {
			return err
		}
		probes = append(probes, probe{name: name, family: d.Family, p: p})
	}

	top1Hits, recallSum := 0, 0.0
	start := time.Now()
	for _, pr := range probes {
		ranked, err := reg.MatchAll(pr.p, len(docs))
		if err != nil {
			return fmt.Errorf("matching %s: %w", pr.name, err)
		}
		// Drop the probe's own entry: self-similarity says nothing about
		// the fan-in.
		others := ranked[:0:0]
		for _, r := range ranked {
			if r.Entry.Name != pr.name {
				others = append(others, r)
			}
		}
		if len(others) == 0 {
			return fmt.Errorf("%s: no other entries ranked", pr.name)
		}
		if crossFamilyOf(others[0].Entry.Name) == pr.family {
			top1Hits++
		}
		sameFamily := 0
		for _, r := range others[:min(10, len(others))] {
			if crossFamilyOf(r.Entry.Name) == pr.family {
				sameFamily++
			}
		}
		recallSum += float64(sameFamily) / float64(point.Formats-1)
	}
	point.SweepNs = time.Since(start).Nanoseconds()
	point.SelfTop1 = float64(top1Hits) / float64(len(probes))
	point.CrossRecall10 = recallSum / float64(len(probes))

	fmt.Printf("  self-match: %d docs (%d families x %d formats), sweep %.1fms, top-1 %.3f, recall@10 %.3f\n",
		point.Docs, point.Families, point.Formats,
		float64(point.SweepNs)/1e6, point.SelfTop1, point.CrossRecall10)

	if point.SelfTop1 < crossTop1Gate {
		return fmt.Errorf("crossformat gate: self-match top-1 = %.3f, want >= %.2f (an importer's structure or datatype normalization regressed)",
			point.SelfTop1, crossTop1Gate)
	}
	if point.CrossRecall10 < 1 {
		return fmt.Errorf("crossformat gate: cross-format recall@10 = %.3f, want exactly 1.0", point.CrossRecall10)
	}
	return nil
}

// crossFamilyOf strips the _<format> suffix off a registry name.
func crossFamilyOf(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '_' {
			return name[:i]
		}
	}
	return name
}

// crossTieTop1 registers the tie-break targets and probes each value
// distribution in turn, returning top-1 accuracy. With instances=false
// both registration and probes carry no samples — name/type-only matching
// over byte-identical DDL, where every target ties exactly.
func crossTieTop1(cfg core.Config, instances bool) (float64, error) {
	m, err := core.NewMatcher(cfg)
	if err != nil {
		return 0, err
	}
	reg := registry.NewWithMatcher(m)
	targets := workloads.TieBreakTargets(crossTieTargets)
	parseSamples := func(doc string) (instance.Samples, error) {
		if !instances {
			return nil, nil
		}
		return instance.ParseSamples([]byte(doc))
	}
	for _, d := range targets {
		s, err := cupid.ParseSchema(d.Name, "sql", []byte(d.SQL))
		if err != nil {
			return 0, err
		}
		samples, err := parseSamples(d.Instances)
		if err != nil {
			return 0, err
		}
		if _, _, err := reg.RegisterInstances(d.Name, s, samples); err != nil {
			return 0, fmt.Errorf("registering %s: %w", d.Name, err)
		}
	}
	hits := 0
	for j, d := range targets {
		probe := workloads.TieBreakProbe(j)
		s, err := cupid.ParseSchema(probe.Name, "sql", []byte(probe.SQL))
		if err != nil {
			return 0, err
		}
		samples, err := parseSamples(probe.Instances)
		if err != nil {
			return 0, err
		}
		p, err := m.PrepareWithInstances(s, samples)
		if err != nil {
			return 0, err
		}
		ranked, err := reg.MatchAll(p, len(targets))
		if err != nil {
			return 0, err
		}
		if len(ranked) > 0 && ranked[0].Entry.Name == d.Name {
			hits++
		}
	}
	return float64(hits) / float64(len(targets)), nil
}

// runCrossFormatTieBreak measures the tie-break cell and enforces the
// strict-improvement gate.
func runCrossFormatTieBreak(cfg core.Config, point *CrossFormatPoint) error {
	point.TieBreakTargets = crossTieTargets
	var err error
	if point.NameOnlyTop1, err = crossTieTop1(cfg, false); err != nil {
		return err
	}
	if point.InstancesTop1, err = crossTieTop1(cfg, true); err != nil {
		return err
	}
	fmt.Printf("  tie-break: %d byte-identical targets, top-1 name-only %.3f, with instances %.3f\n",
		point.TieBreakTargets, point.NameOnlyTop1, point.InstancesTop1)
	if point.InstancesTop1 <= point.NameOnlyTop1 {
		return fmt.Errorf("crossformat gate: instance blending top-1 %.3f does not strictly beat name-only %.3f on the ambiguous corpus",
			point.InstancesTop1, point.NameOnlyTop1)
	}
	return nil
}

// runCrossFormat executes the crossformat workload, enforces its gates,
// and merges the result into the report at outPath.
func runCrossFormat(outPath string) error {
	cfg := core.DefaultConfig()
	point := &CrossFormatPoint{}
	fmt.Println("cupidbench: cross-format fan-in + instance tie-break (examples/crossformat)")
	if err := runCrossFormatSelf(cfg, point); err != nil {
		return err
	}
	if err := runCrossFormatTieBreak(cfg, point); err != nil {
		return err
	}

	return writeReport(outPath, func(r *BenchReport) { r.CrossFormat = point })
}
