// Package oraclepairs builds the schema-tree pairs on which the naive
// oracles of internal/structural (Figure 3 and the §7 second pass) and
// internal/mapping (§7 generation) check the kernels bit for bit: fixed
// workloads with shared types and join views, randomized synthetic pairs,
// and one pair of the pair-large shape.
package oraclepairs

import (
	"fmt"
	"math/rand"

	"repro/internal/linguistic"
	"repro/internal/matrix"
	"repro/internal/model"
	"repro/internal/schematree"
	"repro/internal/workloads"
)

// Pair is one input: two expanded trees and a node-level lsim indexed by
// their post-order indexes.
type Pair struct {
	Name   string
	TS, TT *schematree.Tree
	LSim   matrix.Matrix
}

// lsimLevels put many cells on either side of ThAccept and of the
// increase/decrease thresholds.
var lsimLevels = []float64{0, 0, 0, 0.2, 0.4, 0.5, 0.6, 0.8, 1}

// Pairs returns a few fixed workloads with shared types and join views
// (context copies for the lazy memo) plus randomized synthetic pairs, each
// with random optional flags and a random element-keyed lsim lifted to the
// nodes (context copies share their element's value, as the core
// pipeline's lift guarantees). The same pairs come back on every call.
func Pairs() ([]Pair, error) {
	rng := rand.New(rand.NewSource(41))
	var out []Pair
	add := func(name string, w workloads.Workload) error {
		p, err := randomPair(rng, name, w.Source, w.Target)
		out = append(out, p)
		return err
	}
	for _, w := range []workloads.Workload{workloads.SharedTypePO(), workloads.CIDXExcel(), workloads.RDBStar()} {
		if err := add(w.Name, w); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 9; i++ {
		w := workloads.Synthetic(workloads.SyntheticSpec{
			Tables: 2 + rng.Intn(3), ColsPerTable: 2 + rng.Intn(5), Depth: 1 + rng.Intn(3),
			Seed: rng.Int63(), Rename: 0.3, Renest: 0.3, FKs: rng.Intn(3),
		})
		if err := add(fmt.Sprintf("synthetic %d", i), w); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// PairLarge returns the pair-large shape: two 289-element Synthetic
// schemas of 256 leaves each (16 tables of 16 columns, two deep, 30% of
// the target's names perturbed, 20% of its leaves moved up a level), with
// the lsim the linguistic matcher gives them under the paper's thesaurus.
func PairLarge() (Pair, error) {
	w := workloads.Synthetic(workloads.SyntheticSpec{Tables: 16, ColsPerTable: 16, Depth: 2, Rename: 0.3, Renest: 0.2, Seed: 1})
	lm := linguistic.NewMatcher(workloads.PaperThesaurus())
	elem := lm.LSim(lm.Analyze(w.Source), lm.Analyze(w.Target))
	return lift("pair-large", w.Source, w.Target, elem)
}

func randomPair(rng *rand.Rand, name string, src, dst *model.Schema) (Pair, error) {
	for _, s := range []*model.Schema{src, dst} {
		for _, e := range s.Elements() {
			e.Optional = rng.Intn(5) == 0
		}
	}
	elem := matrix.New(src.Len(), dst.Len())
	for i := 0; i < src.Len(); i++ {
		for j := 0; j < dst.Len(); j++ {
			elem.Set(i, j, lsimLevels[rng.Intn(len(lsimLevels))])
		}
	}
	return lift(name, src, dst, elem)
}

// lift expands both schemas and lifts the element-level lsim to their
// nodes.
func lift(name string, src, dst *model.Schema, elem matrix.Matrix) (Pair, error) {
	ts, err := schematree.Build(src, schematree.DefaultOptions())
	if err != nil {
		return Pair{}, err
	}
	tt, err := schematree.Build(dst, schematree.DefaultOptions())
	if err != nil {
		return Pair{}, err
	}
	lsim := matrix.New(ts.Len(), tt.Len())
	for i, sn := range ts.Nodes {
		for j, tn := range tt.Nodes {
			lsim.Set(i, j, elem.At(sn.Elem.ID(), tn.Elem.ID()))
		}
	}
	return Pair{name, ts, tt, lsim}, nil
}
