package mapping

// A transcription of the mapping generators as they stood before they
// walked eligible index lists row by row: every generator scans all node
// pairs, filtering each node on the spot, and the naive scheme takes each
// target's column of wsim in turn. Generate must equal it element for
// element, in the same order, with the same similarity values.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/matrix"
	"repro/internal/schematree"
	"repro/internal/structural"
	"repro/internal/structural/oraclepairs"
)

func oracleEligible(n *schematree.Node, leaves bool, opt Options) bool {
	if n.IsLeaf() != leaves {
		return false
	}
	return !n.IsJoinView || opt.IncludeJoinViews
}

func oracleBestElsewhere(ts, tt *schematree.Tree, res *structural.Result, opt Options, leaves bool) bestElsewhere {
	be := bestElsewhere{
		max:    make([]float64, ts.Len()),
		second: make([]float64, ts.Len()),
		argmax: make([]int, ts.Len()),
	}
	for i := range be.argmax {
		be.argmax[i] = -1
	}
	for _, s := range ts.Nodes {
		if !oracleEligible(s, leaves, opt) {
			continue
		}
		for _, t := range tt.Nodes {
			if !oracleEligible(t, leaves, opt) {
				continue
			}
			w := res.WSim.At(s.Idx, t.Idx)
			switch {
			case w > be.max[s.Idx]:
				be.second[s.Idx] = be.max[s.Idx]
				be.max[s.Idx] = w
				be.argmax[s.Idx] = t.Idx
			case w > be.second[s.Idx]:
				be.second[s.Idx] = w
			}
		}
	}
	return be
}

func oracleOneToN(ts, tt *schematree.Tree, res *structural.Result, lsim matrix.Matrix, opt Options, leaves bool) []Element {
	be := oracleBestElsewhere(ts, tt, res, opt, leaves)
	var out []Element
	for _, t := range tt.Nodes {
		if !oracleEligible(t, leaves, opt) {
			continue
		}
		best := -1
		bestW, bestPW, bestOther := 0.0, 0.0, 0.0
		for _, s := range ts.Nodes {
			if !oracleEligible(s, leaves, opt) {
				continue
			}
			w := res.WSim.At(s.Idx, t.Idx)
			if w < opt.ThAccept {
				continue
			}
			pw := 0.0
			if leaves {
				pw = parentWSim(res, s, t)
			}
			other := be.other(s.Idx, t.Idx)
			if w > bestW ||
				(w == bestW && pw > bestPW) ||
				(w == bestW && pw == bestPW && best >= 0 && other < bestOther) {
				bestW, bestPW, bestOther, best = w, pw, other, s.Idx
			}
		}
		if best >= 0 {
			out = append(out, Element{Source: ts.Nodes[best], Target: t, WSim: bestW,
				SSim: res.SSim.At(best, t.Idx), LSim: lsim.At(best, t.Idx)})
		}
	}
	return out
}

func oracleOneToOne(ts, tt *schematree.Tree, res *structural.Result, lsim matrix.Matrix, opt Options, leaves bool) []Element {
	be := oracleBestElsewhere(ts, tt, res, opt, leaves)
	type cand struct {
		s, t         int
		w, pw, other float64
	}
	var cands []cand
	for _, s := range ts.Nodes {
		if !oracleEligible(s, leaves, opt) {
			continue
		}
		for _, t := range tt.Nodes {
			if !oracleEligible(t, leaves, opt) {
				continue
			}
			if w := res.WSim.At(s.Idx, t.Idx); w >= opt.ThAccept {
				pw := 0.0
				if leaves {
					pw = parentWSim(res, s, t)
				}
				cands = append(cands, cand{s.Idx, t.Idx, w, pw, be.other(s.Idx, t.Idx)})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].w != cands[j].w {
			return cands[i].w > cands[j].w
		}
		if cands[i].pw != cands[j].pw {
			return cands[i].pw > cands[j].pw
		}
		if cands[i].other != cands[j].other {
			return cands[i].other < cands[j].other
		}
		if cands[i].t != cands[j].t {
			return cands[i].t < cands[j].t
		}
		return cands[i].s < cands[j].s
	})
	usedS, usedT := map[int]bool{}, map[int]bool{}
	var out []Element
	for _, c := range cands {
		if usedS[c.s] || usedT[c.t] {
			continue
		}
		usedS[c.s], usedT[c.t] = true, true
		out = append(out, Element{Source: ts.Nodes[c.s], Target: tt.Nodes[c.t], WSim: c.w,
			SSim: res.SSim.At(c.s, c.t), LSim: lsim.At(c.s, c.t)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Target.Idx < out[j].Target.Idx })
	return out
}

// TestGenerateMatchesOracle: on every oracle pair and the pair-large
// pair, after TreeMatch and SecondPass, Generate equals the transcription
// under 1:n and 1:1, for leaves and non-leaves, with join views included
// and excluded.
func TestGenerateMatchesOracle(t *testing.T) {
	pairs, err := oraclepairs.Pairs()
	if err != nil {
		t.Fatal(err)
	}
	large, err := oraclepairs.PairLarge()
	if err != nil {
		t.Fatal(err)
	}
	pairs = append(pairs, large)
	p := structural.DefaultParams()
	var emitted [2][2]int // [cardinality][leaves]
	for _, pr := range pairs {
		res := structural.TreeMatch(pr.TS, pr.TT, pr.LSim, p)
		structural.SecondPass(res, pr.TS, pr.TT, pr.LSim, p)
		for _, card := range []Cardinality{OneToN, OneToOne} {
			gen := oracleOneToN
			if card == OneToOne {
				gen = oracleOneToOne
			}
			for _, jv := range []bool{true, false} {
				opt := DefaultOptions()
				opt.Cardinality, opt.IncludeJoinViews = card, jv
				got := Generate(pr.TS, pr.TT, res, pr.LSim, opt)
				for i, part := range []struct {
					name      string
					got, want []Element
				}{
					{"non-leaf", got.NonLeaves, gen(pr.TS, pr.TT, res, pr.LSim, opt, false)},
					{"leaf", got.Leaves, gen(pr.TS, pr.TT, res, pr.LSim, opt, true)},
				} {
					label := fmt.Sprintf("%s, cardinality %d, join views %t, %s", pr.Name, card, jv, part.name)
					if len(part.got) != len(part.want) {
						t.Fatalf("%s: %d elements, oracle %d", label, len(part.got), len(part.want))
					}
					for k, e := range part.got {
						if e != part.want[k] {
							t.Fatalf("%s: element %d is %v, oracle %v", label, k, e, part.want[k])
						}
					}
					emitted[card][i] += len(part.got)
				}
			}
		}
	}
	for card := range emitted {
		for i, n := range emitted[card] {
			if n == 0 {
				t.Errorf("cardinality %d emitted no elements of kind %d: the comparison is vacuous", card, i)
			}
		}
	}
}
