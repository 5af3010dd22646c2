package model

import (
	"math"
	"reflect"
	"testing"
)

func TestNewSignatureSortsAndDedups(t *testing.T) {
	s := NewSignature(4, 2, []string{"order", "city", "order", "amount", "city"})
	want := []string{"amount", "city", "order"}
	if !reflect.DeepEqual(s.Tokens, want) {
		t.Errorf("Tokens = %v, want %v", s.Tokens, want)
	}
	if s.Elements != 4 || s.Leaves != 2 {
		t.Errorf("sizes = (%d,%d), want (4,2)", s.Elements, s.Leaves)
	}
	// Input order must not matter: the index's remove/re-add path relies
	// on two builds of the same bag being identical.
	r := NewSignature(4, 2, []string{"city", "amount", "order", "city", "order"})
	if !reflect.DeepEqual(r, s) {
		t.Errorf("reordered input built %+v, want %+v", r, s)
	}
}

func TestSizeSim(t *testing.T) {
	cases := []struct {
		a, b int
		want float64
	}{
		{10, 10, 1},
		{9, 19, 0.5},
		{0, 0, 1}, // empty trees compare equal, no division by zero
		{0, 9, 0.1},
	}
	for _, c := range cases {
		a := Signature{Leaves: c.a}
		b := Signature{Leaves: c.b}
		if got := a.SizeSim(b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("SizeSim(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
		if a.SizeSim(b) != b.SizeSim(a) {
			t.Errorf("SizeSim(%d,%d) not symmetric", c.a, c.b)
		}
	}
}

func TestTokenJaccard(t *testing.T) {
	sig := func(toks ...string) Signature { return NewSignature(0, 0, toks) }
	cases := []struct {
		name string
		a, b Signature
		want float64
	}{
		{"identical", sig("a", "b", "c"), sig("a", "b", "c"), 1},
		{"disjoint", sig("a", "b"), sig("c", "d"), 0},
		{"half", sig("a", "b", "c"), sig("b", "c", "d"), 0.5},
		{"both empty", sig(), sig(), 0},
		{"one empty", sig("a"), sig(), 0},
	}
	for _, c := range cases {
		if got := c.a.TokenJaccard(c.b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: TokenJaccard = %v, want %v", c.name, got, c.want)
		}
		if c.a.TokenJaccard(c.b) != c.b.TokenJaccard(c.a) {
			t.Errorf("%s: TokenJaccard not symmetric", c.name)
		}
	}
}

func TestAffinityBoundsAndOrdering(t *testing.T) {
	near := NewSignature(10, 8, []string{"purchase", "order", "city", "street"})
	probe := NewSignature(10, 8, []string{"purchase", "order", "city", "zip"})
	far := NewSignature(100, 90, []string{"sensor", "reading", "volt"})
	if a := probe.Affinity(probe); a != 1 {
		t.Errorf("self affinity = %v, want 1", a)
	}
	an, af := probe.Affinity(near), probe.Affinity(far)
	if an <= af {
		t.Errorf("related schema (%v) must outrank unrelated (%v)", an, af)
	}
	for _, a := range []float64{an, af} {
		if a < 0 || a > 1 {
			t.Errorf("affinity %v out of [0,1]", a)
		}
	}
}
