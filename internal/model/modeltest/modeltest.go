// Package modeltest holds schema properties that the tests of several
// packages check: the importers' fuzz targets, the native JSON format's
// own fuzz target and the format's round-trip tests.
package modeltest

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/model"
)

// JSONRoundTrip writes s in the native JSON format and reads it back. It
// fails unless the copy has as many elements as s, the same element paths,
// and under each path the same IsDerivedFrom, aggregation and reference
// targets in the same order (compared as a multiset of elements: the
// format creates the root tree before the shared types and the refints,
// so creation order may differ). It returns the copy.
func JSONRoundTrip(s *model.Schema) (*model.Schema, error) {
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("writing native json: %w", err)
	}
	back, err := model.ReadJSON(&buf)
	if err != nil {
		return nil, fmt.Errorf("reading back native json: %w", err)
	}
	if back.Len() != s.Len() {
		return nil, fmt.Errorf("native json round trip has %d elements, want %d", back.Len(), s.Len())
	}
	if got, want := paths(back), paths(s); !slices.Equal(got, want) {
		return nil, fmt.Errorf("native json round trip changes element paths: %q, want %q", got, want)
	}
	if got, want := links(back), links(s); !slices.Equal(got, want) {
		return nil, fmt.Errorf("native json round trip changes element links: %q, want %q", got, want)
	}
	return back, nil
}

// paths returns the paths of all of s's elements, sorted.
func paths(s *model.Schema) []string {
	out := make([]string, 0, s.Len())
	for _, e := range s.Elements() {
		out = append(out, e.Path())
	}
	slices.Sort(out)
	return out
}

// links renders each of s's elements with links as its path and the
// paths of its IsDerivedFrom, aggregation and reference targets, in link
// order; the result is sorted.
func links(s *model.Schema) []string {
	var out []string
	for _, e := range s.Elements() {
		if len(e.DerivedFrom())+len(e.Aggregates())+len(e.References()) == 0 {
			continue
		}
		var b strings.Builder
		b.WriteString(e.Path())
		for _, l := range [...]struct {
			label string
			to    []*model.Element
		}{{" derives", e.DerivedFrom()}, {" aggregates", e.Aggregates()}, {" references", e.References()}} {
			b.WriteString(l.label)
			for _, t := range l.to {
				b.WriteString(" " + strconv.Quote(t.Path()))
			}
		}
		out = append(out, b.String())
	}
	slices.Sort(out)
	return out
}
