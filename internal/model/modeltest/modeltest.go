// Package modeltest holds schema properties that the tests of several
// packages check: the importers' fuzz targets, the native JSON format's
// own fuzz target and the format's round-trip tests.
package modeltest

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/model"
)

// JSONRoundTrip writes s in the native JSON format and reads it back. It
// fails unless the copy has as many elements as s and the same element
// paths (as a multiset: the format creates the root tree before the
// shared types, so creation order may differ). It returns the copy.
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
