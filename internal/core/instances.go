package core

// Instance-aware preparation: a schema may be prepared together with
// sampled instance data (internal/instance), producing per-leaf value
// profiles that MatchPrepared blends into the leaf similarity
// initialization. The blend only engages when BOTH sides of a match carry
// profiles — a Prepared without instances matches bit-identically to the
// profile-free pipeline (asserted by the zero-instance regression tests).

import (
	"repro/internal/instance"
	"repro/internal/model"
	"repro/internal/structural"
)

// PrepareWithInstances is Prepare plus instance profiling: the samples'
// leaf paths (with or without the schema-name prefix) are resolved to the
// schema's instantiable leaf elements, each sampled column is profiled
// (instance.Build), and the profiles ride along in the artifact. Paths
// that name no leaf are ignored — schemas evolve and samples lag — and a
// nil/empty samples map degrades to plain Prepare. The profile hash is
// mixed into Fingerprint, so the same schema with different samples is a
// different repository identity.
func (m *Matcher) PrepareWithInstances(s *model.Schema, samples instance.Samples) (*Prepared, error) {
	p, err := m.Prepare(s)
	if err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return p, nil
	}
	byElem, resolved := resolveProfiles(s, instance.BuildProfiles(samples))
	if len(byElem) == 0 {
		return p, nil
	}
	p.profiles = byElem
	p.profileHash = resolved.Hash()
	return p, nil
}

// resolveProfiles maps sampled paths onto the schema's instantiable leaf
// elements. It returns the element-keyed profile map the leaf-compat hook
// reads, plus the same profiles re-keyed by canonical element path (the
// deterministic identity that gets hashed). When two sampled spellings
// resolve to the same leaf, the lexicographically smaller path wins.
func resolveProfiles(s *model.Schema, profs instance.Profiles) (map[*model.Element]*instance.Profile, instance.Profiles) {
	if len(profs) == 0 {
		return nil, nil
	}
	rootPrefix := ""
	if s.Root().Name != "" {
		rootPrefix = s.Root().Name + "."
	}
	index := map[string]*model.Element{}
	for _, e := range s.Elements() {
		if !e.IsLeaf() || e.NotInstantiated || e == s.Root() {
			continue
		}
		full := e.Path()
		if _, dup := index[full]; !dup {
			index[full] = e
		}
		if rootPrefix != "" {
			if short, ok := cutPrefix(full, rootPrefix); ok {
				if _, dup := index[short]; !dup {
					index[short] = e
				}
			}
		}
	}
	byElem := map[*model.Element]*instance.Profile{}
	claimed := map[*model.Element]string{}
	resolved := instance.Profiles{}
	for path, prof := range profs {
		e, ok := index[path]
		if !ok {
			continue
		}
		if prev, dup := claimed[e]; dup {
			if path > prev {
				continue
			}
		}
		claimed[e] = path
		byElem[e] = prof
		resolved[e.Path()] = prof
	}
	return byElem, resolved
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) > len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return s, false
}

// HasProfiles reports whether the artifact carries instance profiles
// (i.e. was built by PrepareWithInstances with at least one resolvable
// sampled leaf).
func (p *Prepared) HasProfiles() bool { return len(p.profiles) > 0 }

// ProfiledLeaves returns how many leaf elements carry a profile.
func (p *Prepared) ProfiledLeaves() int { return len(p.profiles) }

// leafCompatFn builds the TreeMatch leaf-initialization hook for a match
// where both sides carry profiles: for leaf pairs profiled on both sides
// the declared-type table value is blended with the observed
// profile compatibility (instance.BlendCompat); every other pair falls
// back to the table. The closure reads immutable per-Prepared maps only,
// so concurrent MatchPrepared calls stay race-free and deterministic.
func leafCompatFn(src, dst map[*model.Element]*instance.Profile, table *structural.CompatTable) func(s, t *model.Element) (float64, bool) {
	return func(s, t *model.Element) (float64, bool) {
		ps, ok := src[s]
		if !ok {
			return 0, false
		}
		pt, ok := dst[t]
		if !ok {
			return 0, false
		}
		return instance.BlendCompat(table.Lookup(s.Type, t.Type), instance.Compat(ps, pt)), true
	}
}
