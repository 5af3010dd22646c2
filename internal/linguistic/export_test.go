package linguistic

// SetNewMatcherBudget sets the name-table byte budget of the matchers
// NewMatcher builds from now on and returns the previous budget. Not safe
// to call while other tests build matchers.
func SetNewMatcherBudget(n int) int {
	prev := newMatcherBudget
	newMatcherBudget = n
	return prev
}

// NameTableOf returns the generation number of the name table si's IDs
// belong to.
func NameTableOf(si *SchemaInfo) uint64 { return si.ids.Load().gen }
