package linguistic

// SetNewMatcherNormCap sets the normalized-name cache cap of the matchers
// NewMatcher builds from now on and returns the previous cap. Not safe to
// call while other tests build matchers.
func SetNewMatcherNormCap(n int) int {
	prev := newMatcherNormCap
	newMatcherNormCap = n
	return prev
}
