//go:build race

package cupid_test

// raceEnabled reports a race-detector build, under which sync.Pool drops
// a random share of what is put back: allocation measurements that count
// on pooled state being reused do not hold there.
const raceEnabled = true
