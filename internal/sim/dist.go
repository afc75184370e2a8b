package sim

import "math/rand"

// Exponential draws from an exponential distribution with the given mean.
// A non-positive mean yields 0, which lets callers express "no think time"
// or "no cost" without special cases.
func Exponential(r *rand.Rand, mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return r.ExpFloat64() * mean
}

// Uniform draws uniformly from [lo, hi].
func Uniform(r *rand.Rand, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	return lo + r.Float64()*(hi-lo)
}

// UniformInt draws a uniform integer in [lo, hi] inclusive.
func UniformInt(r *rand.Rand, lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + r.Intn(hi-lo+1)
}

// SampleWithoutReplacementInto returns k distinct integers from [0, n) in
// random order; if k >= n it returns a permutation of all n values. The
// result aliases scratch when scratch has capacity n, so a hot caller (the
// workload generator draws a sample per partition per transaction)
// allocates nothing in steady state; a nil scratch allocates one.
//
// It consumes exactly the same randomness as rand.Perm(n) — n Intn draws,
// including the degenerate Intn(1) at i=0, which rand.Perm keeps for Go 1
// stream compatibility — so a seeded run draws the same pages as one that
// called rand.Perm (TestSampleIntoMatchesPermStream pins this).
func SampleWithoutReplacementInto(r *rand.Rand, n, k int, scratch []int) []int {
	if k > n {
		k = n
	}
	if cap(scratch) < n {
		scratch = make([]int, n)
	} else {
		scratch = scratch[:n]
	}
	for i := 0; i < n; i++ {
		j := r.Intn(i + 1)
		scratch[i] = scratch[j]
		scratch[j] = i
	}
	return scratch[:k]
}
