package stats

import "math"

// logHistBuckets is the fixed bucket count of LogHist. Bucket i covers
// values in [2^(i+logHistMinExp-1), 2^(i+logHistMinExp)); with a minimum
// exponent of -31 the range spans ~5e-10 ms to ~4e9 ms, far beyond any
// per-phase time the model produces. Values at or below zero land in
// bucket 0, values beyond the range clamp to the end buckets.
const (
	logHistBuckets = 64
	logHistMinExp  = -31
)

// LogHist is a fixed-size base-2 logarithmic histogram of non-negative
// millisecond values. It is a plain value type with no pointers: Add is
// pure arithmetic on an embedded array (no allocation, no wall-clock),
// so per-commit recording stays on the allocation-free transaction path,
// and quantiles are deterministic bucket upper bounds.
type LogHist struct {
	count   int64
	sum     float64
	buckets [logHistBuckets]int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	// Frexp: v = frac * 2^exp with frac in [0.5, 1), so v < 2^exp — exp
	// is the bucket's upper-bound exponent.
	_, exp := math.Frexp(v)
	i := exp - logHistMinExp
	if i < 0 {
		return 0
	}
	if i >= logHistBuckets {
		return logHistBuckets - 1
	}
	return i
}

// Add records one value.
func (h *LogHist) Add(v float64) {
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Merge folds another histogram into this one.
func (h *LogHist) Merge(o *LogHist) {
	h.count += o.count
	h.sum += o.sum
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// Count returns the number of recorded values.
func (h *LogHist) Count() int64 { return h.count }

// Sum returns the total of the recorded values.
func (h *LogHist) Sum() float64 { return h.sum }

// Mean returns the exact mean of the recorded values (the sum is kept
// outside the buckets, so the mean carries no quantization error).
func (h *LogHist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns a deterministic upper bound for the q-quantile (q in
// [0,1]): the upper edge of the first bucket whose cumulative count
// reaches ceil(q * count). Bucket edges are exact powers of two, so the
// bound is within a factor of two of the true order statistic.
func (h *LogHist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i]
		if cum >= target {
			return math.Ldexp(1, i+logHistMinExp)
		}
	}
	return math.Ldexp(1, logHistBuckets-1+logHistMinExp)
}
