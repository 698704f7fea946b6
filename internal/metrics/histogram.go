package metrics

import "math"

// Histogram is a log-bucketed distribution of non-negative values (latency
// in seconds, sizes in bytes). Buckets double in width: bucket 0 holds
// values <= histMinValue, bucket i holds (histMinValue*2^(i-1),
// histMinValue*2^i], and the final bucket absorbs everything larger. The
// exact min, max, sum, and count are tracked alongside, so Percentile
// estimates are clamped to the observed range (a single-sample histogram
// reports that sample for every percentile).
type Histogram struct {
	Name string

	counts   [histBuckets + 2]int64
	count    int64
	sum      float64
	min, max float64
}

const (
	// histMinValue is the smallest resolvable value: everything at or below
	// it lands in bucket 0. 1 ns when values are seconds.
	histMinValue = 1e-9
	// histBuckets is the number of doubling buckets after bucket 0;
	// histMinValue * 2^64 ≈ 1.8e10 covers any simulated latency or size.
	histBuckets = 64
)

// NewHistogram creates an empty histogram.
func NewHistogram(name string) *Histogram {
	return &Histogram{Name: name}
}

// bucketOf maps a value to its bucket index.
func bucketOf(v float64) int {
	if v <= histMinValue {
		return 0
	}
	b := int(math.Ceil(math.Log2(v / histMinValue)))
	if b < 1 {
		b = 1
	}
	if b > histBuckets+1 {
		b = histBuckets + 1
	}
	return b
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	if i <= 0 {
		return histMinValue
	}
	return histMinValue * math.Pow(2, float64(i))
}

// Observe records one value. Negative values clamp to zero. Safe on a nil
// receiver (disabled instrumentation observes into nothing).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the exact sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean reports the exact mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min and Max report the exact observed extremes (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.min
}

func (h *Histogram) Max() float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return h.max
}

// Merge folds other's observations into h, bucket by bucket, preserving
// the exact count, sum, and extremes — merging per-cell histograms after a
// parallel sweep yields the same statistics as observing every value into
// one histogram (buckets are exact; only Percentile interpolation was ever
// approximate). A nil or empty other is a no-op; merging into a nil
// receiver is a no-op (disabled instrumentation).
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil || other.count == 0 {
		return
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Percentile estimates the p-th percentile (p in [0, 100]) by linear
// interpolation within the containing bucket, clamped to the exact observed
// [min, max]. Empty histograms report 0.
func (h *Histogram) Percentile(p float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := p / 100 * float64(h.count)
	var cum int64
	for i := 0; i < len(h.counts); i++ {
		c := h.counts[i]
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			lo := 0.0
			if i > 0 {
				lo = bucketUpper(i - 1)
			}
			hi := bucketUpper(i)
			// Position of the target within this bucket's occupants.
			frac := (target - float64(cum)) / float64(c)
			v := lo + frac*(hi-lo)
			return clamp(v, h.min, h.max)
		}
		cum += c
	}
	return h.max
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
