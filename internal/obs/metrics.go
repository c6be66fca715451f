// Package obs is the campaign's measurement layer: plain fixed-bucket
// histograms (each campaign cell's execution-time, phase-span,
// schedule-length and choices histograms), and the trace sink's trigger
// decision (the flight recorder) with its manifest.
//
// A Histogram is a value with no locks, no atomics and no heap state: each
// campaign worker owns one set per matrix cell, observes into it on the hot
// path without allocating, and the campaign sums the workers' sets with Add
// at its deterministic barriers. Checkpoints and summaries carry the folded
// histograms in one JSON encoding, and readers fold them further with the
// same Add; quantiles (Quantile) are computed only when a report is
// rendered, outside the hot path.
package obs

import "fmt"

// HistBuckets is the number of finite buckets of every Histogram.
const HistBuckets = 20

// Histogram is a fixed-bucket histogram of uint64 observations (nanoseconds,
// step counts). Bucket i counts observations ≤ Base<<i, and N[HistBuckets]
// is the +Inf overflow bucket. It is not goroutine-safe: every observer owns
// its histograms, and histograms from different observers meet only through
// Add. Its JSON encoding carries Base, so a decoded histogram folds like the
// one that was encoded.
type Histogram struct {
	Base uint64                  `json:"base"`
	N    [HistBuckets + 1]uint64 `json:"n"`
	Sum  uint64                  `json:"sum"`
}

// Observe records one value. The bucket scan is a bounded linear walk over
// the bucket bounds; it touches no heap and allocates nothing.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < HistBuckets && v > h.Base<<uint(i) {
		i++
	}
	h.N[i]++
	h.Sum += v
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for _, c := range h.N {
		n += c
	}
	return n
}

// Add folds o into h. Both must share a Base: the fold of one metric across
// workers, shards and resumed artifacts always does.
func (h *Histogram) Add(o *Histogram) {
	if h.Base != o.Base {
		panic(fmt.Sprintf("obs: adding a base-%d histogram to a base-%d one", o.Base, h.Base))
	}
	for i, c := range o.N {
		h.N[i] += c
	}
	h.Sum += o.Sum
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket that holds it, between the bucket's own bounds: bucket i
// spans (Base<<(i-1), Base<<i], bucket 0 [0, Base]. Observations in the +Inf
// overflow bucket clamp to its lower bound, Base<<(HistBuckets-1). Returns 0
// for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	last := len(h.N) - 1
	for last >= 0 && h.N[last] == 0 {
		last--
	}
	if last < 0 {
		return 0
	}
	rank := q * float64(h.Count())
	var cum float64
	for i, n := range h.N[:last+1] {
		next := cum + float64(n)
		if n > 0 && (rank <= next || i == last) {
			var lower uint64
			if i > 0 {
				lower = h.Base << uint(i-1)
			}
			if i == HistBuckets {
				return lower
			}
			frac := min(max((rank-cum)/float64(n), 0), 1)
			return lower + uint64(frac*float64(h.Base<<uint(i)-lower))
		}
		cum = next
	}
	panic("unreachable: bucket last is non-empty")
}
