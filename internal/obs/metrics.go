// Package obs is the campaign's measurement layer: plain fixed-bucket
// histograms with their serializable snapshots (the campaign summary's
// timing, phase, handoff, schedule-length and choices histograms), and the
// trace sink's trigger decision (the flight recorder) with its manifest.
//
// A Histogram is a value with no locks, no atomics and no heap state: each
// campaign worker owns one set per matrix cell, observes into it on the hot
// path without allocating, and the campaign sums the workers' sets with Add
// at its deterministic barriers. Rendering (snapshots, quantiles) happens
// only after that fold, outside the hot path.
package obs

import (
	"fmt"
	"sort"
)

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
// workers, shards and checkpoints always does.
func (h *Histogram) Add(o *Histogram) {
	if h.Base != o.Base {
		panic(fmt.Sprintf("obs: adding a base-%d histogram to a base-%d one", o.Base, h.Base))
	}
	for i, c := range o.N {
		h.N[i] += c
	}
	h.Sum += o.Sum
}

// HistogramSnapshot is the serializable rendering of a histogram, embedded
// in campaign summaries (schema v4). Le/N are parallel arrays of the
// non-empty buckets' upper bounds and (non-cumulative) counts; an Le of 0
// marks the +Inf overflow bucket. P50/P90/P99 are quantiles estimated by
// linear interpolation inside the bucket.
type HistogramSnapshot struct {
	Count uint64   `json:"count"`
	Sum   uint64   `json:"sum"`
	Le    []uint64 `json:"le,omitempty"`
	N     []uint64 `json:"n,omitempty"`
	P50   uint64   `json:"p50,omitempty"`
	P90   uint64   `json:"p90,omitempty"`
	P99   uint64   `json:"p99,omitempty"`
}

// Snapshot renders the histogram, or returns nil when it holds no
// observations.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{Sum: h.Sum}
	for i, n := range h.N {
		if n == 0 {
			continue
		}
		le := uint64(0) // +Inf
		if i < HistBuckets {
			le = h.Base << uint(i)
		}
		s.Le = append(s.Le, le)
		s.N = append(s.N, n)
		s.Count += n
	}
	if s.Count == 0 {
		return nil
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the snapshot's buckets,
// interpolating linearly within the bucket. Observations in the +Inf bucket
// clamp to the last finite bound. Returns 0 for an empty snapshot.
func (s *HistogramSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	var lower uint64
	for i, n := range s.N {
		next := cum + float64(n)
		if rank <= next || i == len(s.N)-1 {
			le := s.Le[i]
			if le == 0 { // +Inf bucket: clamp to the last finite bound
				return lower
			}
			frac := 0.0
			if n > 0 {
				frac = (rank - cum) / float64(n)
				if frac < 0 {
					frac = 0
				}
				if frac > 1 {
					frac = 1
				}
			}
			return lower + uint64(frac*float64(le-lower))
		}
		cum = next
		if s.Le[i] != 0 {
			lower = s.Le[i]
		}
	}
	return lower
}

// Merge folds other into s, summing bucket counts by bound (both sides must
// come from histograms of the same Base, which holds for any one metric)
// and recomputing the quantiles. Compare uses it to pool a tool's cells.
func (s *HistogramSnapshot) Merge(other *HistogramSnapshot) {
	if other == nil {
		return
	}
	byLe := map[uint64]uint64{}
	for i, le := range s.Le {
		byLe[le] += s.N[i]
	}
	for i, le := range other.Le {
		byLe[le] += other.N[i]
	}
	s.Le, s.N, s.Count = nil, nil, 0
	les := make([]uint64, 0, len(byLe))
	hasInf := false
	for le := range byLe {
		if le == 0 {
			hasInf = true
			continue
		}
		les = append(les, le)
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	if hasInf {
		les = append(les, 0)
	}
	for _, le := range les {
		s.Le = append(s.Le, le)
		s.N = append(s.N, byLe[le])
		s.Count += byLe[le]
	}
	s.Sum += other.Sum
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
}
