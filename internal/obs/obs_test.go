package obs

import "testing"

// observed returns a base-1 histogram holding vals.
func observed(vals ...uint64) Histogram {
	h := Histogram{Base: 1}
	for _, v := range vals {
		h.Observe(v)
	}
	return h
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	h := observed(1, 2, 3, 9, 1<<20, 1<<30) // bounds 1, 2, 4, …, 1<<19
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := uint64(15 + 1<<20 + 1<<30); h.Sum != want {
		t.Fatalf("sum = %d, want %d", h.Sum, want)
	}
	// Buckets: ≤1:1, ≤2:1, ≤4:1, ≤16:1, +Inf:2 (1<<20 and 1<<30 overflow
	// past the last bound, 1<<19).
	var want [HistBuckets + 1]uint64
	want[0], want[1], want[2], want[4], want[HistBuckets] = 1, 1, 1, 1, 2
	if h.N != want {
		t.Fatalf("buckets = %v, want %v", h.N, want)
	}
	// The median falls in the ≤4 bucket, interpolated from its lower bound
	// 2; the tail sits in the overflow bucket and clamps to that bucket's
	// lower bound, the last finite bound 1<<19.
	if p50, p99 := h.Quantile(0.50), h.Quantile(0.99); p50 != 4 || p99 != 1<<19 {
		t.Fatalf("p50/p99 = %d/%d, want 4/%d", p50, p99, 1<<19)
	}
}

// TestHistogramQuantileGolden pins Quantile's interpolation rule on
// hand-built histograms: a quantile interpolates between its bucket's own
// bounds, whatever lies in the buckets below, and the overflow bucket clamps
// to its lower bound.
func TestHistogramQuantileGolden(t *testing.T) {
	build := func(base uint64, counts map[int]uint64) *Histogram {
		h := &Histogram{Base: base}
		for i, n := range counts {
			h.N[i] = n
		}
		return h
	}
	for _, tc := range []struct {
		name          string
		h             *Histogram
		p50, p90, p99 uint64
	}{
		// ≤2: 3 and ≤16: 7, with ≤4 and ≤8 empty between them: the ≤16
		// bucket interpolates from its own lower bound 8, not from 2.
		{"empty bucket between", build(1, map[int]uint64{1: 3, 4: 7}), 10, 14, 15},
		{"overflow only", build(8, map[int]uint64{HistBuckets: 5}), 8 << 19, 8 << 19, 8 << 19},
		{"single bucket", build(1024, map[int]uint64{3: 10}), 6144, 7782, 8151},
		{"overflow tail", build(8, map[int]uint64{0: 50, 2: 30, 5: 19, HistBuckets: 1}), 8, 195, 256},
		// Two samples in (65.5, 131.1] µs: p50 is the bucket's midpoint.
		{"two samples in one bucket", build(1024, map[int]uint64{7: 2}), 98304, 124518, 130416},
		{"empty", build(1024, nil), 0, 0, 0},
	} {
		got := [3]uint64{tc.h.Quantile(0.50), tc.h.Quantile(0.90), tc.h.Quantile(0.99)}
		if want := [3]uint64{tc.p50, tc.p90, tc.p99}; got != want {
			t.Errorf("%s: p50/p90/p99 = %v, want %v", tc.name, got, want)
		}
	}
}

// TestHistogramMerge pins the fold: Add of two histograms equals observing
// everything into one, and so do its quantiles.
func TestHistogramMerge(t *testing.T) {
	a, b, direct := observed(1, 8), observed(1, 100, 1<<25), observed(1, 8, 1, 100, 1<<25)
	a.Add(&b)
	if a != direct {
		t.Fatalf("Add = %+v, direct observation = %+v", a, direct)
	}
	if a.Count() != 5 || a.Sum != 110+1<<25 || a.N[0] != 2 || a.N[HistBuckets] != 1 {
		t.Fatalf("folded count/sum/first/overflow = %d/%d/%d/%d, want 5/%d/2/1",
			a.Count(), a.Sum, a.N[0], a.N[HistBuckets], 110+1<<25)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q) != direct.Quantile(q) {
			t.Fatalf("q%.2f of the fold %d != direct %d", q, a.Quantile(q), direct.Quantile(q))
		}
	}
}

// TestHistogramSnapshotMergeEdgeCases covers the quantile corners of the
// histogram fold (Add), which took over from the summary's snapshot merge:
// folding into and from empties, all mass in one bucket, and associativity
// of folds of folds.
func TestHistogramSnapshotMergeEdgeCases(t *testing.T) {
	t.Run("empty into empty", func(t *testing.T) {
		s, e := observed(), observed()
		s.Add(&e)
		if s.Count() != 0 || s.Quantile(0.5) != 0 || s.Quantile(0.99) != 0 {
			t.Fatalf("empty fold produced mass: %+v", s)
		}
	})
	t.Run("empty into populated", func(t *testing.T) {
		s, e, want := observed(4, 8, 16), observed(), observed(4, 8, 16)
		s.Add(&e)
		if s != want || s.Quantile(0.5) != want.Quantile(0.5) {
			t.Fatalf("folding an empty histogram moved it: %+v vs %+v", s, want)
		}
	})
	t.Run("populated into empty", func(t *testing.T) {
		s, p := observed(), observed(4, 8, 16)
		s.Add(&p)
		if s.Count() != 3 || s.Quantile(0.5) == 0 {
			t.Fatalf("fold into an empty histogram lost mass: %+v", s)
		}
	})
	t.Run("single bucket mass", func(t *testing.T) {
		// All observations land in one bucket: the fold must equal a direct
		// observation of the same mass, and its quantiles stay within the
		// bucket's bound.
		s, o := observed(3, 3, 3, 3), observed(3, 3, 3, 3)
		s.Add(&o)
		if want := observed(3, 3, 3, 3, 3, 3, 3, 3); s != want {
			t.Fatalf("folded single-bucket histogram %+v != direct %+v", s, want)
		}
		if p50, p99 := s.Quantile(0.5), s.Quantile(0.99); p50 > p99 || p99 > 4 {
			t.Fatalf("single-bucket quantiles p50=%d p99=%d escape the bucket", p50, p99)
		}
	})
	t.Run("merge of merges associativity", func(t *testing.T) {
		a, b, c := []uint64{1, 2, 300}, []uint64{4, 500, 6}, []uint64{700, 8, 9}
		left, hb, hc := observed(a...), observed(b...), observed(c...)
		left.Add(&hb)
		left.Add(&hc)
		bc, right := observed(b...), observed(a...)
		bc.Add(&hc)
		right.Add(&bc)
		if left != right {
			t.Fatalf("(a+b)+c != a+(b+c):\n%+v\n%+v", left, right)
		}
		all := append(append(append([]uint64{}, a...), b...), c...)
		if direct := observed(all...); left != direct {
			t.Fatalf("folded != directly observed:\n%+v\n%+v", left, direct)
		}
	})
}

// TestHotPathZeroAlloc pins the histogram's observation and fold at zero
// allocations, the property that lets the campaign thread them through the
// engine's steady state without breaking the 0 B / 0 objs invariant.
func TestHotPathZeroAlloc(t *testing.T) {
	var h, sum Histogram
	h.Base, sum.Base = 1024, 1024
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(123456)
		sum.Add(&h)
	}); n != 0 {
		t.Fatalf("hot path allocates %.1f objs/op, want 0", n)
	}
}
