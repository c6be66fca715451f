package obs

import (
	"reflect"
	"testing"
)

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	h := Histogram{Base: 1} // bounds 1, 2, 4, …, 1<<19
	for _, v := range []uint64{1, 2, 3, 9, 1 << 20, 1 << 30} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if want := uint64(15 + 1<<20 + 1<<30); h.Sum != want {
		t.Fatalf("sum = %d, want %d", h.Sum, want)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != h.Sum {
		t.Fatalf("snapshot count/sum = %d/%d", s.Count, s.Sum)
	}
	// Buckets: ≤1:1, ≤2:1, ≤4:1, ≤16:1, +Inf:2 (1<<20 and 1<<30 overflow
	// past the last bound, 1<<19).
	wantLe := []uint64{1, 2, 4, 16, 0}
	wantN := []uint64{1, 1, 1, 1, 2}
	if len(s.Le) != len(wantLe) {
		t.Fatalf("snapshot buckets = %v/%v", s.Le, s.N)
	}
	for i := range wantLe {
		if s.Le[i] != wantLe[i] || s.N[i] != wantN[i] {
			t.Fatalf("bucket %d = (%d,%d), want (%d,%d)", i, s.Le[i], s.N[i], wantLe[i], wantN[i])
		}
	}
	if s.P50 == 0 || s.P99 == 0 {
		t.Fatalf("quantiles not computed: %+v", s)
	}
	if empty := (&Histogram{Base: 1}).Snapshot(); empty != nil {
		t.Fatalf("empty histogram rendered %+v, want nil", empty)
	}
}

// TestHistogramMerge pins the two folds: Add of the plain histograms (the
// campaign's fold) and Merge of their snapshots (Compare's pooling) agree
// with each other and with observing everything into one histogram.
func TestHistogramMerge(t *testing.T) {
	a, b, direct := Histogram{Base: 1}, Histogram{Base: 1}, Histogram{Base: 1}
	for _, v := range []uint64{1, 8} {
		a.Observe(v)
		direct.Observe(v)
	}
	for _, v := range []uint64{1, 100, 1 << 25} {
		b.Observe(v)
		direct.Observe(v)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 5 || sa.Sum != 110+1<<25 {
		t.Fatalf("merged count/sum = %d/%d, want 5/%d", sa.Count, sa.Sum, 110+1<<25)
	}
	if sa.Le[0] != 1 || sa.N[0] != 2 {
		t.Fatalf("merged first bucket = (%d,%d), want (1,2)", sa.Le[0], sa.N[0])
	}
	// +Inf bucket must sort last.
	if sa.Le[len(sa.Le)-1] != 0 {
		t.Fatalf("merged +Inf bucket not last: %v", sa.Le)
	}
	a.Add(&b)
	if a != direct {
		t.Fatalf("Add = %+v, direct observation = %+v", a, direct)
	}
	if !reflect.DeepEqual(a.Snapshot(), sa) {
		t.Fatalf("snapshot of Add %+v != merged snapshots %+v", a.Snapshot(), sa)
	}
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
