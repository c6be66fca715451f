package obs

import (
	"bytes"
	"reflect"
	"strings"
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

type testEvent struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	Seq  int    `json:"seq"`
}

func TestStreamDrainAndClose(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf, nil)
	for i := 0; i < 5; i++ {
		s.Emit(testEvent{V: EventSchemaVersion, Type: "tick", Seq: i})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), buf.String())
	}
	if s.Emitted() != 5 || s.Dropped() != 0 {
		t.Fatalf("emitted/dropped = %d/%d, want 5/0", s.Emitted(), s.Dropped())
	}
	if !strings.Contains(lines[0], `"type":"tick"`) || !strings.Contains(lines[0], `"v":1`) {
		t.Fatalf("unexpected event line: %s", lines[0])
	}
	// Emits after Close are silently ignored.
	s.Emit(testEvent{Type: "late"})
	if s.Emitted() != 5 {
		t.Fatalf("emit after close was written")
	}
}

// blockedWriter blocks until released, stalling the stream's sink.
type blockedWriter struct{ release chan struct{} }

func (w *blockedWriter) Write(p []byte) (int, error) {
	<-w.release
	return len(p), nil
}

// TestStreamDropsOnlyMarshalFailures pins what Dropped counts: an event that
// cannot be marshaled, and nothing else.
func TestStreamDropsOnlyMarshalFailures(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf, nil)
	for i := 0; i < 10; i++ {
		s.Emit(testEvent{Seq: i})
		if i%4 == 0 {
			s.Emit(map[string]any{"f": func() {}})
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Emitted() != 10 || s.Dropped() != 3 {
		t.Fatalf("emitted/dropped = %d/%d, want 10/3", s.Emitted(), s.Dropped())
	}
	if got := strings.Count(buf.String(), "\n"); got != 10 {
		t.Fatalf("sink holds %d line(s), want 10", got)
	}
}
