package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fillRing pushes n uneventful digests with the given step count so the slow
// triggers arm.
func fillRing(f *FlightRecorder, n int, steps uint64) {
	for i := 0; i < n; i++ {
		if trig := f.Check(ExecDigest{Index: i, Steps: steps, NS: int64(steps)}); trig != TriggerNone {
			panic(fmt.Sprintf("baseline digest %d triggered %s", i, trig))
		}
	}
}

func TestFlightRecorderTriggerPriority(t *testing.T) {
	f := NewFlightRecorder(FlightRecorderConfig{})
	d := ExecDigest{Infeasible: true, Forbidden: true, NewRace: true, Steps: 1 << 40}
	if trig := f.Check(d); trig != TriggerInfeasible {
		t.Fatalf("trigger = %s, want infeasible first", trig)
	}
	d.Infeasible = false
	if trig := f.Check(d); trig != TriggerForbidden {
		t.Fatalf("trigger = %s, want forbidden over new race", trig)
	}
	d.Forbidden = false
	if trig := f.Check(d); trig != TriggerNewRace {
		t.Fatalf("trigger = %s, want new race", trig)
	}
}

func TestFlightRecorderSlowStepsArming(t *testing.T) {
	f := NewFlightRecorder(FlightRecorderConfig{Ring: 8})
	// Before the ring fills, even extreme outliers never trigger slow.
	for i := 0; i < 7; i++ {
		if trig := f.Check(ExecDigest{Index: i, Steps: uint64(1000 * (i + 1))}); trig != TriggerNone {
			t.Fatalf("slow trigger fired at digest %d with a non-full ring: %s", i, trig)
		}
	}
	if trig := f.Check(ExecDigest{Index: 7, Steps: 10}); trig != TriggerNone {
		t.Fatalf("trigger = %s at ring-filling digest", trig)
	}
	// Ring full. Equal-to-max must NOT trigger (strictly greater).
	if trig := f.Check(ExecDigest{Index: 8, Steps: 7000}); trig != TriggerNone {
		t.Fatalf("steps equal to trailing max triggered: %s", trig)
	}
	if trig := f.Check(ExecDigest{Index: 9, Steps: 7001}); trig != TriggerSlowSteps {
		t.Fatalf("trigger = %s, want slow_steps for a strict outlier", trig)
	}
}

func TestFlightRecorderSlowNSOptIn(t *testing.T) {
	// Wall-clock outliers are ignored unless SlowNS is armed.
	f := NewFlightRecorder(FlightRecorderConfig{Ring: 4})
	fillRing(f, 4, 100)
	if trig := f.Check(ExecDigest{Steps: 100, NS: 1 << 40}); trig != TriggerNone {
		t.Fatalf("wall-clock outlier triggered %s without SlowNS", trig)
	}
	f = NewFlightRecorder(FlightRecorderConfig{Ring: 4, SlowNS: true})
	fillRing(f, 4, 100)
	if trig := f.Check(ExecDigest{Steps: 100, NS: 1 << 40}); trig != TriggerSlowNS {
		t.Fatalf("trigger = %s, want slow_ns when armed", trig)
	}
}

func TestFlightRecorderCaps(t *testing.T) {
	f := NewFlightRecorder(FlightRecorderConfig{Ring: 4, MaxSlow: 1, MaxCaptures: 3})
	fillRing(f, 4, 100)
	if trig := f.Check(ExecDigest{Steps: 1000}); trig != TriggerSlowSteps {
		t.Fatalf("first outlier = %s", trig)
	}
	// MaxSlow reached: further slow outliers are suppressed...
	if trig := f.Check(ExecDigest{Steps: 100000}); trig != TriggerNone {
		t.Fatalf("slow capture beyond MaxSlow granted: %s", trig)
	}
	// ...but anomaly triggers still fire until MaxCaptures.
	if trig := f.Check(ExecDigest{NewRace: true}); trig != TriggerNewRace {
		t.Fatalf("new-race trigger = %s after MaxSlow", trig)
	}
	if trig := f.Check(ExecDigest{Infeasible: true}); trig != TriggerInfeasible {
		t.Fatalf("infeasible trigger = %s", trig)
	}
	if f.Captures() != 3 {
		t.Fatalf("captures = %d, want 3", f.Captures())
	}
	// MaxCaptures reached: everything is suppressed now.
	if trig := f.Check(ExecDigest{Infeasible: true}); trig != TriggerNone {
		t.Fatalf("capture beyond MaxCaptures granted: %s", trig)
	}
}

// TestFlightRecorderCheckZeroAlloc pins the armed recorder's per-execution
// cost at zero allocations — the property that lets the campaign hot path
// stay at 0 B / 0 obj with -capture enabled.
func TestFlightRecorderCheckZeroAlloc(t *testing.T) {
	f := NewFlightRecorder(FlightRecorderConfig{})
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		f.Check(ExecDigest{Index: i, Steps: uint64(100 + i%7), NS: int64(i)})
		i++
	}); n != 0 {
		t.Fatalf("Check allocates %.1f objects per call, want 0", n)
	}
}

func TestManifestSortAndRoundTrip(t *testing.T) {
	m := NewManifest()
	m.Captures = []CaptureRecord{
		{Tool: "tsan11", Program: "b", Seed: 5, Trigger: "new_race"},
		{Tool: "c11tester", Program: "MP", Litmus: true, Seed: 3, Trigger: "forbidden"},
		{Tool: "c11tester", Program: "queue", Seed: 9, Trigger: "slow_steps", File: "t.json"},
		{Tool: "c11tester", Program: "queue", Seed: 2, Trigger: "new_race", RaceKeys: []string{"k1", "k2"}},
	}
	path := filepath.Join(t.TempDir(), ManifestFileName)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range rt.Captures {
		got = append(got, fmt.Sprintf("%s/%s/%d", c.Tool, c.Program, c.Seed))
	}
	want := []string{"c11tester/queue/2", "c11tester/queue/9", "c11tester/MP/3", "tsan11/b/5"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("canonical order = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(rt.Captures[0].RaceKeys, []string{"k1", "k2"}) {
		t.Fatalf("race keys did not round-trip: %+v", rt.Captures[0])
	}

	// Schema validation: wrong name and future version are rejected.
	bad := filepath.Join(t.TempDir(), "bad.json")
	for _, m := range []*Manifest{
		{Schema: "other/schema", SchemaVersion: 1},
		{Schema: ManifestSchemaName, SchemaVersion: ManifestSchemaVersion + 1},
	} {
		data, _ := json.Marshal(m)
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(bad); err == nil {
			t.Fatalf("manifest %+v accepted, want schema error", m)
		}
	}
}

// TestStreamBackpressureExactAccounting fills the bounded channel against a
// stalled drainer and checks the contract precisely: Emit never blocks, the
// drop counter is exact (emitted + dropped == offered), and the drained
// output is a prefix-consistent subsequence of what was offered — events
// survive in emission order, and only a contiguous set of later events is
// shed.
func TestStreamBackpressureExactAccounting(t *testing.T) {
	const depth, offered = 4, 100
	w := &blockedWriter{release: make(chan struct{})}
	var buf bytes.Buffer
	s := NewStream(writerTee{w, &buf}, nil, depth)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < offered; i++ {
			s.Emit(testEvent{Seq: i})
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Emit blocked against a stalled drainer")
	}
	if got := s.Emitted() + s.Dropped(); got != offered {
		t.Fatalf("emitted(%d) + dropped(%d) = %d, want exactly %d",
			s.Emitted(), s.Dropped(), got, offered)
	}
	if s.Dropped() == 0 {
		t.Fatalf("depth-%d channel absorbed %d events without dropping", depth, offered)
	}
	close(w.release)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Every line that made it out is intact JSON, and the Seq values are
	// strictly increasing: a subsequence of the offered stream, no
	// reordering, no duplication, no torn lines.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if uint64(len(lines)) != s.Emitted() {
		t.Fatalf("drained %d lines, emitted counter says %d", len(lines), s.Emitted())
	}
	prev := -1
	for _, line := range lines {
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
		if ev.Seq <= prev {
			t.Fatalf("sequence not strictly increasing: %d after %d", ev.Seq, prev)
		}
		prev = ev.Seq
	}
	// The serial emitter + depth-d channel guarantee the first d events are
	// never shed (they were queued before anything could drop).
	var first testEvent
	if json.Unmarshal([]byte(lines[0]), &first); first.Seq != 0 {
		t.Fatalf("first drained event Seq = %d, want 0 (prefix shed)", first.Seq)
	}
}

// writerTee lets the blockedWriter gate the drainer while the bytes still
// land in a buffer for inspection.
type writerTee struct {
	gate *blockedWriter
	buf  *bytes.Buffer
}

func (w writerTee) Write(p []byte) (int, error) {
	if _, err := w.gate.Write(p); err != nil {
		return 0, err
	}
	return w.buf.Write(p)
}

// TestHistogramSnapshotMergeEdgeCases covers the quantile corners of Merge:
// merging into/from empties, all mass in one bucket, and associativity of
// merge-of-merges.
func TestHistogramSnapshotMergeEdgeCases(t *testing.T) {
	build := func(vals ...uint64) *HistogramSnapshot {
		h := Histogram{Base: 1}
		for _, v := range vals {
			h.Observe(v)
		}
		return h.Snapshot()
	}

	t.Run("empty into empty", func(t *testing.T) {
		s := &HistogramSnapshot{}
		s.Merge(&HistogramSnapshot{})
		s.Merge(nil)
		if s.Count != 0 || s.P50 != 0 || s.P99 != 0 {
			t.Fatalf("empty merge produced mass: %+v", s)
		}
	})
	t.Run("empty into populated", func(t *testing.T) {
		s := build(4, 8, 16)
		want := *build(4, 8, 16)
		s.Merge(&HistogramSnapshot{})
		if s.Count != want.Count || s.P50 != want.P50 || s.P99 != want.P99 {
			t.Fatalf("merging an empty snapshot moved quantiles: %+v vs %+v", s, want)
		}
	})
	t.Run("populated into empty", func(t *testing.T) {
		s := &HistogramSnapshot{}
		s.Merge(build(4, 8, 16))
		if s.Count != 3 || s.P50 == 0 {
			t.Fatalf("merge into zero value lost mass: %+v", s)
		}
	})
	t.Run("single bucket mass", func(t *testing.T) {
		// All observations land in one bucket: the merged quantiles must
		// match a direct observation of the same mass, and stay within the
		// bucket's bound.
		s := build(3, 3, 3, 3)
		s.Merge(build(3, 3, 3, 3))
		if s.Count != 8 {
			t.Fatalf("count = %d, want 8", s.Count)
		}
		if want := build(3, 3, 3, 3, 3, 3, 3, 3); !reflect.DeepEqual(s, want) {
			t.Fatalf("merged single-bucket snapshot %+v != direct %+v", s, want)
		}
		if s.P50 > s.P99 || s.P99 > 4 {
			t.Fatalf("single-bucket quantiles p50=%d p99=%d escape the bucket", s.P50, s.P99)
		}
	})
	t.Run("merge of merges associativity", func(t *testing.T) {
		a, b, c := []uint64{1, 2, 300}, []uint64{4, 500, 6}, []uint64{700, 8, 9}
		left := build(a...)
		left.Merge(build(b...))
		left.Merge(build(c...))
		bc := build(b...)
		bc.Merge(build(c...))
		right := build(a...)
		right.Merge(bc)
		if !reflect.DeepEqual(left, right) {
			t.Fatalf("(a+b)+c != a+(b+c):\n%+v\n%+v", left, right)
		}
		all := append(append(append([]uint64{}, a...), b...), c...)
		if direct := build(all...); !reflect.DeepEqual(left, direct) {
			t.Fatalf("merged != directly observed:\n%+v\n%+v", left, direct)
		}
	})
}
