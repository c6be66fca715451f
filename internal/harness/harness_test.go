package harness

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"c11tester/internal/capi"
)

// stubTool is a deterministic capi.Tool: the outcome of an execution is a
// pure function of the seed, which is exactly the property the harness (and
// the campaign runner built on it) relies on.
type stubTool struct {
	seeds []int64
}

func (s *stubTool) Name() string { return "stub" }

func (s *stubTool) Execute(p capi.Program, seed int64) *capi.Result {
	s.seeds = append(s.seeds, seed)
	res := &capi.Result{Stats: capi.OpStats{AtomicOps: uint64(seed%7) + 1, NormalOps: 2}}
	if seed%2 == 0 {
		res.Races = append(res.Races, capi.RaceReport{LocName: "x"})
	}
	if seed%3 == 0 {
		res.AssertFailures = append(res.AssertFailures, capi.AssertFailure{Message: "boom"})
	}
	return res
}

var nopProg = capi.Program{Name: "nop", Run: func(capi.Env) {}}

func TestMeasureDetectionDeterminism(t *testing.T) {
	run := func() (Detection, []int64) {
		tool := &stubTool{}
		d := MeasureDetection(tool, nopProg, 10, 100, SignalRace)
		return d, tool.seeds
	}
	d1, seeds1 := run()
	d2, seeds2 := run()

	if d1.Runs != 10 || d1.Detected != d2.Detected || d1.Ops != d2.Ops {
		t.Fatalf("detection not deterministic: %+v vs %+v", d1, d2)
	}
	// Seeds must be seedBase+index, in order.
	for i, s := range seeds1 {
		if s != 100+int64(i) {
			t.Fatalf("seed %d = %d, want %d", i, s, 100+i)
		}
	}
	if len(seeds2) != len(seeds1) {
		t.Fatalf("seed count mismatch: %d vs %d", len(seeds2), len(seeds1))
	}
	// seeds 100..109: even seeds race → 5 detections.
	if d1.Detected != 5 {
		t.Fatalf("Detected = %d, want 5", d1.Detected)
	}
	if got := d1.Rate(); got != 50 {
		t.Fatalf("Rate = %v, want 50", got)
	}
}

func TestMeasureDetectionSignals(t *testing.T) {
	// seeds 0..5: races on 0,2,4; asserts on 0,3.
	if d := MeasureDetection(&stubTool{}, nopProg, 6, 0, SignalAssert); d.Detected != 2 {
		t.Fatalf("SignalAssert Detected = %d, want 2", d.Detected)
	}
	if d := MeasureDetection(&stubTool{}, nopProg, 6, 0, SignalAny); d.Detected != 4 {
		t.Fatalf("SignalAny Detected = %d, want 4", d.Detected)
	}
}

func TestMeasureDetectionZeroRuns(t *testing.T) {
	d := MeasureDetection(&stubTool{}, nopProg, 0, 0, SignalRace)
	if d.Rate() != 0 || d.Time != 0 {
		t.Fatalf("zero-run detection should be zero-valued: %+v", d)
	}
}

func TestMeasurePerfDeterminism(t *testing.T) {
	work := 0.0
	p1 := MeasurePerf(&stubTool{}, nopProg, 5, 7, func() float64 { work++; return work })
	p2 := MeasurePerf(&stubTool{}, nopProg, 5, 7, nil)
	if len(p1.Times) != 5 || len(p1.Work) != 5 {
		t.Fatalf("Times/Work lengths: %d/%d, want 5/5", len(p1.Times), len(p1.Work))
	}
	if p2.Work != nil {
		t.Fatalf("nil work fn must not collect Work, got %v", p2.Work)
	}
	// Ops are the last execution's stats: seed 11 → 11%7+1 = 5 atomics.
	if p1.Ops != p2.Ops || p1.Ops.AtomicOps != 5 {
		t.Fatalf("Ops not deterministic: %+v vs %+v", p1.Ops, p2.Ops)
	}
	if p1.MeanWork() != 3 {
		t.Fatalf("MeanWork = %v, want 3", p1.MeanWork())
	}
}

func TestPerfEmpty(t *testing.T) {
	var p Perf
	if p.MeanTime() != 0 || p.RSDTime() != 0 || p.MeanWork() != 0 || p.RSDWork() != 0 {
		t.Fatalf("empty Perf aggregates should be zero")
	}
}

func TestGeomean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{2, 8}, 4},
		{[]float64{1, -1}, 0}, // nonpositive values: undefined, reported as 0
		{[]float64{3, 0}, 0},
	}
	for _, c := range cases {
		if got := Geomean(c.xs); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestRSDEdgeCases(t *testing.T) {
	if got := rsd(nil); got != 0 {
		t.Errorf("rsd(empty) = %v, want 0", got)
	}
	if got := rsd([]float64{42}); got != 0 {
		t.Errorf("rsd(single) = %v, want 0", got)
	}
	if got := rsd([]float64{0, 0}); got != 0 {
		t.Errorf("rsd(zero mean) = %v, want 0", got)
	}
	// mean 10, sample stddev sqrt(2) → rsd = 10*sqrt(2) %.
	if got, want := rsd([]float64{9, 11}), 100*math.Sqrt2/10; math.Abs(got-want) > 1e-9 {
		t.Errorf("rsd([9 11]) = %v, want %v", got, want)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"bench", "rate"}}
	tb.AddRow("ms-queue", "100.0%")
	tb.AddRow("mp", "3.1%")
	got := tb.String()
	want := "" +
		"bench     rate  \n" +
		"--------  ------\n" +
		"ms-queue  100.0%\n" +
		"mp        3.1%  \n"
	if got != want {
		t.Fatalf("Table.String():\n%q\nwant:\n%q", got, want)
	}
	if !strings.HasPrefix(got, "bench") {
		t.Fatal("header missing")
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{2500 * time.Millisecond, "2.50s"},
		{time.Second, "1.00s"},
		{15 * time.Millisecond, "15.00ms"},
		{1500 * time.Microsecond, "1.50ms"},
		{900 * time.Microsecond, "900.0µs"},
		{0, "0.0µs"},
	}
	for _, c := range cases {
		if got := FmtDuration(c.d); got != c.want {
			t.Errorf("FmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestFmtOps(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{63_700_000, "63.7M"},
		{1_000_000, "1.0M"},
		{63_700, "63.7K"},
		{1_000, "1.0K"},
		{999, "999"},
		{0, "0"},
	}
	for _, c := range cases {
		if got := FmtOps(c.n); got != c.want {
			t.Errorf("FmtOps(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}

func TestSummariesJSON(t *testing.T) {
	d := Detection{Runs: 4, Detected: 1, Time: time.Millisecond,
		Ops: capi.OpStats{AtomicOps: 10, NormalOps: 3}}
	b, err := json.Marshal(d.Summary())
	if err != nil {
		t.Fatal(err)
	}
	var ds DetectionSummary
	if err := json.Unmarshal(b, &ds); err != nil {
		t.Fatal(err)
	}
	if ds.RatePct != 25 || ds.MeanTimeNS != int64(time.Millisecond) || ds.AtomicOps != 10 {
		t.Fatalf("round-tripped DetectionSummary = %+v", ds)
	}

	p := Perf{Times: []time.Duration{time.Millisecond, 3 * time.Millisecond},
		Ops: capi.OpStats{AtomicOps: 7}}
	ps := p.Summary()
	if ps.Runs != 2 || ps.MeanTimeNS != int64(2*time.Millisecond) || ps.AtomicOps != 7 {
		t.Fatalf("TimingSummary = %+v", ps)
	}
}

func TestReproCommand(t *testing.T) {
	r := Repro{Tool: "c11tester", Program: "ms-queue", Seed: 42}
	want := "go run ./cmd/c11tester -tools c11tester -bench ms-queue -litmus none -runs 1 -seed 42 -json ''"
	if got := r.Command(); got != want {
		t.Fatalf("Command() = %q, want %q", got, want)
	}
	l := Repro{Tool: "tsan11", Program: "CoRR+opposed", Seed: 7, Litmus: true}
	want = "go run ./cmd/c11tester -tools tsan11 -bench none -litmus CoRR+opposed -runs 1 -seed 7 -json ''"
	if got := l.Command(); got != want {
		t.Fatalf("Command() = %q, want %q", got, want)
	}
}

func TestExecsPerSec(t *testing.T) {
	if got := ExecsPerSec(100, 2*time.Second); got != 50 {
		t.Fatalf("ExecsPerSec = %v, want 50", got)
	}
	if got := ExecsPerSec(100, 0); got != 0 {
		t.Fatalf("ExecsPerSec(zero wall) = %v, want 0", got)
	}
}
