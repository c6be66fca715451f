package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

// anomalies is the trigger set of the anomaly tests: every trigger but hit
// and all, which would name every execution.
var anomalies = Of(TriggerInfeasible, TriggerForbidden, TriggerNewRace, TriggerSlowSteps)

// fillRing pushes n uneventful digests with the given step count so the slow
// trigger arms.
func fillRing(f *FlightRecorder, n int, steps uint64) {
	for i := 0; i < n; i++ {
		if trig := f.Check(ExecDigest{Index: i, Steps: steps}); trig != TriggerNone {
			panic(fmt.Sprintf("baseline digest %d triggered %s", i, trig))
		}
	}
}

// TestFlightRecorderTriggerPriority pins the order in which one execution's
// triggers are named — infeasible > forbidden > new_race > hit > all >
// slow_steps — and that a recorder names only triggers of its set.
func TestFlightRecorderTriggerPriority(t *testing.T) {
	every := Of(TriggerInfeasible, TriggerForbidden, TriggerNewRace, TriggerHit, TriggerAll, TriggerSlowSteps)
	f := NewFlightRecorder(FlightRecorderConfig{On: every})
	d := ExecDigest{Infeasible: true, Forbidden: true, NewRace: true, Hit: true, Steps: 1 << 40}
	for _, want := range []Trigger{TriggerInfeasible, TriggerForbidden, TriggerNewRace, TriggerHit, TriggerAll} {
		if trig := f.Check(d); trig != want {
			t.Fatalf("digest %+v: trigger = %s, want %s", d, trig, want)
		}
		switch want {
		case TriggerInfeasible:
			d.Infeasible = false
		case TriggerForbidden:
			d.Forbidden = false
		case TriggerNewRace:
			d.NewRace = false
		case TriggerHit:
			d.Hit = false
		}
	}
	// Without all, an uneventful outlier is slow.
	f = NewFlightRecorder(FlightRecorderConfig{On: every &^ Of(TriggerAll), Ring: 4})
	fillRing(f, 4, 100)
	if trig := f.Check(ExecDigest{Steps: 1000}); trig != TriggerSlowSteps {
		t.Fatalf("outlier trigger = %s, want slow_steps", trig)
	}
	// A trigger outside the set yields to the next one in it; an aborted
	// execution fires only infeasible, having no trace to record.
	f = NewFlightRecorder(FlightRecorderConfig{On: Of(TriggerHit, TriggerAll)})
	if trig := f.Check(ExecDigest{Forbidden: true, NewRace: true, Hit: true}); trig != TriggerHit {
		t.Fatalf("trigger = %s, want hit when forbidden and new_race are off", trig)
	}
	if trig := f.Check(ExecDigest{Infeasible: true}); trig != TriggerNone {
		t.Fatalf("aborted execution fired %s without infeasible in the set", trig)
	}
	if trig := NewFlightRecorder(FlightRecorderConfig{}).Check(d); trig != TriggerNone {
		t.Fatalf("empty set fired %s", trig)
	}
}

// TestParseTriggers pins the -record-on syntax: names round-trip through
// the set's String in priority order, and an unknown name is refused.
func TestParseTriggers(t *testing.T) {
	s, err := ParseTriggers("slow_steps, new_race,infeasible,forbidden")
	if err != nil {
		t.Fatal(err)
	}
	if s != anomalies {
		t.Fatalf("parsed %s, want %s", s, anomalies)
	}
	if got, want := s.String(), "infeasible,forbidden,new_race,slow_steps"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if back, err := ParseTriggers(s.String()); err != nil || back != s {
		t.Fatalf("round trip = %s, %v", back, err)
	}
	for _, bad := range []string{"", "hit,", "slow_ns", "capture"} {
		if _, err := ParseTriggers(bad); err == nil {
			t.Errorf("ParseTriggers(%q) accepted", bad)
		}
	}
}

func TestFlightRecorderSlowStepsArming(t *testing.T) {
	f := NewFlightRecorder(FlightRecorderConfig{On: Of(TriggerSlowSteps), Ring: 8})
	// Before the recorder holds min(Ring, 16) = 8 digests, even extreme
	// outliers never trigger slow.
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

// TestFlightRecorderSlowStepsFiresInUnit pins the arming rule on a ring
// larger than a campaign unit: with the default 64-digest ring, a 25-digest
// unit arms the slow trigger after 16 digests, so a step outlier at index
// 20 fires against the maximum of the 20 digests held.
func TestFlightRecorderSlowStepsFiresInUnit(t *testing.T) {
	f := NewFlightRecorder(FlightRecorderConfig{On: anomalies})
	fired := map[int]Trigger{}
	for i := 0; i < 25; i++ {
		steps := uint64(100 + i%3)
		if i == 20 {
			steps = 500
		}
		if trig := f.Check(ExecDigest{Index: i, Steps: steps}); trig != TriggerNone {
			fired[i] = trig
		}
	}
	if len(fired) != 1 || fired[20] != TriggerSlowSteps {
		t.Fatalf("triggers = %v, want only slow_steps at index 20", fired)
	}
	// Before the 16th digest nothing slow fires, however large.
	f = NewFlightRecorder(FlightRecorderConfig{On: anomalies})
	for i := 0; i < 16; i++ {
		if trig := f.Check(ExecDigest{Index: i, Steps: uint64(1000 * (i + 1))}); trig != TriggerNone {
			t.Fatalf("slow trigger fired at digest %d, before the recorder armed: %s", i, trig)
		}
	}
}

// TestFlightRecorderReset pins that a reset recorder decides exactly as a
// newly constructed one: the digests and slow grants of the previous unit
// are forgotten, and the reset allocates nothing. The previous unit's
// schedules are far longer, so a trigger that still saw them would stay
// silent.
func TestFlightRecorderReset(t *testing.T) {
	stream := func(f *FlightRecorder, base uint64) []Trigger {
		var out []Trigger
		for i := 0; i < 30; i++ {
			out = append(out, f.Check(ExecDigest{Index: i, Steps: base + uint64(10*i),
				NewRace: i%11 == 0}))
		}
		return out
	}
	fresh := stream(NewFlightRecorder(FlightRecorderConfig{On: anomalies}), 100)
	if !slices.Contains(fresh, TriggerSlowSteps) {
		t.Fatalf("the stream fires no slow trigger: %v", fresh)
	}
	f := NewFlightRecorder(FlightRecorderConfig{On: anomalies})
	stream(f, 10000)
	if n := testing.AllocsPerRun(10, f.Reset); n != 0 {
		t.Fatalf("Reset allocates %.1f objects, want 0", n)
	}
	if got := stream(f, 100); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("reset recorder triggers %v, fresh recorder %v", got, fresh)
	}
}

// TestFlightRecorderCaps pins that slow_steps is the one capped trigger:
// past MaxSlow grants further outliers are suppressed, while the other
// triggers keep firing on every execution they name.
func TestFlightRecorderCaps(t *testing.T) {
	f := NewFlightRecorder(FlightRecorderConfig{On: anomalies, Ring: 4, MaxSlow: 1})
	fillRing(f, 4, 100)
	if trig := f.Check(ExecDigest{Steps: 1000}); trig != TriggerSlowSteps {
		t.Fatalf("first outlier = %s", trig)
	}
	// MaxSlow reached: further slow outliers are suppressed...
	if trig := f.Check(ExecDigest{Steps: 100000}); trig != TriggerNone {
		t.Fatalf("slow grant beyond MaxSlow: %s", trig)
	}
	// ...but the other triggers are uncapped.
	for i := 0; i < 40; i++ {
		if trig := f.Check(ExecDigest{NewRace: true}); trig != TriggerNewRace {
			t.Fatalf("new-race trigger %d = %s", i, trig)
		}
		if trig := f.Check(ExecDigest{Infeasible: true}); trig != TriggerInfeasible {
			t.Fatalf("infeasible trigger %d = %s", i, trig)
		}
	}
}

// TestFlightRecorderCheckZeroAlloc pins the armed recorder's per-execution
// cost at zero allocations — the property that lets the campaign hot path
// stay at 0 B / 0 obj with -record enabled.
func TestFlightRecorderCheckZeroAlloc(t *testing.T) {
	f := NewFlightRecorder(FlightRecorderConfig{On: anomalies})
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		f.Check(ExecDigest{Index: i, Steps: uint64(100 + i%7)})
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
