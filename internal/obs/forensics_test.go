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
	f := NewFlightRecorder(every)
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
	f = NewFlightRecorder(every &^ Of(TriggerAll))
	fillRing(f, slowArm, 100)
	if trig := f.Check(ExecDigest{Steps: 1000}); trig != TriggerSlowSteps {
		t.Fatalf("outlier trigger = %s, want slow_steps", trig)
	}
	// A trigger outside the set yields to the next one in it; an aborted
	// execution fires only infeasible, having no trace to record.
	f = NewFlightRecorder(Of(TriggerHit, TriggerAll))
	if trig := f.Check(ExecDigest{Forbidden: true, NewRace: true, Hit: true}); trig != TriggerHit {
		t.Fatalf("trigger = %s, want hit when forbidden and new_race are off", trig)
	}
	if trig := f.Check(ExecDigest{Infeasible: true}); trig != TriggerNone {
		t.Fatalf("aborted execution fired %s without infeasible in the set", trig)
	}
	if trig := NewFlightRecorder(0).Check(d); trig != TriggerNone {
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

// TestFlightRecorderSlowStepsArming pins the slow trigger's window: it arms
// at the slowArm-th digest, fires only on a strict outlier against the
// digests held, and forgets a digest once ringSize later ones have
// overwritten it.
func TestFlightRecorderSlowStepsArming(t *testing.T) {
	f := NewFlightRecorder(Of(TriggerSlowSteps))
	// Before the recorder holds slowArm digests, even extreme outliers never
	// trigger slow.
	for i := 0; i < slowArm-1; i++ {
		if trig := f.Check(ExecDigest{Index: i, Steps: uint64(1000 * (i + 1))}); trig != TriggerNone {
			t.Fatalf("slow trigger fired at digest %d before the recorder armed: %s", i, trig)
		}
	}
	if trig := f.Check(ExecDigest{Index: slowArm - 1, Steps: 10}); trig != TriggerNone {
		t.Fatalf("trigger = %s at the arming digest", trig)
	}
	// Armed. Equal-to-max must NOT trigger (strictly greater).
	top := uint64(1000 * (slowArm - 1))
	if trig := f.Check(ExecDigest{Index: slowArm, Steps: top}); trig != TriggerNone {
		t.Fatalf("steps equal to trailing max triggered: %s", trig)
	}
	if trig := f.Check(ExecDigest{Index: slowArm + 1, Steps: top + 1}); trig != TriggerSlowSteps {
		t.Fatalf("trigger = %s, want slow_steps for a strict outlier", trig)
	}

	// Wrap-around: a long schedule stops counting once ringSize later
	// digests have overwritten it.
	f = NewFlightRecorder(Of(TriggerSlowSteps))
	f.Check(ExecDigest{Index: 0, Steps: 5000})
	fillRing(f, ringSize-1, 100)
	if trig := f.Check(ExecDigest{Index: ringSize, Steps: 200}); trig != TriggerNone {
		t.Fatalf("trigger = %s while the 5000-step digest is still held", trig)
	}
	if trig := f.Check(ExecDigest{Index: ringSize + 1, Steps: 300}); trig != TriggerSlowSteps {
		t.Fatalf("trigger = %s, want slow_steps once the 5000-step digest left the ring", trig)
	}
}

// TestFlightRecorderSlowStepsFiresInUnit pins the arming rule on a ring
// larger than a campaign unit: with the 64-digest ring, a 25-digest
// unit arms the slow trigger after 16 digests, so a step outlier at index
// 20 fires against the maximum of the 20 digests held.
func TestFlightRecorderSlowStepsFiresInUnit(t *testing.T) {
	f := NewFlightRecorder(anomalies)
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
	f = NewFlightRecorder(anomalies)
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
	fresh := stream(NewFlightRecorder(anomalies), 100)
	if !slices.Contains(fresh, TriggerSlowSteps) {
		t.Fatalf("the stream fires no slow trigger: %v", fresh)
	}
	f := NewFlightRecorder(anomalies)
	stream(f, 10000)
	if n := testing.AllocsPerRun(10, f.Reset); n != 0 {
		t.Fatalf("Reset allocates %.1f objects, want 0", n)
	}
	if got := stream(f, 100); !reflect.DeepEqual(got, fresh) {
		t.Fatalf("reset recorder triggers %v, fresh recorder %v", got, fresh)
	}
}

// TestFlightRecorderCaps pins that slow_steps is the one capped trigger:
// past maxSlow grants further outliers are suppressed, while the other
// triggers keep firing on every execution they name.
func TestFlightRecorderCaps(t *testing.T) {
	f := NewFlightRecorder(anomalies)
	fillRing(f, slowArm, 100)
	for i := 0; i < maxSlow; i++ {
		if trig := f.Check(ExecDigest{Steps: uint64(1000 * (i + 1))}); trig != TriggerSlowSteps {
			t.Fatalf("outlier %d = %s", i, trig)
		}
	}
	// maxSlow reached: further slow outliers are suppressed...
	if trig := f.Check(ExecDigest{Steps: 100000}); trig != TriggerNone {
		t.Fatalf("slow grant beyond maxSlow: %s", trig)
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
	f := NewFlightRecorder(anomalies)
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
