package explore

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// syntheticObs builds a deterministic observation stream with enough variety
// to exercise every tracker statistic: detection flips, fresh and repeated
// race keys, and a drifting outcome histogram.
func syntheticObs(n int) []Obs {
	var obs []Obs
	for i := 0; i < n; i++ {
		o := Obs{Detected: i%3 == 0, Outcome: fmt.Sprintf("out%d", i%4)}
		if i%5 == 0 {
			o.RaceKeys = []string{fmt.Sprintf("race%d", i%7)}
		}
		obs = append(obs, o)
	}
	return obs
}

// TestSnapshotRestoreContinuesIdentically is the checkpoint/resume contract
// at tracker granularity: snapshot a converge tracker at every prefix of an
// observation stream, restore into a fresh tracker, feed both the remaining
// stream, and their verdicts and snapshots (window contents included) must
// agree step for step.
func TestSnapshotRestoreContinuesIdentically(t *testing.T) {
	pol := Converge{Epsilon: 0.5} // L = 6
	stream := syntheticObs(40)
	for cut := 0; cut <= len(stream); cut++ {
		orig := pol.NewTracker()
		for _, o := range stream[:cut] {
			orig.Observe(o)
		}
		snap := orig.Snapshot()

		// The snapshot must survive serialization: a checkpoint round-trips
		// it through JSON.
		data, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		var decoded *TrackerSnapshot
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatal(err)
		}

		restored := pol.NewTracker()
		restored.Restore(decoded)
		for i, o := range stream[cut:] {
			orig.Observe(o)
			restored.Observe(o)
			if orig.Converged() != restored.Converged() {
				t.Fatalf("cut %d: verdicts diverge %d step(s) after restore", cut, i+1)
			}
			so := orig.Snapshot()
			sr := restored.Snapshot()
			if !reflect.DeepEqual(so, sr) {
				t.Fatalf("cut %d, step %d: snapshot diverged:\norig:     %+v\nrestored: %+v", cut, i+1, so, sr)
			}
		}
	}
}

// TestSnapshotCanonicalEncoding pins that identical observation streams
// snapshot to identical bytes regardless of the ring cursor position —
// checkpoints of equivalent campaigns must be comparable bytewise.
func TestSnapshotCanonicalEncoding(t *testing.T) {
	pol := Converge{Epsilon: 0.75} // L = 4
	stream := syntheticObs(11)     // 11 % L != 0: the ring cursor sits mid-ring

	direct := pol.NewTracker()
	for _, o := range stream {
		direct.Observe(o)
	}
	// Same stream via a restore at an awkward cut: the ring is rebuilt with
	// cursor 0 but must encode the same window.
	half := pol.NewTracker()
	for _, o := range stream[:7] {
		half.Observe(o)
	}
	resumed := pol.NewTracker()
	resumed.Restore(half.Snapshot())
	for _, o := range stream[7:] {
		resumed.Observe(o)
	}

	a, _ := json.Marshal(direct.Snapshot())
	b, _ := json.Marshal(resumed.Snapshot())
	if string(a) != string(b) {
		t.Fatalf("snapshots of the same stream differ:\ndirect:  %s\nresumed: %s", a, b)
	}
}
