// snapshot.go makes converge trackers checkpointable. A tracker's verdict is
// a pure function of its cell's observation stream in index order, so a
// serialized snapshot taken at a deterministic wave barrier, restored into a
// fresh tracker, must continue the stream exactly as the original would have
// — that equivalence is what lets a resumed campaign reproduce the budget
// decisions (and therefore the artifact bytes) of an uninterrupted one.
package explore

import "sort"

// WindowObsState is one trailing-window entry of a TrackerSnapshot, in
// oldest-to-newest order.
type WindowObsState struct {
	Detected bool   `json:"detected,omitempty"`
	Outcome  string `json:"outcome,omitempty"`
	NewInfo  bool   `json:"new_info,omitempty"`
}

// TrackerSnapshot is the serializable full state of a converge tracker:
// everything Observe has folded in, in a canonical encoding (race keys
// sorted, window oldest→newest) so identical streams snapshot to identical
// bytes. A nil snapshot denotes a stateless tracker (Uniform's).
type TrackerSnapshot struct {
	N        int              `json:"n"`
	Detected int              `json:"detected"`
	RaceKeys []string         `json:"race_keys,omitempty"`
	Outcomes map[string]int   `json:"outcomes,omitempty"`
	Window   []WindowObsState `json:"window,omitempty"`
}

// Snapshotter is the optional Tracker extension for trackers whose state can
// be checkpointed and restored. Converge trackers implement it; Uniform's
// never-converging tracker is stateless and snapshots to nil.
type Snapshotter interface {
	// Snapshot serializes the tracker's state; nil means "stateless".
	Snapshot() *TrackerSnapshot
	// Restore replaces the tracker's state with the snapshot's. Restoring a
	// nil snapshot resets to the fresh state.
	Restore(*TrackerSnapshot)
}

// Snapshot implements Snapshotter.
func (neverConverged) Snapshot() *TrackerSnapshot { return nil }

// Restore implements Snapshotter.
func (neverConverged) Restore(*TrackerSnapshot) {}

// Snapshot implements Snapshotter. The window is emitted oldest→newest
// regardless of the internal ring cursor, so the encoding is canonical.
func (t *convergeTracker) Snapshot() *TrackerSnapshot {
	s := &TrackerSnapshot{N: t.n, Detected: t.detected}
	if len(t.raceSeen) > 0 {
		s.RaceKeys = make([]string, 0, len(t.raceSeen))
		for k := range t.raceSeen {
			s.RaceKeys = append(s.RaceKeys, k)
		}
		sort.Strings(s.RaceKeys)
	}
	if len(t.outcomes) > 0 {
		s.Outcomes = make(map[string]int, len(t.outcomes))
		for k, v := range t.outcomes {
			s.Outcomes[k] = v
		}
	}
	ordered := t.ring
	if len(t.ring) == t.window && t.next != 0 {
		ordered = append(append([]windowObs{}, t.ring[t.next:]...), t.ring[:t.next]...)
	}
	for _, w := range ordered {
		s.Window = append(s.Window, WindowObsState{Detected: w.detected, Outcome: w.outcome, NewInfo: w.newInfo})
	}
	return s
}

// Restore implements Snapshotter. The restored ring holds the snapshot's
// window oldest-first with the cursor at 0, which is behaviourally identical
// to the original ring: the next Observe overwrites the oldest entry either
// way, and window analysis is order-insensitive.
func (t *convergeTracker) Restore(s *TrackerSnapshot) {
	t.n, t.detected = 0, 0
	t.raceSeen = map[string]bool{}
	t.outcomes = map[string]int{}
	t.ring = nil
	t.next = 0
	if s == nil {
		return
	}
	t.n, t.detected = s.N, s.Detected
	for _, k := range s.RaceKeys {
		t.raceSeen[k] = true
	}
	for k, v := range s.Outcomes {
		t.outcomes[k] = v
	}
	for _, w := range s.Window {
		t.ring = append(t.ring, windowObs{detected: w.Detected, outcome: w.Outcome, newInfo: w.NewInfo})
	}
}
