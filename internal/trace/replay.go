package trace

import (
	"fmt"
	"reflect"
	"sort"

	"c11tester/internal/capi"
	"c11tester/internal/core"
)

// Subject is everything needed to re-execute a trace: a freshly built
// engine of the recorded tool and the recorded program. Reset is called
// before each execution (litmus programs reset their outcome cell) and
// Outcome is read after it; both may be nil.
type Subject struct {
	Engine  *core.Engine
	Prog    capi.Program
	Reset   func()
	Outcome func() string
}

// ReplayResult is the observable digest of one replayed execution.
type ReplayResult struct {
	RaceKeys       []string
	Outcome        string
	FinalValues    map[string]uint64
	Deadlocked     bool
	Truncated      bool
	AssertFailures int

	// Diverged is the first schedule divergence, "" for an exact replay.
	Diverged string
	// Effective is the schedule actually taken, fallbacks included.
	Effective Schedule
	// Events is the replayed event payload when the model provides one.
	Events []Event

	// Result is the raw execution result.
	Result *capi.Result
}

// Replay re-drives tr's recorded schedule through s and returns the digest
// of the replayed execution. Use tr.Verify on the result to check that the
// replay reproduced the recorded execution exactly.
func Replay(tr *Trace, s Subject) (*ReplayResult, error) {
	eng := s.Engine
	rp := NewReplayer(tr.Schedule)
	eng.SetStrategy(rp)
	eng.SetTrace(true)
	return replayOnce(tr, s, eng, rp)
}

// replayOnce runs one execution with the replayer already interposed and
// collects the digest. The engine state it reads is only valid until the
// next Execute, so recording of the minimized trace also goes through here.
func replayOnce(tr *Trace, s Subject, eng *core.Engine, rp *Replayer) (*ReplayResult, error) {
	if s.Reset != nil {
		s.Reset()
	}
	res := eng.Execute(s.Prog, tr.Seed)
	if res.EngineError != nil {
		// The engine aborted mid-execution (core.InfeasibleError); the model
		// state behind it is half-unwound, so recording or verifying against
		// it would misdiagnose the failure. Surface it as what it is.
		return nil, fmt.Errorf("trace: replay aborted by the engine: %w", res.EngineError)
	}
	rr := &ReplayResult{
		RaceKeys:       raceKeys(res),
		FinalValues:    finalValues(eng),
		Deadlocked:     res.Deadlocked,
		Truncated:      res.Truncated,
		AssertFailures: len(res.AssertFailures),
		Diverged:       rp.Diverged(),
		Effective:      rp.Effective(),
		Result:         res,
	}
	if s.Outcome != nil {
		rr.Outcome = s.Outcome()
	}
	if _, ok := eng.Model().(core.MOProvider); ok {
		// Serialize the replayed events through the same path as Record, so
		// Verify can compare them field for field.
		rt, err := Record(eng, res, rr.Effective, Meta{
			Tool: tr.Tool, Program: tr.Program, Litmus: tr.Litmus,
			Seed: tr.Seed, Outcome: rr.Outcome,
		})
		if err != nil {
			return nil, err
		}
		rr.Events = rt.Events
	}
	return rr, nil
}

// Verify checks that a replay reproduced the recorded execution: no schedule
// divergence, the same schedule consumed in full, and byte-identical race
// keys, outcome, final values, termination flags, and (when both sides carry
// them) event payloads. It returns nil on an exact reproduction.
func (tr *Trace) Verify(rr *ReplayResult) error {
	if rr.Diverged != "" {
		return fmt.Errorf("replay diverged: %s", rr.Diverged)
	}
	if !reflect.DeepEqual(normalizeSchedule(rr.Effective), normalizeSchedule(tr.Schedule)) {
		return fmt.Errorf("replay consumed schedule (%d thread, %d index choices) != recorded (%d, %d)",
			len(rr.Effective.Threads), len(rr.Effective.Indices),
			len(tr.Schedule.Threads), len(tr.Schedule.Indices))
	}
	if !equalStrings(rr.RaceKeys, tr.RaceKeys) {
		return fmt.Errorf("replay race keys %v != recorded %v", rr.RaceKeys, tr.RaceKeys)
	}
	if rr.Outcome != tr.Outcome {
		return fmt.Errorf("replay outcome %q != recorded %q", rr.Outcome, tr.Outcome)
	}
	if !equalValues(rr.FinalValues, tr.FinalValues) {
		return fmt.Errorf("replay final values differ: %v != %v", rr.FinalValues, tr.FinalValues)
	}
	if rr.Deadlocked != tr.Deadlocked || rr.Truncated != tr.Truncated {
		return fmt.Errorf("replay termination (deadlocked=%v truncated=%v) != recorded (%v, %v)",
			rr.Deadlocked, rr.Truncated, tr.Deadlocked, tr.Truncated)
	}
	if rr.AssertFailures != tr.AssertFailures {
		return fmt.Errorf("replay assert failures %d != recorded %d", rr.AssertFailures, tr.AssertFailures)
	}
	if len(rr.Events) > 0 && len(tr.Events) > 0 && !reflect.DeepEqual(rr.Events, tr.Events) {
		return fmt.Errorf("replay events differ from recorded events (%d vs %d)", len(rr.Events), len(tr.Events))
	}
	return nil
}

func normalizeSchedule(s Schedule) Schedule {
	if s.Threads == nil {
		s.Threads = []int32{}
	}
	if s.Indices == nil {
		s.Indices = []int32{}
	}
	return s
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	ac := append([]string(nil), a...)
	bc := append([]string(nil), b...)
	sort.Strings(ac)
	sort.Strings(bc)
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	return true
}

func equalValues(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}
