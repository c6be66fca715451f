package core

import "time"

// Phase identifies one clock-bracketed region of an execution for the
// forensics timing of campaign telemetry. The engine brackets PhaseReset,
// PhaseRun, and PhaseRace itself; PhaseValidate and PhaseRecord are campaign
// duties (axiomatic validation, trace recording) that run after Execute
// returns, so the campaign runner brackets those and feeds them into the same
// per-cell histograms.
type Phase uint8

const (
	// PhaseReset is resetExecState: scheduler reset/rebuild, pool and arena
	// recycling, strategy re-seed, model Begin.
	PhaseReset Phase = iota
	// PhaseRun is the exploration loop (Figure 3), from spawning the main
	// thread to the last thread finishing. It includes PhaseRace: the race
	// spans are nested inside the run span, not disjoint from it.
	PhaseRun
	// PhaseRace covers the shadow-word checks and conflict reporting on
	// memory-access dispatch paths. Nested inside PhaseRun.
	PhaseRace
	// PhaseValidate is the campaign's offline axiomatic check of the
	// execution (bracketed by the campaign runner, not the engine).
	PhaseValidate
	// PhaseRecord is the campaign's trace serialization duty (bracketed by
	// the campaign runner, not the engine).
	PhaseRecord
	// NumPhases sizes the fixed per-phase arrays.
	NumPhases int = iota
)

var phaseNames = [NumPhases]string{"reset", "run", "race", "validate", "record"}

// String returns the stable lower-case phase name used as the histogram
// label and summary key.
func (p Phase) String() string {
	if int(p) < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseTimer accumulates wall time per phase into a fixed array of monotonic
// stamps. It is deliberately interface-free and allocation-free: Begin/End
// are two clock reads and an add, and a disabled timer is a single branch, so
// the engine can carry one unconditionally without disturbing the 0 B / 0 obj
// steady state. Like the scheduler's handoff-wait measurement it is opt-in
// (Engine.SetPhaseTiming): campaign telemetry turns it on for a
// deterministic sample of each cell's executions and off for the rest; bare
// runs leave it off.
//
// Phases may nest (PhaseRace inside PhaseRun) because each phase has its own
// start stamp; a phase must not nest inside itself.
type PhaseTimer struct {
	on      bool
	ns      [NumPhases]int64
	started [NumPhases]time.Time
}

// SetEnabled toggles the timer. Disabling does not clear accumulated time.
func (t *PhaseTimer) SetEnabled(on bool) { t.on = on }

// Enabled reports whether the timer is measuring.
func (t *PhaseTimer) Enabled() bool { return t.on }

// Reset zeroes the accumulated per-phase time for a new execution.
func (t *PhaseTimer) Reset() { t.ns = [NumPhases]int64{} }

// Begin stamps the start of a span of p.
func (t *PhaseTimer) Begin(p Phase) {
	if t.on {
		t.started[p] = time.Now()
	}
}

// End accumulates the span opened by the matching Begin.
func (t *PhaseTimer) End(p Phase) {
	if t.on {
		t.ns[p] += int64(time.Since(t.started[p]))
	}
}

// NS returns the accumulated nanoseconds of p.
func (t *PhaseTimer) NS(p Phase) int64 { return t.ns[p] }

// Durations returns the accumulated nanoseconds of every phase by value.
func (t *PhaseTimer) Durations() [NumPhases]int64 { return t.ns }
