package core

import "time"

// Phase identifies one clock-bracketed region of an execution for the
// forensics timing of campaign telemetry. The engine brackets PhaseReset and
// PhaseRun itself; PhaseValidate and PhaseRecord are campaign duties
// (axiomatic validation, trace recording) that run after Execute returns, so
// the campaign runner brackets those and feeds them into the same per-cell
// histograms. Work done once per operation is counted, not timed (see
// ExecStats): a clock pair per operation costs more than most operations.
type Phase uint8

const (
	// PhaseReset is resetExecState: scheduler reset/rebuild, pool and arena
	// recycling, strategy re-seed, model Begin.
	PhaseReset Phase = iota
	// PhaseRun is the exploration loop (Figure 3), from spawning the main
	// thread to the last thread finishing: handoffs, model work and the
	// race-shadow checks alike.
	PhaseRun
	// PhaseValidate is the campaign's offline axiomatic check of the
	// execution (bracketed by the campaign runner, not the engine).
	PhaseValidate
	// PhaseRecord is the campaign's trace serialization duty (bracketed by
	// the campaign runner, not the engine).
	PhaseRecord
	// NumSpans counts the phases above, the ones that are timed.
	NumSpans int = iota
)

// PhaseRace names the race-shadow checks, which nothing times:
// ExecStats.RaceChecks counts them, and README prices the count. It keeps
// its ExecStats.PhaseNS slot, which reads 0, for readers that index it (the
// benchmark's traced pass).
const PhaseRace = Phase(NumSpans)

// NumPhases sizes ExecStats.PhaseNS: the timed spans and PhaseRace.
const NumPhases = NumSpans + 1

var phaseNames = [NumPhases]string{"reset", "run", "validate", "record", "race"}

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
// steady state. The engine opens two spans per execution, reset and run.
// Like the scheduler's handoff-wait measurement it is opt-in
// (Engine.SetPhaseTiming): campaign telemetry turns it on for a
// deterministic sample of each cell's executions and off for the rest; bare
// runs leave it off.
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
