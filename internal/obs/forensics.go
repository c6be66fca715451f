// forensics.go is obs layer 2: the trace sink's trigger decision and its
// manifest. The histograms (layer 1) answer "is the campaign healthy"; the
// flight recorder answers "which executions mattered" by watching a bounded
// ring of per-execution digests and naming, for each execution, the trigger
// (if any) that owes it a recorded trace.
//
// Determinism contract: a FlightRecorder watches one unit of work at a time
// (a campaign cell runner resets it at every unit start), whichever OS
// worker runs the unit. Units are pure functions of the campaign spec,
// digests are pushed in seed-index order within a unit, and every trigger is
// a pure function of the digest stream — so the set of recorded (tool,
// program, seed) triples is identical for workers=1 and workers=K.
package obs

import (
	"fmt"
	"sort"
	"strings"

	"c11tester/internal/safeio"
)

// Trigger identifies why the flight recorder owed an execution a trace. The
// constants are in priority order: when several triggers of a recorder's set
// hold for one execution, the manifest names the first.
type Trigger uint8

const (
	// TriggerNone: no trigger of the set holds; the digest was only
	// archived in the ring.
	TriggerNone Trigger = iota
	// TriggerInfeasible: the engine aborted with a core.InfeasibleError. Its
	// manifest entry carries no trace: the repro line is the artifact.
	TriggerInfeasible
	// TriggerForbidden: a litmus execution produced an outcome the test
	// forbids.
	TriggerForbidden
	// TriggerNewRace: the execution reported a race key not seen before by
	// this tool instance (Result.NewRaces non-empty).
	TriggerNewRace
	// TriggerHit: the execution bears a detection signal — the benchmark's
	// signal, any race, or a forbidden litmus outcome.
	TriggerHit
	// TriggerAll: every execution the tool completed.
	TriggerAll
	// TriggerSlowSteps: the execution's schedule length strictly exceeded the
	// trailing p99 of the digest ring. Steps are a pure function of the
	// seed, so the trigger is deterministic. It is the one capped trigger
	// (maxSlow per unit).
	TriggerSlowSteps

	numTriggers
)

var triggerNames = [numTriggers]string{"", "infeasible", "forbidden", "new_race", "hit", "all", "slow_steps"}

// String returns the stable trigger name used in manifests and on the
// command line; empty for TriggerNone.
func (t Trigger) String() string {
	if t < numTriggers {
		return triggerNames[t]
	}
	return "unknown"
}

// Triggers is a set of triggers, one bit per Trigger.
type Triggers uint8

// Has reports whether t is in the set.
func (s Triggers) Has(t Trigger) bool { return s&(1<<t) != 0 }

// Of returns the set holding ts.
func Of(ts ...Trigger) Triggers {
	var s Triggers
	for _, t := range ts {
		s |= 1 << t
	}
	return s
}

// String renders the set as a comma-separated list in priority order, the
// form ParseTriggers reads back.
func (s Triggers) String() string {
	var names []string
	for t := TriggerNone + 1; t < numTriggers; t++ {
		if s.Has(t) {
			names = append(names, t.String())
		}
	}
	return strings.Join(names, ",")
}

// ParseTriggers parses a comma-separated trigger list (the -record-on flag).
func ParseTriggers(list string) (Triggers, error) {
	var s Triggers
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		t := TriggerNone + 1
		for t < numTriggers && triggerNames[t] != name {
			t++
		}
		if t == numTriggers {
			return 0, fmt.Errorf("unknown trigger %q (want a list of %s)", name, strings.Join(triggerNames[1:], ", "))
		}
		s |= 1 << t
	}
	return s, nil
}

// ExecDigest is the fixed-size per-execution record the flight recorder
// archives and evaluates. Building and checking one allocates nothing.
type ExecDigest struct {
	// Index is the global execution index (seed = SeedBase + Index).
	Index int
	// Steps is the schedule length; Choices the strategy-decision count.
	Steps   uint64
	Choices uint64
	// NewRace marks an execution that reported a first-seen race key.
	NewRace bool
	// Infeasible marks an execution aborted by core.InfeasibleError.
	Infeasible bool
	// Forbidden marks a litmus execution with a forbidden outcome.
	Forbidden bool
	// Hit marks an execution bearing a detection signal (TriggerHit).
	Hit bool
}

// ringSize is the digest ring size. The slow trigger arms once the recorder
// holds slowArm digests and compares against the maximum of the digests it
// holds, so a 25-execution campaign unit can fire it. It must stay at most
// 99 (see trailingP99Steps).
const ringSize = 64

// slowArm is the digest count at which the slow trigger arms: enough
// history that a strict outlier is not just an early execution of an
// ordinary unit.
const slowArm = 16

// maxSlow caps slow-trigger grants per unit: slow executions cluster, and
// one unit of work should not flood the directory with near-duplicates. The
// other triggers are uncapped.
const maxSlow = 2

// FlightRecorder watches a unit of work's execution digests and decides
// which seed indices are owed a trace. All state is held inline; Check and
// Reset are allocation-free on every path.
type FlightRecorder struct {
	on   Triggers
	ring [ringSize]ExecDigest
	n    int // digests ever pushed
	next int // ring write cursor
	slow int // slow-trigger grants
}

// NewFlightRecorder returns a recorder armed with the trigger set on; a
// recorder with an empty set fires nothing.
func NewFlightRecorder(on Triggers) *FlightRecorder {
	return &FlightRecorder{on: on}
}

// Reset empties the recorder for the next unit of work, keeping its ring: a
// reset recorder decides exactly as a newly constructed one, since the
// trigger reads only the digests pushed since (held).
func (f *FlightRecorder) Reset() {
	f.n, f.next, f.slow = 0, 0, 0
}

// Check evaluates the recorder's trigger set against d, then archives d in
// the ring, and returns the first trigger of the set, in priority order,
// that holds (TriggerNone otherwise). An aborted execution can only fire
// TriggerInfeasible: it has no trace to record. The current digest is
// evaluated against the ring *before* being pushed, so an execution is never
// compared with itself.
func (f *FlightRecorder) Check(d ExecDigest) Trigger {
	on := f.on
	trig := TriggerNone
	switch {
	case d.Infeasible:
		if on.Has(TriggerInfeasible) {
			trig = TriggerInfeasible
		}
	case d.Forbidden && on.Has(TriggerForbidden):
		trig = TriggerForbidden
	case d.NewRace && on.Has(TriggerNewRace):
		trig = TriggerNewRace
	case d.Hit && on.Has(TriggerHit):
		trig = TriggerHit
	case on.Has(TriggerAll):
		trig = TriggerAll
	case on.Has(TriggerSlowSteps) && f.slow < maxSlow &&
		f.n >= slowArm && d.Steps > f.trailingP99Steps():
		trig = TriggerSlowSteps
		f.slow++
	}
	f.ring[f.next] = d
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
	}
	f.n++
	return trig
}

// held returns the digests the ring holds: its first n slots until it has
// wrapped, all of them after.
func (f *FlightRecorder) held() []ExecDigest {
	return f.ring[:min(f.n, len(f.ring))]
}

// trailingP99Steps returns the trailing p99 of schedule length over the held
// digests. The ring holds at most ringSize ≤ 99 digests and ceil(0.99·n) ==
// n for every n ≤ 99, so the p99 order statistic is exactly their maximum —
// a single allocation-free scan, no sorting.
func (f *FlightRecorder) trailingP99Steps() uint64 {
	var max uint64
	for _, d := range f.held() {
		if d.Steps > max {
			max = d.Steps
		}
	}
	return max
}

// CaptureRecord is one manifest entry: the identity and repro of a recorded
// execution. Wall time is deliberately absent — the manifest is part of the
// workers=1 ≡ workers=K byte-identity contract.
type CaptureRecord struct {
	Tool    string `json:"tool"`
	Program string `json:"program"`
	Litmus  bool   `json:"litmus,omitempty"`
	Seed    int64  `json:"seed"`
	// Index is the global execution index within the cell (Seed = SeedBase +
	// Index).
	Index   int    `json:"index"`
	Trigger string `json:"trigger"`
	// RaceKeys are the distinct race keys of the recorded execution (not
	// just first-seen ones), sorted.
	RaceKeys []string `json:"race_keys,omitempty"`
	// Outcome is the litmus outcome string, when the cell is a litmus test.
	Outcome string `json:"outcome,omitempty"`
	Steps   uint64 `json:"steps,omitempty"`
	Choices uint64 `json:"choices,omitempty"`
	// File is the portable trace's file name within the record directory;
	// empty when no trace was written: an infeasible execution has none, and
	// Err says why any other could not be recorded.
	File string `json:"file,omitempty"`
	// Repro is the one-command reproduction line.
	Repro string `json:"repro,omitempty"`
	// Err records why an owed trace was not written (its lifting hit an
	// infeasible model state, or the write failed).
	Err string `json:"error,omitempty"`
}

// Manifest schema identity, versioned like the campaign summary and trace
// formats.
const (
	ManifestSchemaName    = "c11tester/captures"
	ManifestSchemaVersion = 1
	// ManifestFileName is the manifest's file name inside a record
	// directory.
	ManifestFileName = "manifest.json"
)

// Manifest is the record directory's index: one entry per execution a
// trigger owed a trace, in canonical order.
type Manifest struct {
	Schema        string          `json:"schema"`
	SchemaVersion int             `json:"schema_version"`
	Captures      []CaptureRecord `json:"captures"`
}

// NewManifest returns an empty manifest with the schema header set.
func NewManifest() *Manifest {
	return &Manifest{Schema: ManifestSchemaName, SchemaVersion: ManifestSchemaVersion}
}

// Sort puts the entries in canonical order — (tool, litmus, program, seed) —
// so manifests merged from any sharding are byte-identical.
func (m *Manifest) Sort() {
	sort.Slice(m.Captures, func(i, j int) bool {
		a, b := &m.Captures[i], &m.Captures[j]
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		if a.Litmus != b.Litmus {
			return !a.Litmus
		}
		if a.Program != b.Program {
			return a.Program < b.Program
		}
		return a.Seed < b.Seed
	})
}

// WriteFile writes the manifest as indented JSON, sorted canonically. The
// write is atomic (temp + rename) so a crash mid-campaign never leaves a torn
// manifest next to valid traces.
func (m *Manifest) WriteFile(path string) error {
	m.Sort()
	return safeio.WriteJSONAtomic(path, m, 0o644)
}

// ReadManifest loads a record manifest. Truncated or corrupt files come back
// as a *safeio.DecodeError naming the byte offset.
func ReadManifest(path string) (*Manifest, error) {
	var m Manifest
	if err := safeio.DecodeJSONFile(path, &m); err != nil {
		return nil, err
	}
	if m.Schema != ManifestSchemaName {
		return nil, fmt.Errorf("obs: %s: schema %q, want %q", path, m.Schema, ManifestSchemaName)
	}
	if m.SchemaVersion < 1 || m.SchemaVersion > ManifestSchemaVersion {
		return nil, fmt.Errorf("obs: %s: unsupported schema version %d", path, m.SchemaVersion)
	}
	return &m, nil
}
