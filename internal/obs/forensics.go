// forensics.go is obs layer 2: the anomaly-triggered flight recorder and the
// capture manifest. The metrics/event fabric (layer 1) answers "is the
// campaign healthy"; the flight recorder answers "which executions mattered"
// by watching a bounded ring of per-execution digests and nominating
// anomalous seed indices for full trace capture.
//
// Determinism contract: a FlightRecorder watches one unit of work at a time
// (a campaign cell runner resets it at every unit start), whichever OS
// worker runs the unit. Units are pure
// functions of the campaign spec, digests are pushed in seed-index order
// within a unit, and every default trigger is a pure function of the digest
// stream — so the set of captured (tool, program, seed) triples is identical
// for workers=1 and workers=K. The one wall-clock trigger (SlowNS) is
// explicitly opt-in and documented as non-deterministic.
package obs

import (
	"fmt"
	"sort"

	"c11tester/internal/safeio"
)

// Trigger identifies why the flight recorder nominated an execution for
// capture.
type Trigger uint8

const (
	// TriggerNone: no anomaly; the digest was only archived in the ring.
	TriggerNone Trigger = iota
	// TriggerNewRace: the execution reported a race key not seen before by
	// this tool instance (Result.NewRaces non-empty).
	TriggerNewRace
	// TriggerInfeasible: the engine aborted with a core.InfeasibleError.
	TriggerInfeasible
	// TriggerForbidden: a litmus execution produced an outcome the test
	// forbids.
	TriggerForbidden
	// TriggerSlowSteps: the execution's schedule length strictly exceeded the
	// trailing p99 of the digest ring. Deterministic (steps are a pure
	// function of the seed), so it is the default slow-execution trigger.
	TriggerSlowSteps
	// TriggerSlowNS: the execution's wall time strictly exceeded the trailing
	// p99 of the digest ring. Wall time is not a pure function of the seed,
	// so this trigger breaks the workers=1 ≡ workers=K capture-set identity;
	// it is off by default and must be armed explicitly
	// (FlightRecorderConfig.SlowNS).
	TriggerSlowNS
)

var triggerNames = [...]string{"", "new_race", "infeasible", "forbidden", "slow_steps", "slow_ns"}

// String returns the stable trigger name used in manifests and events; empty
// for TriggerNone.
func (t Trigger) String() string {
	if int(t) < len(triggerNames) {
		return triggerNames[t]
	}
	return "unknown"
}

// ExecDigest is the fixed-size per-execution record the flight recorder
// archives and evaluates. Building and checking one allocates nothing.
type ExecDigest struct {
	// Index is the global execution index (seed = SeedBase + Index).
	Index int
	// NS is the execution's wall time (only consulted by the opt-in SlowNS
	// trigger).
	NS int64
	// Steps is the schedule length; Choices the strategy-decision count.
	Steps   uint64
	Choices uint64
	// NewRace marks an execution that reported a first-seen race key.
	NewRace bool
	// Infeasible marks an execution aborted by core.InfeasibleError.
	Infeasible bool
	// Forbidden marks a litmus execution with a forbidden outcome.
	Forbidden bool
}

// FlightRecorderConfig bounds a recorder. The zero value gets defaults.
type FlightRecorderConfig struct {
	// Ring is the digest ring size (default 64, capped at 99 — see
	// trailingP99Steps). The slow triggers arm once the recorder holds
	// min(Ring, slowArm) digests and compare against the maximum of the
	// digests it holds, so a 25-execution campaign unit can fire them.
	Ring int
	// MaxSlow caps slow-trigger captures per recorder (default 2): slow
	// executions cluster, and one unit of work should not flood the capture
	// directory with near-duplicates.
	MaxSlow int
	// MaxCaptures caps total captures per recorder (default 16), applied in
	// digest order, so even a pathological unit (every execution infeasible)
	// produces a bounded capture set. Deterministic: the cap cuts the same
	// prefix regardless of worker count.
	MaxCaptures int
	// SlowNS additionally arms the wall-clock slow trigger (see
	// TriggerSlowNS). Non-deterministic; off by default.
	SlowNS bool
}

// slowArm is the digest count at which the slow triggers arm when the ring
// is larger: enough history that a strict outlier is not just an early
// execution of an ordinary unit.
const slowArm = 16

func (c FlightRecorderConfig) withDefaults() FlightRecorderConfig {
	if c.Ring <= 0 {
		c.Ring = 64
	}
	// ceil(0.99·n) == n for all n ≤ 99, so capping the ring here is what
	// licenses trailingP99's max-scan implementation.
	if c.Ring > 99 {
		c.Ring = 99
	}
	if c.MaxSlow <= 0 {
		c.MaxSlow = 2
	}
	if c.MaxCaptures <= 0 {
		c.MaxCaptures = 16
	}
	return c
}

// FlightRecorder watches a unit of work's execution digests and decides
// which seed indices deserve a full trace capture. All state is pre-allocated
// at construction; Check and Reset are allocation-free on every path.
type FlightRecorder struct {
	cfg      FlightRecorderConfig
	ring     []ExecDigest
	n        int // digests ever pushed
	next     int // ring write cursor
	slow     int // slow-trigger captures granted
	captures int // total captures granted
}

// NewFlightRecorder returns an armed recorder.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	return &FlightRecorder{cfg: cfg, ring: make([]ExecDigest, cfg.Ring)}
}

// Reset empties the recorder for the next unit of work, keeping its ring: a
// reset recorder decides exactly as a newly constructed one, since the
// triggers read only the digests pushed since (held).
func (f *FlightRecorder) Reset() {
	f.n, f.next, f.slow, f.captures = 0, 0, 0, 0
}

// Check evaluates the trigger set against d, then archives d in the ring, and
// returns the trigger that fired (TriggerNone otherwise). The current digest
// is evaluated against the ring *before* being pushed, so an execution is
// never compared with itself. Trigger priority when several conditions hold:
// infeasible > forbidden > new race > slow.
func (f *FlightRecorder) Check(d ExecDigest) Trigger {
	trig := TriggerNone
	switch {
	case d.Infeasible:
		trig = TriggerInfeasible
	case d.Forbidden:
		trig = TriggerForbidden
	case d.NewRace:
		trig = TriggerNewRace
	default:
		if f.n >= min(len(f.ring), slowArm) {
			if f.cfg.SlowNS && d.NS > f.trailingP99NS() {
				trig = TriggerSlowNS
			} else if d.Steps > f.trailingP99Steps() {
				trig = TriggerSlowSteps
			}
			if trig != TriggerNone && f.slow >= f.cfg.MaxSlow {
				trig = TriggerNone
			}
		}
	}
	if trig != TriggerNone && f.captures >= f.cfg.MaxCaptures {
		trig = TriggerNone
	}
	if trig != TriggerNone {
		f.captures++
		if trig == TriggerSlowSteps || trig == TriggerSlowNS {
			f.slow++
		}
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
// digests. The ring holds at most 99 digests and ceil(0.99·n) == n for every
// n ≤ 99, so the p99 order statistic is exactly their maximum — a single
// allocation-free scan, no sorting.
func (f *FlightRecorder) trailingP99Steps() uint64 {
	var max uint64
	for _, d := range f.held() {
		if d.Steps > max {
			max = d.Steps
		}
	}
	return max
}

// trailingP99NS is trailingP99Steps over wall time (SlowNS trigger only).
func (f *FlightRecorder) trailingP99NS() int64 {
	var max int64
	for _, d := range f.held() {
		if d.NS > max {
			max = d.NS
		}
	}
	return max
}

// Checked returns the number of digests pushed; Captures the number of
// triggers granted.
func (f *FlightRecorder) Checked() int  { return f.n }
func (f *FlightRecorder) Captures() int { return f.captures }

// CaptureRecord is one manifest entry: the identity and repro of a captured
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
	// RaceKeys are the distinct race keys of the captured execution (not
	// just first-seen ones), sorted.
	RaceKeys []string `json:"race_keys,omitempty"`
	// Outcome is the litmus outcome string, when the cell is a litmus test.
	Outcome string `json:"outcome,omitempty"`
	Steps   uint64 `json:"steps,omitempty"`
	Choices uint64 `json:"choices,omitempty"`
	// File is the portable trace's file name within the capture directory;
	// empty when the capture re-run could not produce a trace (see Err).
	File string `json:"file,omitempty"`
	// Repro is the one-command reproduction line.
	Repro string `json:"repro,omitempty"`
	// Err records why no trace was written (e.g. the re-run itself was
	// infeasible, or the tool cannot serialize traces).
	Err string `json:"error,omitempty"`
}

// Manifest schema identity, versioned like the campaign summary and trace
// formats.
const (
	ManifestSchemaName    = "c11tester/captures"
	ManifestSchemaVersion = 1
	// ManifestFileName is the manifest's file name inside a capture
	// directory.
	ManifestFileName = "manifest.json"
)

// Manifest is the capture directory's index: every capture the campaign's
// flight recorders granted, in canonical order.
type Manifest struct {
	Schema        string          `json:"schema"`
	SchemaVersion int             `json:"schema_version"`
	Captures      []CaptureRecord `json:"captures"`
}

// NewManifest returns an empty manifest with the schema header set.
func NewManifest() *Manifest {
	return &Manifest{Schema: ManifestSchemaName, SchemaVersion: ManifestSchemaVersion}
}

// Sort puts the captures in canonical order — (tool, litmus, program, seed) —
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
// manifest next to valid captures.
func (m *Manifest) WriteFile(path string) error {
	m.Sort()
	return safeio.WriteJSONAtomic(path, m, 0o644)
}

// ReadManifest loads a capture manifest. Truncated or corrupt files come back
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
