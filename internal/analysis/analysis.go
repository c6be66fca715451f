// Package analysis is the plug-in seam for dynamic analyses over finished
// executions. The engine already produces everything a family of analyses
// needs — actions, reads-from, modification order, clock vectors — and the
// campaign runner owns the loop that executes (tool, program, seed) triples;
// an Analyzer observes each finished execution through that loop and emits
// keyed Findings, which the campaign deduplicates, samples, merges across
// shards, and reports with one-command repro triples exactly like races.
//
// The contract mirrors the race detector's determinism rules: an execution
// is a pure function of (tool, program, seed), so Observe must be a pure
// function of the Exec it is handed — no randomness, no wall-clock, no state
// carried from one execution to the next — which is what keeps workers=1 ≡
// workers=K byte-identical per-analyzer findings.
package analysis

import (
	"fmt"
	"sort"

	"c11tester/internal/axiom"
	"c11tester/internal/capi"
	"c11tester/internal/core"
)

// Exec is one finished execution as presented to analyzers. The campaign
// runner reuses a single Exec per worker and cell, rewriting the fields between
// executions; everything reachable from it — the Result, the engine's trace
// and modification order, the lifted execution — is only valid for the
// duration of Observe, per the capi.Result ownership rules. Analyzers copy
// what they keep.
type Exec struct {
	// Result is the execution's outcome (races, assertion failures, block
	// annotations, op counts). Never nil.
	Result *capi.Result
	// Index is the 0-based execution index within the cell; Seed is the
	// seed it ran under (SeedBase + Index).
	Index int
	Seed  int64
	// Tool and Program name the cell; Litmus distinguishes litmus cells
	// from benchmark cells, and Outcome carries the rendered litmus outcome
	// ("" for benchmarks).
	Tool    string
	Program string
	Litmus  bool
	Outcome string
	// Engine exposes the recorded action trace (Engine.Trace, present when
	// the analyzer asked for it via NeedsTrace); MO the concrete
	// modification order (when NeedsMO). Engine is nil for tools that are
	// not built on the core engine; MO is nil for tools whose memory model
	// keeps no concrete modification order.
	Engine *core.Engine
	MO     core.MOProvider
	// Lifted is the execution already lifted for the axiomatic model
	// (axiom.Execution) when the caller has one — the campaign lifts each
	// execution once and shares it between validation and every analyzer
	// that needs the modification order — or nil, in which case such an
	// analyzer lifts Engine and MO itself.
	Lifted *axiom.Execution
}

// Finding is one keyed analyzer observation. Key deduplicates findings
// across executions of a cell (and across shards), like capi.RaceReport.Key
// does for races; Desc is the human-readable one-liner. Both must be pure
// functions of the execution. The strings are copied by the campaign, so a
// Finding may reference per-execution storage.
type Finding struct {
	Key  string
	Desc string
}

// Analyzer observes finished executions and emits findings. The campaign
// builds one instance per worker and (tool, program) cell via the registry,
// and that instance observes every execution of every unit of the cell the
// worker runs — which units those are depends on scheduling. Instance state
// may therefore only be reusable scratch that Observe rebuilds for each
// execution (like scRobustness.ws, the lifted-execution workspace): state
// that carries from one execution to the next, such as a dedup set, would
// make findings depend on which worker ran which unit. Deduplication is the
// campaign's job. Instances must not share state across cells or goroutines.
type Analyzer interface {
	// Name is the registry key, the -analyzers flag value, and the label on
	// findings, events, and metrics.
	Name() string
	// NeedsTrace reports whether Observe reads the engine's action trace;
	// the campaign enables trace recording for the cell when any analyzer
	// asks. NeedsMO additionally requires a concrete modification order —
	// analyzers that need it are skipped (never run) on cells whose tool
	// cannot provide one, mirroring how axiom validation skips those cells.
	NeedsTrace() bool
	NeedsMO() bool
	// Observe inspects one finished execution. The returned findings (and
	// the Exec's fields) are valid only until the next Observe call.
	Observe(x *Exec) []Finding
}

// factories is the process-wide registry; built-ins register in init, and
// tests may add their own. Registration is not synchronized: it happens at
// init time, before campaigns run.
var factories = map[string]func() Analyzer{}

// Register adds an analyzer factory under its name. The factory is invoked
// once per campaign worker and cell, so instances are worker-confined by
// construction.
// Registering a duplicate name panics: names are a flag surface, and a
// silent overwrite would repoint existing repro commands.
func Register(name string, factory func() Analyzer) {
	if _, dup := factories[name]; dup {
		panic(fmt.Sprintf("analysis: duplicate analyzer %q", name))
	}
	factories[name] = factory
}

// New builds a fresh instance of the named analyzer.
func New(name string) (Analyzer, error) {
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("unknown analyzer %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered analyzer names, sorted.
func Names() []string {
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
