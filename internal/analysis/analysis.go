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
//
// A Finding is data, not text: its key (rendered once per distinct key by
// the analyzer instance), a static Kind, a subject string the execution
// already holds, and a small fixed detail. Almost every sighting repeats one
// an earlier execution made, so the campaign keeps the winning Finding by
// value and renders its description (Finding.Desc) only at the edges that
// write it. Together with reusable per-instance scratch, this lets a
// steady-state Observe allocate nothing.
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

// Kind is a static class of findings: the key prefix its findings share and
// how one reads. Analyzers declare their kinds as package variables, so a
// Finding carries a pointer to one, not text.
type Kind struct {
	// Prefix starts the key of every finding of the kind; the subject, if
	// the kind has one, follows it.
	Prefix string
	// Describe renders a finding of the kind as a one-line description.
	Describe func(subject string, detail int) string
}

// Finding is one analyzer observation. Key deduplicates findings across
// executions of a cell (and across shards), like capi.RaceReport.Key does
// for races: it is the Kind's prefix plus Subject, a string the execution
// already holds, such as a block name or a litmus outcome ("" for a kind
// without subjects). Detail is a small fixed-size fact about this sighting,
// such as a cycle length, that only the description shows. Key, Subject and
// Detail must be pure functions of the execution.
//
// A Finding holds no per-sighting text: the analyzer renders each distinct
// key once (keyMemo) and the description is rendered by Desc, which the
// campaign calls only where it writes a finding out — the summary,
// checkpoint JSON.
type Finding struct {
	Key     string
	Kind    *Kind
	Subject string
	Detail  int
}

// Desc renders the finding's one-line description.
func (f Finding) Desc() string { return f.Kind.Describe(f.Subject, f.Detail) }

// keyMemo renders a kind's finding keys, prefix plus subject, once per
// distinct subject. An analyzer instance keeps one per kind across
// executions, so a key that repeats costs no allocation; being a memo of a
// pure function, it changes no finding.
type keyMemo map[string]string

// key returns kind's key for subject.
func (m *keyMemo) key(kind *Kind, subject string) string {
	k, ok := (*m)[subject]
	if !ok {
		if *m == nil {
			*m = keyMemo{}
		}
		k = kind.Prefix + subject
		(*m)[subject] = k
	}
	return k
}

// Analyzer observes finished executions and emits findings. The campaign
// builds one instance per worker and (tool, program) cell via the registry,
// and that instance observes every execution of every unit of the cell the
// worker runs — which units those are depends on scheduling. Instance state
// may therefore only be reusable scratch that Observe rebuilds for each
// execution (like scRobustness.ws, the lifted-execution workspace), or a
// memo of a pure function (like keyMemo): state that changes what a later
// execution reports, such as a dedup set, would make findings depend on
// which worker ran which unit. Deduplication is the campaign's job.
// Instances must not share state across cells or goroutines.
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
	// Observe inspects one finished execution. The returned slice may be
	// the instance's reusable storage: it (and the Exec's fields) is valid
	// only until the next Observe call. The campaign copies the Finding
	// values it keeps.
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
