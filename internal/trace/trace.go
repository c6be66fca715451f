// Package trace implements portable execution traces for the tools in this
// repository: a versioned serialization of one execution — its scheduling
// choices, its dynamic actions with reads-from edges, the per-location
// modification orders, and a digest of the observable outcome — together
// with deterministic replay, offline axiomatic validation, and ddmin-style
// schedule minimization.
//
// The design leans on the same invariant as the campaign runner: every tool
// re-derives all scheduling and reads-from choices from (seed, strategy), so
// an execution is fully determined by the seed plus the sequence of values
// the strategy returned. A trace therefore records that choice stream (the
// Schedule) next to the seed and tool configuration; replay substitutes a
// strategy that returns the recorded choices and must reproduce the
// execution event for event. The event payload (Events + MO) is what the
// tsan11rec baseline's record log aspires to be (Section 2 of the paper) and
// what Appendix A's axiomatic model consumes: internal/axiom can re-check a
// serialized trace with no live engine.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"

	"c11tester/internal/axiom"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
	"c11tester/internal/safeio"
)

// Schema identifiers of the serialized trace. Bump SchemaVersion on any
// incompatible change to the JSON shape.
const (
	SchemaName    = "c11tester/trace"
	SchemaVersion = 1
)

// ToolConfig identifies the tool an execution ran under, in enough detail to
// reconstruct an identical tool for replay (the same execution function of
// seed). Every tool has one configuration, so its name is enough. A trace
// from an older build may also record that tsan11rec ran on kernel-thread
// handoff; the handoff never changed an execution, so such a trace replays
// as it is and that field is ignored.
type ToolConfig struct {
	Name string `json:"name"`
}

// removedTool holds the tool-config fields of removed cmd/c11tester flags.
// Replay cannot rebuild a tool configured through them — the -rng legacy
// source fed the workload randomness programs could once draw; -sched,
// -quantum and -max-steps changed the execution each seed derives; -prune dropped stores
// from the lists a load's candidates are drawn from — so ReadFile refuses a
// trace that sets any of them.
type removedTool struct {
	RNG         string `json:"rng"`
	Sched       string `json:"sched"`
	QuantumMean int    `json:"quantum_mean"`
	MaxSteps    uint64 `json:"max_steps"`
	Prune       string `json:"prune"`
}

// Schedule is the recorded choice stream of one execution: the thread picked
// at each scheduling point and the index picked at each behaviour choice
// (which candidate store a load reads from, etc.). The two streams are
// consumed at engine-determined points, so two flat lists reproduce the
// interleaving exactly.
type Schedule struct {
	Threads []int32 `json:"threads"`
	Indices []int32 `json:"indices"`
}

// Len returns the total number of recorded choices.
func (s Schedule) Len() int { return len(s.Threads) + len(s.Indices) }

// Event is one serialized dynamic action. Kinds and memory orders are
// serialized by name, not ordinal, so traces stay readable and survive
// enum reordering.
type Event struct {
	Seq   uint64 `json:"seq"`
	TID   int32  `json:"tid"`
	Kind  string `json:"kind"`
	MO    string `json:"mo,omitempty"`
	Loc   uint32 `json:"loc,omitempty"`
	Value uint64 `json:"value,omitempty"`
	// RF is the index (into Events) of the store this load/RMW read from,
	// or -1.
	RF int `json:"rf"`
	// SCIdx is the position in the seq_cst total order, or -1.
	SCIdx int `json:"sc_idx"`
}

// Trace is one serialized execution.
type Trace struct {
	Schema        string     `json:"schema"`
	SchemaVersion int        `json:"schema_version"`
	Tool          ToolConfig `json:"tool"`
	Program       string     `json:"program"`
	// Litmus marks Program as a litmus-test name rather than a benchmark
	// name.
	Litmus bool  `json:"litmus,omitempty"`
	Seed   int64 `json:"seed"`

	Schedule Schedule `json:"schedule"`

	// Digest of the recorded execution; replay must reproduce it exactly.
	RaceKeys       []string          `json:"race_keys"`
	Outcome        string            `json:"outcome,omitempty"`
	FinalValues    map[string]uint64 `json:"final_values"`
	Deadlocked     bool              `json:"deadlocked,omitempty"`
	Truncated      bool              `json:"truncated,omitempty"`
	AssertFailures int               `json:"assert_failures,omitempty"`

	// Axiomatic payload, present when the tool's memory model exposes a
	// total modification order (core.MOProvider): the full action trace and
	// one concrete modification order per location, as event indices.
	Events []Event          `json:"events,omitempty"`
	MO     map[string][]int `json:"mo,omitempty"`
	// Locs names the locations appearing in MO, for human readers.
	Locs map[string]string `json:"locs,omitempty"`
}

// kindByName and moByName invert the memmodel name tables.
var kindByName = func() map[string]memmodel.Kind {
	m := map[string]memmodel.Kind{}
	for k := memmodel.KLoad; k <= memmodel.KAssert; k++ {
		m[k.String()] = k
	}
	return m
}()

var moByName = func() map[string]memmodel.MemoryOrder {
	m := map[string]memmodel.MemoryOrder{}
	for mo := memmodel.Relaxed; mo <= memmodel.SeqCst; mo++ {
		m[mo.String()] = mo
	}
	return m
}()

// Meta carries the identity of the execution being recorded.
type Meta struct {
	Tool    ToolConfig
	Program string
	Litmus  bool
	Seed    int64
	// Outcome is the litmus outcome string, when the program produced one.
	Outcome string
}

// Record serializes the execution the engine just ran: res is the Execute
// result, sched the choice stream captured by a Recorder (zero Schedule if
// none was interposed). It must be called before the engine's next Execute.
// The axiomatic payload is included when the engine ran in trace mode and
// its model provides total modification orders.
func Record(eng *core.Engine, res *capi.Result, sched Schedule, meta Meta) (*Trace, error) {
	tr := &Trace{
		Schema:         SchemaName,
		SchemaVersion:  SchemaVersion,
		Tool:           meta.Tool,
		Program:        meta.Program,
		Litmus:         meta.Litmus,
		Seed:           meta.Seed,
		Schedule:       sched,
		RaceKeys:       raceKeys(res),
		Outcome:        meta.Outcome,
		FinalValues:    finalValues(eng),
		Deadlocked:     res.Deadlocked,
		Truncated:      res.Truncated,
		AssertFailures: len(res.AssertFailures),
	}
	if tr.Tool.Name == "" {
		tr.Tool.Name = eng.Name()
	}
	mp, hasMO := eng.Model().(core.MOProvider)
	if !eng.Config().Trace || !hasMO {
		return tr, nil
	}

	actions := eng.Trace()
	index := make(map[*core.Action]int, len(actions))
	for i, a := range actions {
		index[a] = i
	}
	tr.Events = make([]Event, len(actions))
	for i, a := range actions {
		ev := Event{
			Seq: uint64(a.Seq), TID: int32(a.TID), Kind: a.Kind.String(),
			MO: a.MO.String(), Loc: uint32(a.Loc), Value: uint64(a.Value),
			RF: -1, SCIdx: a.SCIdx,
		}
		if a.RF != nil {
			j, ok := index[a.RF]
			if !ok {
				return nil, fmt.Errorf("trace: %v reads from an untraced store", a)
			}
			ev.RF = j
		}
		tr.Events[i] = ev
	}
	tr.MO = map[string][]int{}
	tr.Locs = map[string]string{}
	for _, loc := range mp.AppendLocations(nil) {
		mo := mp.AppendTotalMO(nil, loc)
		ids := make([]int, len(mo))
		for i, a := range mo {
			j, ok := index[a]
			if !ok {
				return nil, fmt.Errorf("trace: mo of loc %d contains untraced store %v", loc, a)
			}
			ids[i] = j
		}
		key := fmt.Sprintf("%d", loc)
		tr.MO[key] = ids
		tr.Locs[key] = eng.LocName(loc)
	}
	return tr, nil
}

// raceKeys returns the sorted, deduplicated race keys of one execution.
func raceKeys(res *capi.Result) []string {
	seen := map[string]bool{}
	keys := []string{}
	for _, r := range res.Races {
		if k := r.Key(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func finalValues(eng *core.Engine) map[string]uint64 {
	fv := eng.FinalValues()
	out := make(map[string]uint64, len(fv))
	for k, v := range fv {
		out[k] = uint64(v)
	}
	return out
}

// Validatable reports whether the trace carries the axiomatic payload.
func (tr *Trace) Validatable() bool { return len(tr.Events) > 0 }

// Execution reconstructs the axiomatic-checker view of the trace: the action
// list with reads-from edges rewired and the concrete per-location
// modification orders. No live engine is involved.
func (tr *Trace) Execution() (*axiom.Execution, error) {
	if !tr.Validatable() {
		return nil, fmt.Errorf("trace: no event payload (recorded from a tool without a total-mo model)")
	}
	acts := make([]*core.Action, len(tr.Events))
	for i, ev := range tr.Events {
		kind, ok := kindByName[ev.Kind]
		if !ok {
			return nil, fmt.Errorf("trace: event %d has unknown kind %q", i, ev.Kind)
		}
		a := &core.Action{
			Seq: memmodel.SeqNum(ev.Seq), TID: memmodel.TID(ev.TID), Kind: kind,
			Loc: memmodel.LocID(ev.Loc), Value: memmodel.Value(ev.Value), SCIdx: ev.SCIdx,
		}
		if ev.MO != "" {
			mo, ok := moByName[ev.MO]
			if !ok {
				return nil, fmt.Errorf("trace: event %d has unknown memory order %q", i, ev.MO)
			}
			a.MO = mo
		}
		acts[i] = a
	}
	for i, ev := range tr.Events {
		if ev.RF >= 0 {
			if ev.RF >= len(acts) {
				return nil, fmt.Errorf("trace: event %d rf index %d out of range", i, ev.RF)
			}
			acts[i].RF = acts[ev.RF]
		}
	}
	mo := make([]axiom.LocMO, 0, len(tr.MO))
	for key, ids := range tr.MO {
		var loc memmodel.LocID
		if _, err := fmt.Sscanf(key, "%d", &loc); err != nil {
			return nil, fmt.Errorf("trace: bad mo location key %q", key)
		}
		list := make([]*core.Action, len(ids))
		for i, id := range ids {
			if id < 0 || id >= len(acts) {
				return nil, fmt.Errorf("trace: mo of loc %s references event %d out of range", key, id)
			}
			list[i] = acts[id]
		}
		mo = append(mo, axiom.LocMO{Loc: loc, Stores: list})
	}
	// RMWReader links are needed by nothing in the checker, but rebuild the
	// per-store uniqueness the checker verifies from RF alone.
	return axiom.NewExecution(acts, mo), nil
}

// Validate runs the offline axiomatic checker over the serialized trace.
func (tr *Trace) Validate() ([]axiom.Violation, error) {
	ex, err := tr.Execution()
	if err != nil {
		return nil, err
	}
	return axiom.Check(ex), nil
}

// WriteFile serializes the trace to path as compact JSON on one line: the
// event objects dominate a trace, and indenting them made the file 58%
// larger. ReadFile accepts any JSON layout, so indented traces still load.
// The write is atomic (temp + rename): a run SIGKILLed mid-capture leaves no
// torn trace for replay tooling to choke on.
func (tr *Trace) WriteFile(path string) error {
	data, err := json.Marshal(tr)
	if err != nil {
		return err
	}
	return safeio.WriteFileAtomic(path, append(data, '\n'), 0o644)
}

// ReadFile loads and sanity-checks a serialized trace. Truncated or corrupt
// files come back as a *safeio.DecodeError naming the byte offset.
func ReadFile(path string) (*Trace, error) {
	// The outer Tool field shadows Trace.Tool, so the tool object decodes
	// once, into tr.Tool and the removed fields side by side.
	var tr Trace
	var file struct {
		*Trace
		Tool struct {
			*ToolConfig
			removedTool
		} `json:"tool"`
	}
	file.Trace, file.Tool.ToolConfig = &tr, &tr.Tool
	if err := safeio.DecodeJSONFile(path, &file); err != nil {
		return nil, err
	}
	if tr.Schema != SchemaName {
		return nil, fmt.Errorf("trace: %s: schema %q, want %q", path, tr.Schema, SchemaName)
	}
	if tr.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("trace: %s: schema version %d, want %d", path, tr.SchemaVersion, SchemaVersion)
	}
	rm := file.Tool.removedTool
	for _, f := range []struct {
		field, flag string
		val         any
		set         bool
	}{
		{"rng", "-rng", rm.RNG, rm.RNG != ""},
		{"sched", "-sched", rm.Sched, rm.Sched != ""},
		{"quantum_mean", "-quantum", rm.QuantumMean, rm.QuantumMean != 0},
		{"max_steps", "-max-steps", rm.MaxSteps, rm.MaxSteps != 0},
		{"prune", "-prune", rm.Prune, rm.Prune != ""},
	} {
		if f.set {
			return nil, fmt.Errorf("trace: %s: recorded with %s %v (tool field %q); that flag was removed and its traces cannot be replayed", path, f.flag, f.val, f.field)
		}
	}
	return &tr, nil
}

// FileName renders the canonical trace file name for one execution. The
// (tool, program, seed) triple is unique within a campaign, so concurrent
// shards never collide.
func FileName(tool, program string, seed int64) string {
	return fmt.Sprintf("trace_%s_%s_%d.json", sanitize(tool), sanitize(program), seed)
}

func sanitize(s string) string {
	out := []rune(s)
	for i, r := range out {
		switch r {
		case '/', '\\', ':', ' ':
			out[i] = '-'
		}
	}
	return string(out)
}
