package campaign

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"c11tester/internal/explore"
	"c11tester/internal/harness"
	"c11tester/internal/obs"
)

// TelemetryOptions configures a campaign's telemetry fabric.
type TelemetryOptions struct {
	// EventSink receives the structured JSONL event stream; nil disables
	// events.
	EventSink io.Writer
	// EventEcho receives a copy of every event line (the CLI -v flag).
	EventEcho io.Writer
	// Progress receives human-readable one-line wave/progress summaries
	// (the CLI writes stderr here unless -q); nil disables them.
	Progress io.Writer
	// Timestamps stamps events with wall-clock UnixNano times. Off, event
	// streams are byte-comparable across runs (the determinism tests rely
	// on this); on, consumers get real times.
	Timestamps bool
}

// Telemetry is one campaign's observability fabric: the event stream and the
// campaign-level progress state behind the stderr progress lines. Create one
// per campaign.Run; Run binds it to the spec's matrix, drives it, and closes
// the event stream before returning (the EventSink writer itself stays open —
// its opener owns it). The per-cell histograms are not telemetry state: they
// ride the campaign's fold (see hists).
type Telemetry struct {
	opts   TelemetryOptions
	stream *obs.Stream

	// Matrix binding (bind).
	bound bool
	spec  Spec

	mu           sync.Mutex
	raceKeys     map[[2]string]bool // {tool, key} — campaign-distinct races
	failures     int
	converged    int
	execsDone    int
	execsPlanned int
	lastLine     int // execsDone at the last periodic progress line
	lineEvery    int
}

// NewTelemetry returns a telemetry fabric ready to be passed via
// Spec.Telemetry.
func NewTelemetry(opts TelemetryOptions) *Telemetry {
	t := &Telemetry{opts: opts, raceKeys: map[[2]string]bool{}}
	if opts.EventSink != nil {
		t.stream = obs.NewStream(opts.EventSink, opts.EventEcho)
	}
	return t
}

// EventsEmitted and EventsDropped report the stream counters (both zero when
// no EventSink was configured).
func (t *Telemetry) EventsEmitted() uint64 {
	if t.stream == nil {
		return 0
	}
	return t.stream.Emitted()
}

// EventsDropped reports events that failed to marshal; any nonzero value
// fails the campaign's observability gate.
func (t *Telemetry) EventsDropped() uint64 {
	if t.stream == nil {
		return 0
	}
	return t.stream.Dropped()
}

// syncEvents flushes every buffered event line through to the sink.
// Checkpoint writes call it so a persisted barrier never references events
// still in the stream's buffer.
func (t *Telemetry) syncEvents() {
	if t.stream != nil {
		_ = t.stream.Sync()
	}
}

// bind binds the telemetry to spec's matrix and plans its progress lines. Run
// calls it once; binding a Telemetry to a second campaign is a programming
// error.
func (t *Telemetry) bind(spec Spec) {
	if t.bound {
		panic("campaign: Telemetry bound to a second campaign; create one per Run")
	}
	t.bound = true
	t.spec = spec
	// A sharded run only plans its share of each cell's chunk sequence (every
	// cell deals identically, so one cell's share scales).
	cellExecs := 0
	for _, c := range chunkDeal(spec) {
		cellExecs += c[1] - c[0]
	}
	t.execsPlanned = cellExecs * len(spec.Tools) * (len(spec.Benchmarks) + len(spec.Litmus))
	// Aim for ~10 periodic progress lines on uniform campaigns; wave
	// barriers print their own lines either way.
	t.lineEvery = t.execsPlanned / 10
	if t.lineEvery < spec.ShardSize {
		t.lineEvery = spec.ShardSize
	}
}

// Event is one structured JSONL event. Every event carries the schema
// version ("v") and a type; the other fields are type-dependent and omitted
// when empty. With TelemetryOptions.Timestamps, "t" is the wall-clock
// UnixNano emission time; without it the stream is a pure function of the
// campaign outcome (up to line order — workers emit concurrently), which is
// what the determinism tests compare after canonical ordering.
type Event struct {
	V    int    `json:"v"`
	Type string `json:"type"`
	T    int64  `json:"t,omitempty"`

	Wave    int    `json:"wave,omitempty"` // 1-based
	Tool    string `json:"tool,omitempty"`
	Program string `json:"program,omitempty"`
	Litmus  bool   `json:"litmus,omitempty"`
	Lo      int    `json:"lo,omitempty"`
	Hi      int    `json:"hi,omitempty"`

	Execs     int `json:"execs,omitempty"`
	Races     int `json:"races,omitempty"`
	Detected  int `json:"detected,omitempty"`
	Failures  int `json:"failures,omitempty"`
	Recorded  int `json:"recorded,omitempty"`
	Jobs      int `json:"jobs,omitempty"`
	Cells     int `json:"cells,omitempty"`
	Converged int `json:"converged,omitempty"`
	Count     int `json:"count,omitempty"`

	Seed    int64  `json:"seed,omitempty"`
	Key     string `json:"key,omitempty"`
	Desc    string `json:"desc,omitempty"`
	Outcome string `json:"outcome,omitempty"`
	Err     string `json:"error,omitempty"`
	Repro   string `json:"repro,omitempty"`
	// Analyzer labels "analyzer_finding" events (schema v7 campaigns).
	Analyzer string `json:"analyzer,omitempty"`

	// Converge belongs to "cell_converge_state".
	Converge *explore.TrackerState `json:"converge,omitempty"`

	Budget *BudgetSummary `json:"budget,omitempty"`
	Spec   *SpecInfo      `json:"spec,omitempty"`
}

// emit stamps and queues one event (no-op without an EventSink).
func (t *Telemetry) emit(ev Event) {
	if t.stream == nil {
		return
	}
	ev.V = obs.EventSchemaVersion
	if t.opts.Timestamps {
		ev.T = time.Now().UnixNano()
	}
	t.stream.Emit(ev)
}

// campaignStart emits the start event with the spec echo.
func (t *Telemetry) campaignStart(info SpecInfo) {
	t.emit(Event{Type: "campaign_start", Spec: &info})
}

// unitStart emits the cell_start event for one unit of work (a shard of a
// split grant, or a whole grant). budget is the unit's execution-index
// budget; the actual end lands in cell_end.
func (t *Telemetry) unitStart(wave int, j job, budget int) {
	t.emit(Event{Type: "cell_start", Wave: wave,
		Tool: t.spec.Tools[j.tool].Name, Program: t.spec.programOf(j.key()), Litmus: j.kind == jobLitmus,
		Lo: j.lo, Hi: j.lo + budget})
}

// unitDone folds one completed unit into the campaign-level progress state
// and, when an event stream is open, emits its events (emitUnit).
func (t *Telemetry) unitDone(wave int, j job, frag *fragment) {
	if t.stream != nil {
		t.emitUnit(wave, j, frag)
	}
	tool := t.spec.Tools[j.tool].Name
	t.mu.Lock()
	for key := range frag.Races {
		t.raceKeys[[2]string{tool, key}] = true
	}
	t.failures += frag.Failed
	t.execsDone += frag.Execs
	var line string
	if t.opts.Progress != nil && t.lineEvery > 0 && t.execsDone-t.lastLine >= t.lineEvery {
		t.lastLine = t.execsDone
		line = fmt.Sprintf("progress: %d/%d execs, %d distinct race(s), %d failure(s)\n",
			t.execsDone, t.execsPlanned, len(t.raceKeys), t.failures)
	}
	t.mu.Unlock()
	if line != "" {
		fmt.Fprint(t.opts.Progress, line)
	}
}

// emitUnit emits one completed unit's events: race_first_seen (per race key
// new to the unit's tool instance, with the repro triple of the unit's
// earliest execution showing it), analyzer_finding (per deduplicated
// finding, repro flags including the -analyzers selection),
// forbidden_outcome, engine_failure, trace_recorded (the unit's trace files)
// and cell_end.
// All event contents derive from the fragment — a pure function of the job —
// so the event set is identical for any worker count; only line order
// varies.
func (t *Telemetry) emitUnit(wave int, j job, frag *fragment) {
	toolSpec := t.spec.Tools[j.tool]
	program := t.spec.programOf(j.key())
	litmus := j.kind == jobLitmus

	repro := func(run int) string {
		return harness.Repro{Tool: toolSpec.Name, Program: program,
			Seed: t.spec.SeedBase + int64(run), Litmus: litmus,
			Flags: toolSpec.ReproFlags}.Command()
	}
	for _, key := range harness.SortedKeys(frag.Races) {
		hit := frag.Races[key]
		t.emit(Event{Type: "race_first_seen", Wave: wave,
			Tool: toolSpec.Name, Program: program, Litmus: litmus,
			Key: key, Desc: hit.Desc(),
			Seed: t.spec.SeedBase + int64(hit.Run), Repro: repro(hit.Run)})
	}
	for _, id := range sortedFindingIDs(frag.Findings) {
		hit := frag.Findings[id]
		t.emit(Event{Type: "analyzer_finding", Wave: wave,
			Tool: toolSpec.Name, Program: program, Litmus: litmus,
			Analyzer: id.analyzer, Key: id.key, Desc: hit.Desc(), Count: hit.Count,
			Seed: t.spec.SeedBase + int64(hit.Run),
			Repro: harness.Repro{Tool: toolSpec.Name, Program: program,
				Seed: t.spec.SeedBase + int64(hit.Run), Litmus: litmus,
				Flags: strings.TrimSpace(toolSpec.ReproFlags + " -analyzers " + id.analyzer)}.Command()})
	}
	for _, out := range harness.SortedKeys(frag.Forbidden) {
		first := frag.Forbidden[out]
		t.emit(Event{Type: "forbidden_outcome", Wave: wave,
			Tool: toolSpec.Name, Program: program, Litmus: true,
			Outcome: out, Count: frag.Outcomes[out],
			Seed: t.spec.SeedBase + int64(first), Repro: repro(first)})
	}
	for _, fl := range frag.Failures {
		t.emit(Event{Type: "engine_failure", Wave: wave,
			Tool: toolSpec.Name, Program: program, Litmus: litmus,
			Err: fl.Err, Seed: t.spec.SeedBase + int64(fl.Run), Repro: repro(fl.Run)})
	}
	recorded := 0
	for i := range frag.Captures {
		if frag.Captures[i].File != "" {
			recorded++
		}
	}
	if recorded > 0 {
		t.emit(Event{Type: "trace_recorded", Wave: wave,
			Tool: toolSpec.Name, Program: program, Litmus: litmus,
			Recorded: recorded, Lo: j.lo, Hi: j.hi})
	}
	t.emit(Event{Type: "cell_end", Wave: wave,
		Tool: toolSpec.Name, Program: program, Litmus: litmus,
		Lo: j.lo, Hi: j.hi, Execs: frag.Execs, Races: len(frag.Races),
		Detected: frag.Detected, Failures: frag.Failed})
}

// waveStart emits the wave_start event.
func (t *Telemetry) waveStart(wave, jobs int) {
	t.emit(Event{Type: "wave_start", Wave: wave, Jobs: jobs})
}

// cellConverged counts a newly converged cell and emits its event with the
// budget report so far.
func (t *Telemetry) cellConverged(wave int, k cellKey, used int) {
	t.mu.Lock()
	t.converged++
	t.mu.Unlock()
	extended := used - t.spec.Runs
	if extended < 0 {
		extended = 0
	}
	t.emit(Event{Type: "cell_converged", Wave: wave,
		Tool: t.spec.Tools[k.tool].Name, Program: t.spec.programOf(k), Litmus: k.kind == jobLitmus,
		Budget: &BudgetSummary{Planned: t.spec.Runs, Used: used, Extended: extended, Converged: true}})
}

// convergeState emits one cell's cell_converge_state event. The wave loop
// calls it at the wave barrier — a single-threaded point where the tracker
// has folded exactly the wave's observations in index order — so the event
// is a pure function of the cell's observation stream, identical for any
// worker count. Trackers that cannot explain themselves (Uniform) are
// skipped.
func (t *Telemetry) convergeState(wave int, k cellKey, tracker explore.Tracker) {
	in, ok := tracker.(explore.Introspector)
	if !ok || t.stream == nil {
		return
	}
	st := in.State()
	t.emit(Event{Type: "cell_converge_state", Wave: wave,
		Tool: t.spec.Tools[k.tool].Name, Program: t.spec.programOf(k), Litmus: k.kind == jobLitmus,
		Converge: &st})
}

// cells counts the bound matrix's cells.
func (t *Telemetry) cells() int {
	return len(t.spec.Tools) * (len(t.spec.Benchmarks) + len(t.spec.Litmus))
}

// waveEnd emits the wave_end event and prints the per-wave progress line.
func (t *Telemetry) waveEnd(wave, jobs, waveExecs int) {
	t.mu.Lock()
	done, races, conv, fails := t.execsDone, len(t.raceKeys), t.converged, t.failures
	t.mu.Unlock()
	cells := t.cells()
	t.emit(Event{Type: "wave_end", Wave: wave, Jobs: jobs, Execs: waveExecs,
		Cells: cells, Converged: conv})
	if t.opts.Progress != nil {
		fmt.Fprintf(t.opts.Progress, "wave %d: %d/%d execs, %d/%d cells converged, %d distinct race(s), %d failure(s)\n",
			wave, done, t.execsPlanned, conv, cells, races, fails)
	}
}

// campaignEnd emits the final event and closes the stream, flushing every
// buffered line. Run calls it last.
func (t *Telemetry) campaignEnd(execs int) {
	t.mu.Lock()
	races, conv, fails := len(t.raceKeys), t.converged, t.failures
	t.mu.Unlock()
	t.emit(Event{Type: "campaign_end", Execs: execs, Races: races,
		Failures: fails, Cells: t.cells(), Converged: conv})
	if t.stream != nil {
		_ = t.stream.Close()
	}
}

// WriteEngineFailures prints every sampled engine-failure repro triple of a
// summary to w, one "ENGINE FAILURE" block per sample. It is the shared
// formatting helper of the c11tester and litmus CLIs (both print to stderr),
// and returns the total failure count across all tools.
func WriteEngineFailures(w io.Writer, s *Summary) int {
	total := 0
	for _, ts := range s.Tools {
		total += ts.EngineFailures
		for _, f := range ts.FailureSamples {
			fmt.Fprintf(w, "%s: ENGINE FAILURE: %s\n  repro: %s\n", ts.Tool, f.Error, f.Repro.Command())
		}
	}
	return total
}
