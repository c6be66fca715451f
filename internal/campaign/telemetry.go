package campaign

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/harness"
	"c11tester/internal/obs"
)

// Histogram bucket bounds shared by every cell of a campaign. Exponential
// base-2 bounds: execution latency and handoff wait from 1 µs to ~0.5 s,
// schedule length and choices from 8 to ~4M (the MaxSteps default).
var (
	nsBuckets    = obs.ExpBuckets(1<<10, 20)
	stepsBuckets = obs.ExpBuckets(8, 20)
)

// sampledHelp ends the /metrics help text of the histograms fed only by
// timed executions.
var sampledHelp = fmt.Sprintf(", sampled every %dth execution index", timingSample)

// CellMetrics is the pre-bound metric handle set of one (tool, program)
// cell, registered at campaign setup. Shards of the same cell share one
// handle set (the counters are atomic), and the per-execution observation
// path allocates nothing — the property TestZeroAllocSteadyState pins with
// instrumentation enabled.
type CellMetrics struct {
	Execs    *obs.Counter
	Detected *obs.Counter
	Races    *obs.Counter // race reports first seen by the unit's tool instance
	Failures *obs.Counter

	ExecNS    *obs.Histogram
	SchedLen  *obs.Histogram
	Choices   *obs.Histogram
	HandoffNS *obs.Histogram

	// PhaseNS are the per-phase span histograms (schema v5 forensics),
	// indexed by core.Phase. Like HandoffNS they observe only the timed
	// executions — every timingSample-th execution index. The engine phases
	// (reset, run, race) are fed by ObserveExec; validate and record are
	// campaign duties observed by the runner's stages, so their counts track
	// timed duty executions.
	PhaseNS [core.NumPhases]*obs.Histogram

	// Findings counts analyzer finding hits, parallel to Spec.Analyzers
	// (empty for campaigns without analyzers — the default set registers no
	// instruments and keeps the hot path allocation-free). cellAnalyzer.ix
	// indexes this slice even when some analyzers were skipped on the cell.
	Findings []*obs.Counter
}

// ObserveExec folds one completed execution into the cell's metrics: its
// wall time, and — when the tool is an engine — its schedule length and
// choice count, plus its handoff wait and engine phase spans when the
// execution was timed (sampleTiming). The same method serves the campaign hot
// path and the zero-alloc test, so the pinned path is exactly the shipped
// path.
func (m *CellMetrics) ObserveExec(d time.Duration, eng *core.Engine) {
	m.Execs.Inc()
	m.ExecNS.Observe(uint64(d))
	if eng != nil {
		st := eng.ExecStats()
		m.SchedLen.Observe(st.Steps)
		m.Choices.Observe(st.Choices)
		if eng.PhaseTiming() {
			m.HandoffNS.Observe(uint64(st.HandoffWaitNS))
			m.PhaseNS[core.PhaseReset].Observe(uint64(st.PhaseNS[core.PhaseReset]))
			m.PhaseNS[core.PhaseRun].Observe(uint64(st.PhaseNS[core.PhaseRun]))
			m.PhaseNS[core.PhaseRace].Observe(uint64(st.PhaseNS[core.PhaseRace]))
		}
	}
}

// TelemetryOptions configures a campaign's telemetry fabric.
type TelemetryOptions struct {
	// EventSink receives the structured JSONL event stream; nil disables
	// events (metrics stay on — they are free).
	EventSink io.Writer
	// EventEcho receives a copy of every event line (the CLI -v flag).
	EventEcho io.Writer
	// EventDepth bounds the drainer channel; 0 means obs.DefaultStreamDepth.
	EventDepth int
	// Progress receives human-readable one-line wave/progress summaries
	// (the CLI writes stderr here unless -q); nil disables them.
	Progress io.Writer
	// Timestamps stamps events with wall-clock UnixNano times. Off, event
	// streams are byte-comparable across runs (the determinism tests rely
	// on this); on, consumers get real times.
	Timestamps bool
}

// Telemetry is one campaign's observability fabric: the metric registry with
// its per-cell handles, the event stream, and the live progress state behind
// /progress. Create one per campaign.Run; Run binds it to the spec's matrix,
// drives it, and closes the event stream before returning (the EventSink
// writer itself stays open — its opener owns it).
type Telemetry struct {
	opts   TelemetryOptions
	reg    *obs.Registry
	stream *obs.Stream

	// Campaign-level instruments.
	wavesC     *obs.Counter
	emittedG   *obs.Gauge
	droppedG   *obs.Gauge
	racesG     *obs.Gauge
	convergedG *obs.Gauge
	plannedG   *obs.Gauge

	// Matrix binding (bind). benchMet[t][c] / litMet[t][c] parallel
	// Spec.Benchmarks and Spec.Litmus per tool.
	bound    bool
	spec     Spec
	benchMet [][]*CellMetrics
	litMet   [][]*CellMetrics

	mu            sync.Mutex
	start         time.Time
	running       bool
	waves         int
	raceKeys      map[[2]string]bool // {tool, key} — campaign-distinct races
	failures      int
	converged     map[cellKey]bool
	convergeSnaps map[cellKey]*explore.TrackerState
	provenance    *Provenance
	execsPlanned  int
	// Trailing-throughput ring for the /progress ETA.
	samples   []progressSample
	sampleAt  int
	lastLine  int // execsDone at the last periodic progress line
	lineEvery int
}

type progressSample struct {
	at    time.Time
	execs uint64
}

const progressSampleRing = 64

// NewTelemetry returns a telemetry fabric ready to be passed via
// Spec.Telemetry. The registry exists immediately (so a status server can
// start before the campaign); per-cell handles appear when Run binds it.
func NewTelemetry(opts TelemetryOptions) *Telemetry {
	t := &Telemetry{
		opts:          opts,
		reg:           obs.NewRegistry(),
		raceKeys:      map[[2]string]bool{},
		converged:     map[cellKey]bool{},
		convergeSnaps: map[cellKey]*explore.TrackerState{},
		provenance:    BuildProvenance(),
	}
	t.wavesC = t.reg.Counter("c11_campaign_waves_total", "campaign waves completed")
	t.emittedG = t.reg.Gauge("c11_campaign_events_emitted", "structured events queued to the stream")
	t.droppedG = t.reg.Gauge("c11_campaign_events_dropped", "structured events dropped (bounded channel full)")
	t.racesG = t.reg.Gauge("c11_campaign_distinct_races", "distinct race keys observed so far")
	t.convergedG = t.reg.Gauge("c11_campaign_cells_converged", "cells whose statistics converged")
	t.plannedG = t.reg.Gauge("c11_campaign_execs_planned", "planned executions (runs × cells)")
	if opts.EventSink != nil {
		t.stream = obs.NewStream(opts.EventSink, opts.EventEcho, opts.EventDepth)
	}
	return t
}

// Registry returns the metric registry (the obs.Server's /metrics source).
func (t *Telemetry) Registry() *obs.Registry { return t.reg }

// EventsEmitted and EventsDropped report the stream counters (both zero when
// no EventSink was configured).
func (t *Telemetry) EventsEmitted() uint64 {
	if t.stream == nil {
		return 0
	}
	return t.stream.Emitted()
}

// EventsDropped reports events lost to a full drainer channel; any nonzero
// value fails the campaign's observability gate.
func (t *Telemetry) EventsDropped() uint64 {
	if t.stream == nil {
		return 0
	}
	return t.stream.Dropped()
}

// syncEvents flushes every queued event line through to the sink. Checkpoint
// writes call it so a persisted barrier never references events still in the
// drainer's buffer.
func (t *Telemetry) syncEvents() {
	if t.stream != nil {
		_ = t.stream.Sync()
	}
}

// bind registers the per-cell metric handles for spec's matrix. Run calls it
// once; binding a Telemetry to a second campaign is a programming error.
func (t *Telemetry) bind(spec Spec) {
	if t.bound {
		panic("campaign: Telemetry bound to a second campaign; create one per Run")
	}
	t.bound = true
	t.spec = spec
	newCell := func(tool, program string) *CellMetrics {
		lt := obs.Label{Name: "tool", Value: tool}
		lp := obs.Label{Name: "program", Value: program}
		m := &CellMetrics{
			Execs:     t.reg.Counter("c11_cell_execs_total", "executions completed", lt, lp),
			Detected:  t.reg.Counter("c11_cell_detected_total", "executions that hit the cell's detection signal", lt, lp),
			Races:     t.reg.Counter("c11_cell_races_total", "race reports first seen by a unit's tool instance", lt, lp),
			Failures:  t.reg.Counter("c11_cell_failures_total", "executions the tool aborted (infeasible model state)", lt, lp),
			ExecNS:    t.reg.Histogram("c11_cell_exec_ns", "wall time per execution (ns)", nsBuckets, lt, lp),
			SchedLen:  t.reg.Histogram("c11_cell_sched_len", "schedule length (visible operations) per execution", stepsBuckets, lt, lp),
			Choices:   t.reg.Histogram("c11_cell_choices", "strategy decisions per execution", stepsBuckets, lt, lp),
			HandoffNS: t.reg.Histogram("c11_cell_handoff_wait_ns", "scheduler handoff wait per execution (ns)"+sampledHelp, nsBuckets, lt, lp),
		}
		for p := 0; p < core.NumPhases; p++ {
			m.PhaseNS[p] = t.reg.Histogram("c11_cell_phase_ns", "per-phase span time per execution (ns)"+sampledHelp,
				nsBuckets, lt, lp, obs.Label{Name: "phase", Value: core.Phase(p).String()})
		}
		for _, name := range spec.Analyzers {
			m.Findings = append(m.Findings, t.reg.Counter("c11_analyzer_findings_total",
				"analyzer finding hits", lt, lp, obs.Label{Name: "analyzer", Value: name}))
		}
		return m
	}
	t.benchMet = make([][]*CellMetrics, len(spec.Tools))
	t.litMet = make([][]*CellMetrics, len(spec.Tools))
	for i, tool := range spec.Tools {
		t.benchMet[i] = make([]*CellMetrics, len(spec.Benchmarks))
		for b, bench := range spec.Benchmarks {
			t.benchMet[i][b] = newCell(tool.Name, bench.Name)
		}
		t.litMet[i] = make([]*CellMetrics, len(spec.Litmus))
		for l, test := range spec.Litmus {
			t.litMet[i][l] = newCell(tool.Name, test.Name)
		}
	}
	// A sharded run only plans its share of each cell's chunk sequence (every
	// cell deals identically, so one cell's share scales).
	cellExecs := 0
	for _, c := range chunkDeal(spec) {
		cellExecs += c[1] - c[0]
	}
	t.execsPlanned = cellExecs * len(spec.Tools) * (len(spec.Benchmarks) + len(spec.Litmus))
	t.plannedG.Set(int64(t.execsPlanned))
	// Aim for ~10 periodic progress lines on uniform campaigns; wave
	// barriers print their own lines either way.
	t.lineEvery = t.execsPlanned / 10
	if t.lineEvery < spec.ShardSize {
		t.lineEvery = spec.ShardSize
	}
}

// cellMetrics returns the pre-bound handles for one job's cell.
func (t *Telemetry) cellMetrics(j job) *CellMetrics {
	if !t.bound {
		return nil
	}
	if j.kind == jobLitmus {
		return t.litMet[j.tool][j.cell]
	}
	return t.benchMet[j.tool][j.cell]
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

	// Trigger and File belong to "capture" events (the flight recorder's
	// manifest entries, re-emitted on the stream so a live consumer sees
	// captures as they land); Converge belongs to "cell_converge_state".
	Trigger  string                `json:"trigger,omitempty"`
	File     string                `json:"file,omitempty"`
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
	t.emittedG.Set(int64(t.stream.Emitted()))
	t.droppedG.Set(int64(t.stream.Dropped()))
}

// campaignStart marks the campaign running and emits the start event with
// the spec echo.
func (t *Telemetry) campaignStart(info SpecInfo) {
	t.mu.Lock()
	t.start = time.Now()
	t.running = true
	t.mu.Unlock()
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
	t.racesG.Set(int64(len(t.raceKeys)))
	t.failures += frag.Failed
	done := t.execsDoneLocked()
	t.samples = append(t.samples, progressSample{at: time.Now(), execs: done})
	if len(t.samples) > progressSampleRing {
		t.samples = t.samples[len(t.samples)-progressSampleRing:]
	}
	var line string
	if t.opts.Progress != nil && t.lineEvery > 0 && int(done)-t.lastLine >= t.lineEvery {
		t.lastLine = int(done)
		line = fmt.Sprintf("progress: %d/%d execs, %d distinct race(s), %d failure(s)\n",
			done, t.execsPlanned, len(t.raceKeys), t.failures)
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
// forbidden_outcome, engine_failure, trace_recorded, capture and cell_end.
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
			Key: key, Desc: hit.Desc,
			Seed: t.spec.SeedBase + int64(hit.Run), Repro: repro(hit.Run)})
	}
	for _, id := range sortedFindingIDs(frag.Findings) {
		hit := frag.Findings[id]
		t.emit(Event{Type: "analyzer_finding", Wave: wave,
			Tool: toolSpec.Name, Program: program, Litmus: litmus,
			Analyzer: id.analyzer, Key: id.key, Desc: hit.Desc, Count: hit.Count,
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
	if frag.Recorded > 0 {
		t.emit(Event{Type: "trace_recorded", Wave: wave,
			Tool: toolSpec.Name, Program: program, Litmus: litmus,
			Recorded: frag.Recorded, Lo: j.lo, Hi: j.hi})
	}
	for i := range frag.Captures {
		c := &frag.Captures[i]
		t.emit(Event{Type: "capture", Wave: wave,
			Tool: c.Tool, Program: c.Program, Litmus: c.Litmus,
			Seed: c.Seed, Trigger: c.Trigger, File: c.File,
			Outcome: c.Outcome, Err: c.Err, Repro: c.Repro})
	}
	t.emit(Event{Type: "cell_end", Wave: wave,
		Tool: toolSpec.Name, Program: program, Litmus: litmus,
		Lo: j.lo, Hi: j.hi, Execs: frag.Execs, Races: len(frag.Races),
		Detected: frag.Detected, Failures: frag.Failed})
}

// execsDoneLocked sums the per-cell execution counters (caller holds mu; the
// counters themselves are atomics updated by workers).
func (t *Telemetry) execsDoneLocked() uint64 {
	var n uint64
	for _, row := range t.benchMet {
		for _, m := range row {
			n += m.Execs.Load()
		}
	}
	for _, row := range t.litMet {
		for _, m := range row {
			n += m.Execs.Load()
		}
	}
	return n
}

// waveStart emits the wave_start event.
func (t *Telemetry) waveStart(wave, jobs int) {
	t.emit(Event{Type: "wave_start", Wave: wave, Jobs: jobs})
}

// cellConverged records a newly converged cell and emits its event with the
// budget report so far.
func (t *Telemetry) cellConverged(wave int, k cellKey, used int) {
	t.mu.Lock()
	t.converged[k] = true
	t.convergedG.Set(int64(len(t.converged)))
	t.mu.Unlock()
	extended := used - t.spec.Runs
	if extended < 0 {
		extended = 0
	}
	t.emit(Event{Type: "cell_converged", Wave: wave,
		Tool: t.spec.Tools[k.tool].Name, Program: t.spec.programOf(k), Litmus: k.kind == jobLitmus,
		Budget: &BudgetSummary{Planned: t.spec.Runs, Used: used, Extended: extended, Converged: true}})
}

// convergeState snapshots one cell's tracker for /debug/converge and emits
// the cell_converge_state event. The wave loop calls it at the wave
// barrier — a single-threaded point where the tracker has folded exactly the
// wave's observations in index order — so the snapshot (and the event) is a
// pure function of the cell's observation stream, identical for any worker
// count. Trackers that cannot explain themselves (Uniform) are skipped.
func (t *Telemetry) convergeState(wave int, k cellKey, tracker explore.Tracker) {
	in, ok := tracker.(explore.Introspector)
	if !ok {
		return
	}
	st := in.State()
	t.mu.Lock()
	t.convergeSnaps[k] = &st
	t.mu.Unlock()
	t.emit(Event{Type: "cell_converge_state", Wave: wave,
		Tool: t.spec.Tools[k.tool].Name, Program: t.spec.programOf(k), Litmus: k.kind == jobLitmus,
		Converge: &st})
}

// ConvergeCell is one cell's row in the /debug/converge payload.
type ConvergeCell struct {
	Tool    string                `json:"tool"`
	Program string                `json:"program"`
	Litmus  bool                  `json:"litmus,omitempty"`
	State   *explore.TrackerState `json:"state"`
}

// ConvergeSnapshot returns the latest per-cell tracker snapshots in canonical
// matrix order (tool-major, benchmarks before litmus) — the /debug/converge
// payload. Cells whose tracker has not reached a wave barrier yet (or whose
// policy has no introspection) are omitted.
func (t *Telemetry) ConvergeSnapshot() []ConvergeCell {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []ConvergeCell
	if !t.bound {
		return out
	}
	add := func(kind jobKind, ti, ci int, program string) {
		if st := t.convergeSnaps[cellKey{kind: kind, tool: ti, cell: ci}]; st != nil {
			out = append(out, ConvergeCell{
				Tool: t.spec.Tools[ti].Name, Program: program,
				Litmus: kind == jobLitmus, State: st})
		}
	}
	for ti := range t.spec.Tools {
		for b, bench := range t.spec.Benchmarks {
			add(jobBench, ti, b, bench.Name)
		}
		for l, test := range t.spec.Litmus {
			add(jobLitmus, ti, l, test.Name)
		}
	}
	return out
}

// waveEnd emits the wave_end event, bumps the wave counter, and prints the
// per-wave progress line.
func (t *Telemetry) waveEnd(wave, jobs, waveExecs int) {
	t.wavesC.Inc()
	t.mu.Lock()
	t.waves = wave
	done := t.execsDoneLocked()
	races := len(t.raceKeys)
	conv := len(t.converged)
	fails := t.failures
	cells := 0
	if t.bound {
		cells = len(t.spec.Tools) * (len(t.spec.Benchmarks) + len(t.spec.Litmus))
	}
	t.mu.Unlock()
	t.emit(Event{Type: "wave_end", Wave: wave, Jobs: jobs, Execs: waveExecs,
		Cells: cells, Converged: conv})
	if t.opts.Progress != nil {
		fmt.Fprintf(t.opts.Progress, "wave %d: %d/%d execs, %d/%d cells converged, %d distinct race(s), %d failure(s)\n",
			wave, done, t.execsPlanned, conv, cells, races, fails)
	}
}

// campaignEnd emits the final event and stops the stream, waiting for the
// drainer to flush everything queued. Run calls it last.
func (t *Telemetry) campaignEnd(execs int) {
	t.mu.Lock()
	t.running = false
	races := len(t.raceKeys)
	conv := len(t.converged)
	fails := t.failures
	cells := 0
	if t.bound {
		cells = len(t.spec.Tools) * (len(t.spec.Benchmarks) + len(t.spec.Litmus))
	}
	t.mu.Unlock()
	t.emit(Event{Type: "campaign_end", Execs: execs, Races: races,
		Failures: fails, Cells: cells, Converged: conv})
	if t.stream != nil {
		_ = t.stream.Close()
		t.emittedG.Set(int64(t.stream.Emitted()))
		t.droppedG.Set(int64(t.stream.Dropped()))
	}
}

// ProgressCell is one cell's row in the /progress snapshot.
type ProgressCell struct {
	Tool      string `json:"tool"`
	Program   string `json:"program"`
	Litmus    bool   `json:"litmus,omitempty"`
	Done      uint64 `json:"done"`
	Planned   int    `json:"planned"`
	Races     uint64 `json:"races"`
	Failures  uint64 `json:"failures"`
	Converged bool   `json:"converged,omitempty"`
	MeanNS    uint64 `json:"mean_ns,omitempty"`
}

// ProgressSnapshot is the /progress payload: campaign totals, an ETA from
// trailing throughput, and per-cell progress. Planned counts are the initial
// per-cell budget (adaptive policies may stop cells early or extend them).
type ProgressSnapshot struct {
	Running        bool           `json:"running"`
	WallNS         int64          `json:"wall_ns"`
	ExecsDone      uint64         `json:"execs_done"`
	ExecsPlanned   int            `json:"execs_planned"`
	ExecsPerSec    float64        `json:"execs_per_sec"`
	ETANS          int64          `json:"eta_ns,omitempty"`
	Waves          int            `json:"waves"`
	DistinctRaces  int            `json:"races"`
	Failures       int            `json:"failures"`
	CellsConverged int            `json:"cells_converged"`
	EventsEmitted  uint64         `json:"events_emitted"`
	EventsDropped  uint64         `json:"events_dropped"`
	Provenance     *Provenance    `json:"provenance,omitempty"`
	Cells          []ProgressCell `json:"cells,omitempty"`
}

// Progress builds the live snapshot behind /progress. The rate (and the ETA
// derived from it) comes from the trailing sample ring — recent unit
// completions — so it tracks the current throughput, not the campaign mean.
func (t *Telemetry) Progress() *ProgressSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &ProgressSnapshot{
		Running:        t.running,
		ExecsPlanned:   t.execsPlanned,
		Waves:          t.waves,
		DistinctRaces:  len(t.raceKeys),
		Failures:       t.failures,
		CellsConverged: len(t.converged),
		EventsEmitted:  t.EventsEmitted(),
		EventsDropped:  t.EventsDropped(),
		Provenance:     t.provenance,
	}
	if !t.start.IsZero() {
		s.WallNS = int64(time.Since(t.start))
	}
	if !t.bound {
		return s
	}
	s.ExecsDone = t.execsDoneLocked()
	if n := len(t.samples); n >= 2 {
		first, last := t.samples[0], t.samples[n-1]
		if dt := last.at.Sub(first.at); dt > 0 && last.execs > first.execs {
			s.ExecsPerSec = float64(last.execs-first.execs) / dt.Seconds()
			if remaining := t.execsPlanned - int(s.ExecsDone); remaining > 0 && s.Running {
				s.ETANS = int64(float64(remaining) / s.ExecsPerSec * float64(time.Second))
			}
		}
	}
	cell := func(kind jobKind, toolIdx, cellIdx int, program string, m *CellMetrics) ProgressCell {
		return ProgressCell{
			Tool: t.spec.Tools[toolIdx].Name, Program: program, Litmus: kind == jobLitmus,
			Done: m.Execs.Load(), Planned: t.spec.Runs,
			Races: m.Races.Load(), Failures: m.Failures.Load(),
			Converged: t.converged[cellKey{kind: kind, tool: toolIdx, cell: cellIdx}],
			MeanNS:    meanOf(m.ExecNS),
		}
	}
	for ti := range t.spec.Tools {
		for b, bench := range t.spec.Benchmarks {
			s.Cells = append(s.Cells, cell(jobBench, ti, b, bench.Name, t.benchMet[ti][b]))
		}
		for l, test := range t.spec.Litmus {
			s.Cells = append(s.Cells, cell(jobLitmus, ti, l, test.Name, t.litMet[ti][l]))
		}
	}
	return s
}

func meanOf(h *obs.Histogram) uint64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / n
	}
	return 0
}

// cellSnapshots returns one cell's final ns/exec histogram (the schema v4
// summary payload) and its per-phase span histograms keyed by phase name
// (schema v5). Phases with no observations — every phase when phase timing
// was off, validate/record when the campaign had no such duties — are
// omitted; phases is nil when nothing was observed at all. Both are nil for
// an unbound telemetry.
func (t *Telemetry) cellSnapshots(k cellKey) (timing *obs.HistogramSnapshot, phases map[string]*obs.HistogramSnapshot) {
	m := t.cellMetrics(job{kind: k.kind, tool: k.tool, cell: k.cell})
	if m == nil {
		return nil, nil
	}
	for p := 0; p < core.NumPhases; p++ {
		if m.PhaseNS[p].Count() == 0 {
			continue
		}
		if phases == nil {
			phases = make(map[string]*obs.HistogramSnapshot, core.NumPhases)
		}
		phases[core.Phase(p).String()] = m.PhaseNS[p].Snapshot()
	}
	return m.ExecNS.Snapshot(), phases
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
