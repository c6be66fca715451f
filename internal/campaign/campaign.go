// Package campaign runs exploration campaigns: (tool × program × N
// executions) matrices like the ones behind the paper's Tables 1–4, sharded
// across a pool of worker goroutines.
//
// The campaign runner is built around one invariant: execution i of a
// (tool, program) cell always runs with seed SeedBase+i, and every tool in
// this repository re-derives all scheduling and reads-from choices from its
// seed, so the outcome of an execution is a pure function of (tool, program,
// seed). Sharding therefore only changes *when* an execution runs, never
// *what* it produces, and a K-worker campaign aggregates to byte-identical
// results as a serial one (wall-clock timings excepted — those are
// measurements, not model outcomes). The determinism test in this package
// pins that property. Budget policies (internal/explore) preserve it: a
// cell's stop point is a pure function of its own observation stream in
// index order, and the freed-budget redistribution is computed at
// deterministic barriers between waves, so adaptive campaigns are as
// worker-count-independent as uniform ones. Trace-guided cells preserve it
// too: the replayed prefix depth is derived from the execution's seed.
//
// One wave loop runs every campaign: each wave grants cells budgets, runs
// them across the worker pool, and meets at a barrier. A grant splits into
// shards — contiguous ShardSize execution-index ranges of one cell — only
// when the policy never stops a cell early (uniform); otherwise it is one
// unit, run chunk-by-chunk with convergence checks between chunks. Either
// way each unit runs its execution indices serially on its worker's own
// instance of the cell's tool (tool instances reuse their buffers and are
// not goroutine-safe). Each worker keeps one warm instance per tool for the
// whole campaign and rearms it at every unit start (core.Engine.Rearm), so a
// unit observes exactly what a freshly constructed tool would. Each worker
// likewise keeps one runner per cell — its program instance, analyzers and
// stage list built on the cell's first unit — and arms it again at every
// later unit start (cellRunner.arm). A unit's fragment folds into its
// runner's per-cell accumulator as the unit ends. Aggregation merges
// fragments with order-independent operations only — sums, unions,
// min-by-execution-index winners for reproduction metadata, and sample lists
// capped to their smallest execution indices (fragment.merge). That one fold
// serves units, workers, resumed artifacts and shard merges alike, and it
// carries the per-cell histograms too (see hists).
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"c11tester/internal/analysis"
	"c11tester/internal/axiom"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
	"c11tester/internal/trace"
)

// ToolSpec names a tool and knows how to build fresh instances of it.
type ToolSpec struct {
	Name string
	// New constructs a fresh tool instance, which must be a *core.Engine.
	// Every campaign worker calls it once and rearms the instance at every
	// later unit, so implementations must be safe to call concurrently (the
	// instances themselves are confined to one worker).
	New func() capi.Tool
	// Baseline marks the tsan11-family tools, for which a litmus test's
	// BaselineForbidden outcomes are forbidden in addition to Forbidden
	// (the fragment gap of Section 1.1).
	Baseline bool
}

// BenchmarkSpec is one program cell of the campaign matrix.
type BenchmarkSpec struct {
	Name string
	// New builds a fresh program instance. Instances carry reusable state
	// across executions (see structures.Benchmark), so each campaign worker
	// builds its own per cell, exactly as it builds its own tool instance.
	New func() capi.Program
	// Signal selects which bug signal counts as a detection for this
	// benchmark (races for the data-structure suite, assertion violations
	// for the injected-bug suite).
	Signal harness.Signal
}

// Spec describes a campaign.
type Spec struct {
	Tools      []ToolSpec
	Benchmarks []BenchmarkSpec
	Litmus     []*litmus.Test
	// Runs is the number of executions per (tool, program) cell — under an
	// adaptive policy, the cell's initial budget.
	Runs int
	// SeedBase seeds execution i of every cell with SeedBase+i.
	SeedBase int64
	// Workers sizes the worker pool; 0 means GOMAXPROCS.
	Workers int
	// ShardSize is the number of executions per shard; 0 means 25.
	ShardSize int
	// Policy selects the per-cell budget policy (internal/explore). Nil
	// means uniform: every cell runs exactly Runs executions. The converge
	// policy may stop a cell early once its statistics converge and
	// reassigns the freed budget to still-diverging cells, keeping the
	// campaign total at most Runs × cells.
	Policy *explore.Converge
	// Guides supplies recorded traces for trace-guided exploration: engine
	// cells whose (tool, program) matches a loaded trace replay a prefix of
	// its schedule before handing control to the live strategy (see
	// trace.PrefixGuide). Execution i of a guided cell follows trace i mod
	// len(traces), with the prefix depth drawn from the execution's seed.
	Guides *GuideSet
	// RecordDir, when non-empty, arms the trace sink: every execution a
	// trigger of RecordOn owes a trace is recorded there as a portable trace
	// (internal/trace) as it completes, and Run indexes the directory with a
	// canonical manifest.json (obs.Manifest). RecordOn defaults to
	// obs.TriggerHit, the executions bearing a detection signal, race or
	// forbidden outcome; see obs.Trigger for the others. Each unit of work
	// decides from its own executions' digests, in index order, so the
	// directory is identical for any worker count.
	RecordDir string
	RecordOn  obs.Triggers
	// ValidateAxioms checks every execution of a tool whose memory model
	// exposes total modification orders (core.MOProvider) against the
	// axiomatic model of Appendix A, counting violations in the summary;
	// executions of other tools are counted as skipped.
	ValidateAxioms bool
	// Analyzers names the internal/analysis plug-ins to run over every
	// finished execution (e.g. "sc-robustness", "atomicity"). Each worker
	// builds one instance per cell; analyzers whose trace or modification-order
	// needs the cell's tool cannot meet are skipped on that cell, mirroring
	// how validation skips non-MOProvider tools. Findings are deduplicated
	// per (analyzer, cell, key) with min-seed repro winners and merged
	// across shards exactly like races. Empty (the default) composes no
	// analyzer stage — the default pipeline is byte-identical to the
	// pre-analyzer runner, and stays allocation-free.
	Analyzers []string
	// Progress receives the human-readable progress lines: one per wave
	// barrier and about ten periodic ones (cmd/c11tester writes stderr here
	// unless -q). Nil prints none.
	Progress io.Writer `json:"-"`
	// Shard restricts the campaign to shard Index of Count (uniform policy
	// only: its grants split into chunks because it never stops a cell
	// early): each cell's chunk sequence is dealt round-robin across the
	// shards, so the K partial runs cover exactly the seed set of the
	// single-machine run. The zero value (Count ≤ 1) runs everything. A
	// sharded run's artifact is its partial: MergeCheckpoints folds the K
	// of them into the artifact of the whole campaign, and resuming that
	// renders the single-machine artifact.
	Shard ShardSel
	// CheckpointPath, when non-empty, is where the campaign artifact
	// (Checkpoint, the -json file) is written atomically: at every wave
	// barrier that more waves follow, and once, Complete, when the campaign
	// ends. With RecordDir set, the record manifest is written before it at
	// each of those barriers. A failed barrier write never aborts the
	// campaign; it is counted (CheckpointErrors) and warned to stderr, and a
	// failed final write is the summary's WriteErr.
	CheckpointPath string
	// Resume, when non-nil, restores an artifact's state instead of starting
	// fresh: the runner re-enters at the first incomplete wave, and the
	// finished artifact is byte-identical (Summary.Canonical) to an
	// uninterrupted run's. Load with LoadCheckpoint, read the manifest
	// entries back and fold shards with MergeCheckpoints, and gate with
	// Checkpoint.ValidateAgainst — an artifact of a different spec refuses to
	// resume.
	Resume *Checkpoint `json:"-"`
	// checkpointHook observes every artifact just before it is written,
	// after the record manifest (fault-injection tests).
	checkpointHook func(*Checkpoint)
}

func (s Spec) withDefaults() Spec {
	if s.Workers <= 0 {
		s.Workers = runtime.GOMAXPROCS(0)
	}
	if s.ShardSize <= 0 {
		s.ShardSize = 25
	}
	if s.Runs < 0 {
		s.Runs = 0
	}
	if s.RecordDir != "" && s.RecordOn == 0 {
		s.RecordOn = obs.Of(obs.TriggerHit)
	}
	return s
}

// jobKind distinguishes benchmark shards from litmus shards.
type jobKind uint8

const (
	jobBench jobKind = iota
	jobLitmus
)

// job is one unit of work: a contiguous execution-index range of one cell.
type job struct {
	kind   jobKind
	tool   int // index into Spec.Tools
	cell   int // index into Spec.Benchmarks or Spec.Litmus
	lo, hi int // execution indices [lo, hi)
}

func (j job) key() cellKey { return cellKey{kind: j.kind, tool: j.tool, cell: j.cell} }

// raceHit is a deduplicated race with the earliest execution that showed it.
// It keeps the winning sighting's report by value: its LocName is a static
// program string and its other fields are plain values, so the copy aliases
// none of the storage tools recycle across Execute calls, and keeping it
// costs no allocation. The description is rendered only where one is
// written — the summary and the artifact's JSON. A hit restored from JSON keeps
// the rendered description instead.
type raceHit struct {
	report capi.RaceReport // the winning sighting; zero when restored
	desc   string          // the rendered description, when restored
	Run    int             // global execution index (seed = SeedBase+run)
}

// Desc renders the winning sighting's description (RaceReport.String).
func (h raceHit) Desc() string {
	if h.report == (capi.RaceReport{}) {
		return h.desc
	}
	return h.report.String()
}

// raceHitJSON is raceHit's JSON form.
type raceHitJSON struct {
	Desc string `json:"desc"`
	Run  int    `json:"run"`
}

func (h raceHit) MarshalJSON() ([]byte, error) {
	return json.Marshal(raceHitJSON{Desc: h.Desc(), Run: h.Run})
}

func (h *raceHit) UnmarshalJSON(b []byte) error {
	var j raceHitJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*h = raceHit{desc: j.Desc, Run: j.Run}
	return nil
}

// execFailure is one execution the tool itself aborted (core.InfeasibleError
// surfaced through capi.Result.EngineError, or an infeasible
// modification-order lifting hit while validating/recording the execution).
// Axiom-violation samples reuse it: Err is then the first violation.
type execFailure struct {
	Run int    `json:"run"` // global execution index (seed = SeedBase+run)
	Err string `json:"err"`
}

// findingID identifies one deduplicated analyzer finding within a cell —
// the analyzer's name plus the finding's key (analysis.Finding.Key). Its
// text form, "analyzer/key", keys the findings map in a fragment's JSON.
type findingID struct {
	analyzer string
	key      string
}

// MarshalText renders the id as "analyzer/key". Analyzer names hold no "/",
// so the first "/" separates the two even when the key contains one.
func (id findingID) MarshalText() ([]byte, error) {
	return []byte(id.analyzer + "/" + id.key), nil
}

// UnmarshalText parses MarshalText's form.
func (id *findingID) UnmarshalText(b []byte) error {
	analyzer, key, ok := strings.Cut(string(b), "/")
	if !ok {
		return fmt.Errorf("campaign: finding id %q: want \"analyzer/key\"", b)
	}
	id.analyzer, id.key = analyzer, key
	return nil
}

// findingHit is a deduplicated analyzer finding: the earliest execution that
// showed it (the repro winner, like raceHit) with that sighting's Finding,
// kept by value and described only where one is written, plus the number of
// executions that reproduced it. A hit restored from JSON keeps the rendered
// description instead. The JSON form is {"desc", "run", "count"}.
type findingHit struct {
	win   analysis.Finding // the winning sighting; nil Kind when restored
	desc  string           // the rendered description, when restored
	Run   int              // global execution index of the winner (seed = SeedBase+run)
	Count int
}

// Desc renders the winning sighting's description (analysis.Finding.Desc).
func (h findingHit) Desc() string {
	if h.win.Kind == nil {
		return h.desc
	}
	return h.win.Desc()
}

// findingHitJSON is findingHit's JSON form.
type findingHitJSON struct {
	Desc  string `json:"desc"`
	Run   int    `json:"run"`
	Count int    `json:"count"`
}

func (h findingHit) MarshalJSON() ([]byte, error) {
	return json.Marshal(findingHitJSON{Desc: h.Desc(), Run: h.Run, Count: h.Count})
}

func (h *findingHit) UnmarshalJSON(b []byte) error {
	var j findingHitJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*h = findingHit{desc: j.Desc, Run: j.Run, Count: j.Count}
	return nil
}

// fragment is the result of one unit of work. Fields are aggregated with
// order-independent merges only, which is what keeps the campaign
// deterministic under any worker count. Its JSON encoding is the form
// the artifact carries (CellCheckpoint.Frag): maps encode with sorted keys,
// so the encoding is canonical.
type fragment struct {
	Execs    int                `json:"execs"`
	Detected int                `json:"detected,omitempty"`
	Ops      capi.OpStats       `json:"ops"`
	Elapsed  time.Duration      `json:"elapsed_ns,omitempty"`
	Races    map[string]raceHit `json:"races,omitempty"` // keyed by RaceReport.Key()
	// litmus only:
	Outcomes  map[string]int `json:"outcomes,omitempty"`
	Forbidden map[string]int `json:"forbidden,omitempty"` // outcome → earliest global execution index
	Weak      map[string]int `json:"weak,omitempty"`
	// engine failures (see execFailure): Failed counts them, Failures
	// samples the earliest few by run.
	Failed   int           `json:"failed,omitempty"`
	Failures []execFailure `json:"failures,omitempty"`
	// guided-exploration statistics (cells running under a PrefixGuide):
	GuideTraces    int   `json:"guide_traces,omitempty"` // traces guiding the cell
	GuidedExecs    int   `json:"guided_execs,omitempty"`
	PrefixDepth    int64 `json:"prefix_depth,omitempty"`    // summed intended depths
	PrefixConsumed int64 `json:"prefix_consumed,omitempty"` // summed choices consumed before handoff
	Divergences    int   `json:"divergences,omitempty"`     // executions whose prefix diverged
	// validation duty (Spec.ValidateAxioms):
	Checked    int           `json:"checked,omitempty"`
	Skipped    int           `json:"skipped,omitempty"`
	Violations int           `json:"violations,omitempty"`
	VioSamples []execFailure `json:"vio_samples,omitempty"` // earliest few by run
	// analyzer findings (Spec.Analyzers), deduplicated per (analyzer, key)
	// with min-run winners; nil when no analyzer stage is composed.
	Findings map[findingID]findingHit `json:"findings,omitempty"`
	// the trace sink's manifest entries (Spec.RecordDir), in execution-index
	// order. The artifact leaves them to the record directory's manifest
	// and carries their counts: entries with a trace file, and entries whose
	// owed trace could not be recorded.
	Captures     []obs.CaptureRecord `json:"-"`
	Recorded     int                 `json:"recorded,omitempty"`
	RecordErrors int                 `json:"record_errors,omitempty"`
	// Hists are the cell's summary histograms. Unit fragments and runner
	// accumulators leave them nil (a unit observes into its runner's hists
	// instead); foldCells adds the runners' hists into the folded cell.
	Hists *hists `json:"hists,omitempty"`
}

// maxViolationSamples caps the axiom-violation and engine-failure details
// carried per fragment and per tool summary.
const maxViolationSamples = 5

// merge folds src into dst. It is the campaign's only fold of results:
// worker units into cells, a cell's completed jobs into its artifact cell,
// and shard artifacts' cells into the whole campaign's (MergeCheckpoints)
// all go through it. Fragments cover disjoint execution indices, and every
// field folds order-independently — sums, unions, min-run winners, max for
// the guide-trace count, and run-ordered lists capped to their smallest runs
// — so any merge order and any grouping of the same executions yield the
// same fragment.
func (dst *fragment) merge(src *fragment) {
	dst.Execs += src.Execs
	dst.Detected += src.Detected
	dst.Ops.Add(src.Ops)
	dst.Elapsed += src.Elapsed
	if dst.Races == nil {
		dst.Races = map[string]raceHit{}
	}
	for key, hit := range src.Races {
		if cur, seen := dst.Races[key]; !seen || hit.Run < cur.Run {
			dst.Races[key] = hit
		}
	}
	for out, n := range src.Outcomes {
		if dst.Outcomes == nil {
			dst.Outcomes = map[string]int{}
		}
		dst.Outcomes[out] += n
	}
	for out, first := range src.Forbidden {
		if dst.Forbidden == nil {
			dst.Forbidden = map[string]int{}
		}
		if cur, seen := dst.Forbidden[out]; !seen || first < cur {
			dst.Forbidden[out] = first
		}
	}
	for out, n := range src.Weak {
		if dst.Weak == nil {
			dst.Weak = map[string]int{}
		}
		dst.Weak[out] += n
	}
	dst.Failed += src.Failed
	dst.Failures = mergeRuns(dst.Failures, src.Failures, execFailure.runOf, maxViolationSamples)
	dst.GuideTraces = max(dst.GuideTraces, src.GuideTraces)
	dst.GuidedExecs += src.GuidedExecs
	dst.PrefixDepth += src.PrefixDepth
	dst.PrefixConsumed += src.PrefixConsumed
	dst.Divergences += src.Divergences
	dst.Checked += src.Checked
	dst.Skipped += src.Skipped
	dst.Violations += src.Violations
	dst.VioSamples = mergeRuns(dst.VioSamples, src.VioSamples, execFailure.runOf, maxViolationSamples)
	for id, hit := range src.Findings {
		if dst.Findings == nil {
			dst.Findings = map[findingID]findingHit{}
		}
		if cur, seen := dst.Findings[id]; seen {
			if hit.Run < cur.Run {
				cur.win, cur.desc, cur.Run = hit.win, hit.desc, hit.Run
			}
			cur.Count += hit.Count
			dst.Findings[id] = cur
		} else {
			dst.Findings[id] = hit
		}
	}
	dst.Captures = mergeRuns(dst.Captures, src.Captures, func(c obs.CaptureRecord) int { return c.Index },
		len(dst.Captures)+len(src.Captures))
	dst.Recorded += src.Recorded
	dst.RecordErrors += src.RecordErrors
	if src.Hists != nil {
		dst.addHists(src.Hists)
	}
}

// addHists adds h into the fragment's histograms, allocating them on first
// use: the fragment never aliases h.
func (dst *fragment) addHists(h *hists) {
	if dst.Hists == nil {
		blank := blankHists
		dst.Hists = &blank
	}
	dst.Hists.add(h)
}

func (f execFailure) runOf() int { return f.Run }

// mergeRuns merges two run-ordered lists into one holding at most limit
// entries, the smallest runs first. Runs never repeat across the two lists
// (fragments cover disjoint executions), so the result does not depend on
// which list is which. When b adds nothing — it is empty, or a is full and
// b's runs all come later — a is returned untouched. When b's runs all come
// later and fit, they are appended to a (a fragment's lists are its own, so
// a cell folding its units in run order grows one list in amortized linear
// time). Otherwise the result is a new list. It never aliases b: a unit
// fragment's lists are reused by its next unit.
func mergeRuns[T any](a, b []T, run func(T) int, limit int) []T {
	if len(b) == 0 || (len(a) >= limit && run(b[0]) > run(a[len(a)-1])) {
		return a
	}
	if len(a)+len(b) <= limit && (len(a) == 0 || run(b[0]) > run(a[len(a)-1])) {
		return append(a, b...)
	}
	out := make([]T, 0, min(len(a)+len(b), limit))
	for len(out) < limit && len(a)+len(b) > 0 {
		if len(b) == 0 || (len(a) > 0 && run(a[0]) <= run(b[0])) {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	return out
}

// Run executes the campaign, writes its artifact and record manifest when
// the spec names them, and returns its summary, rendered from the final
// artifact's cells as every reader renders it.
func Run(spec Spec) *Summary {
	spec = spec.withDefaults()
	if spec.RecordDir != "" {
		_ = os.MkdirAll(spec.RecordDir, 0o755)
	}
	tel := newTelemetry(spec)

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ck := &ckState{spec: spec, start: time.Now()}
	tools := newWorkerTools(spec)
	plans, restored, wave := runWaves(spec, tel, ck, tools)
	tools.close()

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	a := ck.artifact(wave, true, plans, restored, tools)
	a.GC = GCSummary{
		AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		Mallocs:      ms1.Mallocs - ms0.Mallocs,
		NumGC:        ms1.NumGC - ms0.NumGC,
		PauseTotalNS: ms1.PauseTotalNs - ms0.PauseTotalNs,
	}
	err := ck.save(a)
	sum := a.Summarize()
	sum.WriteErr = err
	return sum
}

// runPool executes jobs[i] for every i via fn(w, i) across the spec's worker
// pool, where w < spec.Workers is the worker slot running the job. Each
// worker writes only its own slot's runners, so they need no lock; the
// caller folds them after the barrier.
func runPool(spec Spec, n int, fn func(w, i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	workers := spec.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(w, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// chunkDeal returns the [lo, hi) execution-index chunks a split grant of
// Runs executions runs under spec.Shard: the cell's sequence of ShardSize
// chunks, dealt round-robin across the shards (all of them when unsharded).
// The split units and the telemetry plan both come from this one deal, so
// they cannot drift apart.
func chunkDeal(spec Spec) [][2]int {
	var chunks [][2]int
	for lo, ord := 0, 0; lo < spec.Runs; lo, ord = lo+spec.ShardSize, ord+1 {
		if spec.Shard.Count <= 1 || ord%spec.Shard.Count == spec.Shard.Index {
			chunks = append(chunks, [2]int{lo, min(lo+spec.ShardSize, spec.Runs)})
		}
	}
	return chunks
}

// matrixCells lists the campaign's cells in matrix order — tool-major,
// benchmarks before litmus tests — the order of the wave loop's plans,
// artifact cells and every per-tool list of the summary.
func matrixCells(spec Spec) []cellKey {
	keys := make([]cellKey, 0, len(spec.Tools)*(len(spec.Benchmarks)+len(spec.Litmus)))
	for t := range spec.Tools {
		for b := range spec.Benchmarks {
			keys = append(keys, cellKey{kind: jobBench, tool: t, cell: b})
		}
		for l := range spec.Litmus {
			keys = append(keys, cellKey{kind: jobLitmus, tool: t, cell: l})
		}
	}
	return keys
}

// programOf names cell k's program.
func (s Spec) programOf(k cellKey) string {
	if k.kind == jobLitmus {
		return s.Litmus[k.cell].Name
	}
	return s.Benchmarks[k.cell].Name
}

// cellPlan tracks one cell's budget state across waves.
type cellPlan struct {
	cellKey
	tracker *explore.Tracker // nil under the uniform policy
	used    int
	stopped bool // converged: excluded from further grants
	// curve holds the tracker's state at each wave barrier where the cell
	// was granted budget (BudgetSummary.Curve).
	curve []CurvePoint
}

// runWaves is the campaign's run loop. Wave 1 grants every cell its initial
// budget of Runs executions. The uniform policy (nil Spec.Policy) never
// stops a cell early and has independent executions, so each grant splits
// into the chunkDeal units — ShardSize chunks, only this shard's deal under
// Spec.Shard — that spread over the worker pool; several units of one cell
// run at once, and the cell holds no tracker. Under the converge policy a
// grant is one serial unit, run chunk-by-chunk with a convergence check
// between chunks, and cells that converge stop early. The unspent budget of
// converged cells forms a pool that later waves grant, one chunk per
// still-diverging cell per wave in matrix order, until the pool is exhausted
// or every cell converged. The total never exceeds Runs × cells, and every
// decision happens at a barrier from per-cell-deterministic state, so the
// result is independent of the worker count. Results accumulate in the
// workers' cell runners; runWaves returns the plans, the cells a resumed run
// restored (nil otherwise), which foldCells folds together with the
// runners, and the last wave.
func runWaves(spec Spec, tel *telemetry, ck *ckState, tools workerTools) ([]*cellPlan, []CellCheckpoint, int) {
	split := spec.Policy == nil
	deal := chunkDeal(spec)
	chunk := spec.Runs
	if !split && spec.Policy.Chunk() < chunk {
		chunk = spec.Policy.Chunk()
	}
	nb, nl := len(spec.Benchmarks), len(spec.Litmus)

	var plans []*cellPlan
	for _, k := range matrixCells(spec) {
		p := &cellPlan{cellKey: k}
		if !split {
			p.tracker = spec.Policy.NewTracker()
		}
		plans = append(plans, p)
	}

	var restored []CellCheckpoint
	type grant struct {
		plan   *cellPlan
		budget int
	}
	wave := 0
	// runWave cuts the grants into units and runs them across the worker
	// pool; each unit folds into its worker's runner for the cell as it ends.
	runWave := func(grants []grant) {
		wave++
		n := len(grants)
		if split {
			n *= len(deal)
		}
		jobs := make([]job, 0, n)
		for _, g := range grants {
			k, lo := g.plan.cellKey, g.plan.used
			if !split {
				jobs = append(jobs, job{kind: k.kind, tool: k.tool, cell: k.cell, lo: lo, hi: lo + g.budget})
				continue
			}
			// A split grant is always a cell's whole Runs budget — a policy
			// that never stops early frees no budget for later waves — so
			// the deal covers it exactly.
			for _, c := range deal {
				jobs = append(jobs, job{kind: k.kind, tool: k.tool, cell: k.cell, lo: lo + c[0], hi: lo + c[1]})
			}
		}
		runPool(spec, len(jobs), func(w, i int) {
			j := &jobs[i]
			r := tools.unit(spec, w, *j)
			if split {
				r.run(j.lo, j.hi, nil)
			} else {
				j.hi = j.lo + r.runChunked(j.lo, j.hi-j.lo, chunk, plans[j.key().index(nb, nl)].tracker)
			}
			tel.unitDone(*j, &r.frag)
			r.acc.merge(&r.frag)
		})
		for gi, g := range grants {
			if split {
				// Every index of the grant ran, on this shard or another.
				g.plan.used += g.budget
			} else {
				g.plan.used = jobs[gi].hi
			}
			if g.plan.tracker == nil {
				continue
			}
			// The curve point is taken here — at the barrier, from
			// per-cell-deterministic tracker state — so the curve is
			// identical for any worker count.
			st := g.plan.tracker.State()
			g.plan.stopped = st.Converged
			g.plan.curve = append(g.plan.curve, CurvePoint{Wave: wave, TrackerState: st})
		}
		converged := 0
		for _, p := range plans {
			if p.stopped {
				converged++
			}
		}
		tel.waveEnd(wave, converged)
	}
	// extend grants the freed budget — the total minus what the cells spent,
	// so a cell that converged mid-grant returns its unspent remainder — one
	// chunk per still-diverging cell.
	extend := func() []grant {
		pool := spec.Runs * len(plans)
		for _, p := range plans {
			pool -= p.used
		}
		var grants []grant
		for _, p := range plans {
			if p.stopped || pool <= 0 {
				continue
			}
			g := min(chunk, pool)
			pool -= g
			grants = append(grants, grant{plan: p, budget: g})
		}
		return grants
	}

	var grants []grant
	if spec.Resume != nil {
		// Re-enter at the last completed wave: plans get their used/stopped
		// budgets, tracker state and curves back, and the completed work
		// comes back as each cell's restored fragment. foldCells folds it with
		// the workers' accumulators exactly as it folds those with each other,
		// so the finished artifact cannot tell the difference. A Complete
		// artifact leaves no budget to grant, so nothing re-runs.
		wave = spec.Resume.Wave
		restored = restore(spec.Resume, plans)
		grants = extend()
	} else {
		for _, p := range plans {
			grants = append(grants, grant{plan: p, budget: spec.Runs})
		}
	}
	for len(grants) > 0 {
		runWave(grants)
		if grants = extend(); len(grants) > 0 {
			// The wave barrier is the checkpoint point: every decision after
			// it is a pure function of the state being persisted. Run writes
			// the final barrier's.
			ck.barrier(wave, plans, restored, tools)
		}
	}
	return plans, restored, wave
}

// execCtx is the per-execution state threaded through the pipeline stages.
// The cellRunner reuses one instance (rewritten at the top of runOne, and
// emptied by arm), so composing stages costs no per-execution allocation.
type execCtx struct {
	res     *capi.Result
	i       int    // global execution index (seed = SeedBase+i)
	outcome string // rendered litmus outcome ("" for benchmarks)
	// hit marks a signal-bearing execution: a detection signal, a race, or
	// a forbidden outcome (the signal stage computes it; obs.TriggerHit).
	hit bool
	// newRace marks an execution that gave the unit a race key it had not
	// seen (foldRaces; obs.TriggerNewRace).
	newRace bool
	// abort marks the execution's model state untrustworthy (an infeasible
	// modification-order lifting) and holds why: later stages that would
	// lift it again are skipped.
	abort error
	// lifted marks the runner's workspace as holding this execution.
	lifted bool
	obs    explore.Obs
}

// stage is one pipeline step run over every completed execution. Stages are
// method expressions composed once per runner in newCellRunner — which duties
// run, and in what order, is a property of the spec, not a branch in the
// per-execution path.
type stage func(*cellRunner)

// cellRunner executes one cell's units of work on one worker, each a range
// of executions on the worker's fresh or rearmed instance of the cell's
// tool. The worker builds it on the cell's first unit and arms it again at
// every later one: the program instance, the analyzers and the stage list
// live as long as the worker.
type cellRunner struct {
	spec Spec
	j    job // the current unit
	// frag is the current unit's fragment, emptied in place by arm. As the
	// unit ends the wave loop reads it for the progress lines and folds it
	// into acc, the cell's accumulator on this worker (see foldCells).
	frag fragment
	acc  fragment

	// stages is the cell's composed pipeline, run in order after every
	// completed execution's race pass (foldRaces): the cell-kind signal
	// stage (benchmark detection or litmus verdict), then — per spec — axiom
	// validation, the analyzer stage, and trace recording.
	stages []stage
	// x is the reused per-execution context the stages communicate
	// through.
	x execCtx

	// met is the cell's histogram accumulator on this worker, observed into
	// by every completed execution of every unit; foldCells adds it into the
	// folded cell.
	met hists

	// fr is the trace sink's trigger decision for the current unit
	// (Spec.RecordOn); nil when the sink is unarmed.
	fr *obs.FlightRecorder

	// eng is the worker's instance of the cell's tool. It is never
	// replaced, only rearmed, so the runner keeps it (and its model) for
	// good. slot is the worker's warm state: the axiom workspace validation
	// and the analyzers share, and the race-key intern table. rec and pg are
	// the strategy wrappers arm installs at every unit start; needTrace
	// turns the engine's action trace on.
	eng       *core.Engine
	mo        core.MOProvider
	slot      *workerSlot
	rec       *trace.Recorder
	pg        *trace.PrefixGuide
	guides    []*trace.Trace
	needTrace bool

	// analyzers are the cell's analysis plug-in instances on this worker
	// (see analysis.Analyzer), minus the ones this cell's tool cannot feed;
	// ax is the reused Exec handed to them.
	analyzers []analysis.Analyzer
	ax        analysis.Exec

	// Program under test.
	prog  capi.Program
	bench BenchmarkSpec // jobBench
	test  *litmus.Test  // jobLitmus
	out   string        // litmus outcome cell
}

// newCellRunner builds the runner for job j's cell on worker slot and its
// instance eng of the cell's tool, and arms it for j.
func newCellRunner(spec Spec, j job, eng *core.Engine, slot *workerSlot) *cellRunner {
	r := &cellRunner{spec: spec, eng: eng, slot: slot, frag: fragment{Races: map[string]raceHit{}}, met: blankHists}
	switch j.kind {
	case jobBench:
		r.bench = spec.Benchmarks[j.cell]
		r.prog = r.bench.New()
	case jobLitmus:
		r.test = spec.Litmus[j.cell]
		r.prog = r.test.Make(&r.out)
		r.frag.Outcomes = map[string]int{}
		r.frag.Forbidden = map[string]int{}
		r.frag.Weak = map[string]int{}
	}

	r.mo, _ = eng.Model().(core.MOProvider)
	// Guided exploration: wrap the tool's live strategy in a PrefixGuide
	// when the guide set has traces for this cell; arm installs it.
	if spec.Guides != nil {
		r.guides = spec.Guides.For(spec.Tools[j.tool].Name, r.programName())
		if len(r.guides) > 0 {
			r.pg = trace.NewPrefixGuide(r.eng.Strategy())
		}
	}
	// Analyzer plug-ins: one fresh instance per runner. An analyzer that
	// needs a modification order is skipped on a cell whose model is no
	// MOProvider, the way axiom validation skips those cells. Unknown names
	// were refused by Spec.Validate; a name slipping past it here is skipped
	// rather than crashed on (workers have nowhere to return an error).
	for _, name := range spec.Analyzers {
		a, err := analysis.New(name)
		if err != nil {
			continue
		}
		if a.NeedsMO() && r.mo == nil {
			continue
		}
		r.analyzers = append(r.analyzers, a)
	}
	// Trace duties: engines whose model exposes total modification orders
	// run in trace mode for validation and trace recording, and any
	// analyzer that reads the action trace turns tracing on too; the
	// recorder strategy wrapper logs the (effective, guided included)
	// schedule of every execution.
	r.needTrace = r.mo != nil && (spec.ValidateAxioms || spec.RecordDir != "")
	for _, a := range r.analyzers {
		if a.NeedsTrace() {
			r.needTrace = true
		}
	}
	// Compose the pipeline. The stage set and order are fixed per cell:
	// signal first (it computes hit), then validation (it decides abort),
	// then analyzers, then the trace sink. With the default
	// spec — no analyzers, no duties — the pipeline is just the signal
	// stage, and the composed path mutates the fragment in exactly the
	// order the pre-pipeline runner did, which is what keeps default
	// campaign artifacts byte-identical across the refactor.
	if j.kind == jobLitmus {
		r.stages = append(r.stages, (*cellRunner).stageLitmus)
	} else {
		r.stages = append(r.stages, (*cellRunner).stageBench)
	}
	if spec.ValidateAxioms {
		r.stages = append(r.stages, (*cellRunner).stageValidate)
	}
	if len(r.analyzers) > 0 {
		r.stages = append(r.stages, (*cellRunner).stageAnalyze)
	}
	if spec.RecordDir != "" {
		if r.pg != nil {
			r.rec = trace.NewRecorder(r.pg)
		} else {
			r.rec = trace.NewRecorder(r.eng.Strategy())
		}
		r.fr = obs.NewFlightRecorder(spec.withDefaults().RecordOn)
		r.stages = append(r.stages, (*cellRunner).stageRecord)
	}
	r.arm(j)
	return r
}

// arm points the runner at unit j — its engine just built or rearmed to its
// constructed state — and empties the unit's state in place: the fragment
// (its maps keep their buckets, its lists their arrays), the execution
// context and the sink's recorder. It re-installs the cell's trace switch
// and strategy wrappers on the engine, which construction and Rearm leave
// off. A unit on an armed runner therefore observes exactly what it would on
// a newly built one.
func (r *cellRunner) arm(j job) {
	r.j = j
	r.x = execCtx{}
	r.frag.reset()
	r.frag.GuideTraces = len(r.guides)
	if r.fr != nil {
		r.fr.Reset()
	}
	if r.needTrace {
		r.eng.SetTrace(true)
	}
	if r.pg != nil {
		r.eng.SetStrategy(r.pg)
	}
	if r.rec != nil {
		r.eng.SetStrategy(r.rec)
	}
}

func (r *cellRunner) programName() string {
	if r.test != nil {
		return r.test.Name
	}
	return r.bench.Name
}

// workerTools holds every campaign worker's warm state, indexed by worker
// slot: one tool instance per Spec.Tools entry, one axiom workspace that
// every execution the worker validates or analyzes is lifted into, one
// race-key intern table, and per matrix cell one runner (built on the
// worker's first unit of the cell, with its accumulators). Each worker
// keeps them for the whole Run — across shards, cells and waves — so tool,
// program and analyzer construction, fiber-pool warmup, workspace growth and
// key formatting are paid once per worker, not per unit or per execution.
type workerTools []workerSlot

type workerSlot struct {
	tools   []*core.Engine
	lift    axiom.Execution
	keys    keyIntern
	runners []*cellRunner // matrix order; nil until the cell's first unit
}

// keyIntern renders each race identity's key (RaceReport.Key) once per
// worker: the campaign keys races by string, and formatting one per report
// per execution was most of a racy execution's allocations. buf is
// foldRaces' reused key list.
type keyIntern struct {
	keys map[capi.RaceID]string
	buf  []string
}

// key returns r's interned key.
func (k *keyIntern) key(r *capi.RaceReport) string {
	id := r.ID()
	s, ok := k.keys[id]
	if !ok {
		if k.keys == nil {
			k.keys = map[capi.RaceID]string{}
		}
		s = id.Key()
		k.keys[id] = s
	}
	return s
}

func newWorkerTools(spec Spec) workerTools {
	wt := make(workerTools, spec.Workers)
	ncells := len(spec.Tools) * (len(spec.Benchmarks) + len(spec.Litmus))
	for w := range wt {
		wt[w].tools = make([]*core.Engine, len(spec.Tools))
		wt[w].runners = make([]*cellRunner, ncells)
	}
	return wt
}

// unit returns worker w's runner for j's cell, armed for unit j on the
// worker's instance of j's tool — the warm one rearmed to its constructed
// state, or, on the worker's first unit of the tool, a fresh one. The runner
// is built on the worker's first unit of the cell.
func (wt workerTools) unit(spec Spec, w int, j job) *cellRunner {
	slot := &wt[w]
	eng := slot.tools[j.tool]
	if eng != nil {
		eng.Rearm()
	} else {
		eng = spec.Tools[j.tool].New().(*core.Engine)
		slot.tools[j.tool] = eng
	}
	c := j.key().index(len(spec.Benchmarks), len(spec.Litmus))
	if r := slot.runners[c]; r != nil {
		r.arm(j)
		return r
	}
	r := newCellRunner(spec, j, eng, slot)
	slot.runners[c] = r
	return r
}

// close retires every worker's engines (core.Engine.Close) once the
// campaign's workers are done, so long-lived processes do not accumulate
// parked fiber-pool workers.
func (wt workerTools) close() {
	for _, slot := range wt {
		for _, eng := range slot.tools {
			if eng != nil {
				eng.Close()
			}
		}
	}
}

// reset empties the fragment for the runner's next unit, keeping its maps'
// buckets and its lists' backing arrays.
func (f *fragment) reset() {
	clear(f.Races)
	clear(f.Outcomes)
	clear(f.Forbidden)
	clear(f.Weak)
	clear(f.Findings)
	*f = fragment{Races: f.Races, Outcomes: f.Outcomes, Forbidden: f.Forbidden, Weak: f.Weak,
		Findings: f.Findings, Failures: f.Failures[:0], VioSamples: f.VioSamples[:0],
		Captures: f.Captures[:0]}
}

// recordFailure folds one aborted execution into the fragment.
func (r *cellRunner) recordFailure(i int, err string) {
	r.frag.Failed++
	if len(r.frag.Failures) < maxViolationSamples {
		r.frag.Failures = append(r.frag.Failures, execFailure{Run: i, Err: err})
	}
}

// run executes global execution indices [lo, hi) serially, folding results
// into the fragment. observe, when non-nil, receives each execution's
// observation in index order (the budget-policy feed).
func (r *cellRunner) run(lo, hi int, observe func(explore.Obs)) {
	start := time.Now()
	for i := lo; i < hi; i++ {
		obs := r.runOne(i)
		if observe != nil {
			observe(obs)
		}
	}
	r.frag.Elapsed += time.Since(start)
}

// runChunked executes up to budget executions starting at global index lo,
// in chunks, stopping early once the tracker reports convergence. It returns
// the number of executions actually run.
func (r *cellRunner) runChunked(lo, budget, chunk int, tracker *explore.Tracker) int {
	i, end := lo, lo+budget
	for i < end {
		hi := i + chunk
		if hi > end {
			hi = end
		}
		r.run(i, hi, tracker.Observe)
		i = hi
		if tracker.Converged() {
			break
		}
	}
	return i - lo
}

// runOne executes global index i and returns its observation.
func (r *cellRunner) runOne(i int) explore.Obs {
	if r.pg != nil {
		r.pg.SetSchedule(r.guides[i%len(r.guides)].Schedule)
	}
	if r.test != nil {
		r.out = ""
	}
	// The per-execution instrumentation below — the timing toggle, the
	// clock reads and hists.observe — allocates nothing; the zero-alloc test
	// pins this exact path, on both sampled indices and an unsampled one. The
	// clock is read only on a wall-time index.
	sampleTiming(r.eng, i)
	clock := wallSampled(i)
	var execStart time.Time
	if clock {
		execStart = time.Now()
	}
	res := r.eng.Execute(r.prog, r.spec.SeedBase+int64(i))
	var execDur time.Duration
	if clock {
		execDur = time.Since(execStart)
	}
	if res.EngineError != nil {
		// The tool aborted the execution (core.InfeasibleError). The partial
		// result carries no trustworthy model state: record the failure with
		// its seed and move on — the rest of the matrix keeps running. The
		// execution is excluded from execs (the Detection.Runs denominator);
		// failures are accounted separately.
		r.recordFailure(i, res.EngineError.Error())
		if r.fr != nil {
			d := obs.ExecDigest{Index: i, Infeasible: true}
			if trig := r.fr.Check(d); trig != obs.TriggerNone {
				r.frag.Captures = append(r.frag.Captures, r.entry(trig, d))
			}
		}
		return explore.Obs{}
	}
	r.frag.Execs++
	r.met.observe(i, execDur, r.eng)
	if r.pg != nil {
		depth, consumed, diverged := r.pg.Handoff()
		r.frag.GuidedExecs++
		r.frag.PrefixDepth += int64(depth)
		r.frag.PrefixConsumed += int64(consumed)
		if diverged {
			r.frag.Divergences++
		}
	}

	// Run the composed pipeline over the reused execution context. Every
	// stage runs whether or not an earlier one aborted.
	r.x = execCtx{res: res, i: i}
	r.x.obs.RaceKeys, r.x.newRace = foldRaces(&r.frag, &r.slot.keys, res, i)
	for _, st := range r.stages {
		st(r)
	}
	return r.x.obs
}

// stageBench is the benchmark-cell signal stage: the suite's detection
// signal and op accounting.
func (r *cellRunner) stageBench() {
	res := r.x.res
	hit := r.bench.Signal.Hit(res)
	if hit {
		r.frag.Detected++
	}
	r.frag.Ops.Add(res.Stats)
	r.x.hit = hit || len(res.Races) > 0
	r.x.obs.Detected = hit
}

// stageLitmus is the litmus-cell signal stage: outcome accounting and the
// forbidden/weak verdicts. Litmus programs only touch shared state
// atomically, so a race foldRaces folded here is a detector soundness bug,
// not a finding.
func (r *cellRunner) stageLitmus() {
	res, i := r.x.res, r.x.i
	r.frag.Ops.Add(res.Stats)
	forbidden := false
	if r.out != "" {
		r.frag.Outcomes[r.out]++
		if isForbidden(r.test, r.out, r.spec.Tools[r.j.tool].Baseline) {
			forbidden = true
			if first, seen := r.frag.Forbidden[r.out]; !seen || i < first {
				r.frag.Forbidden[r.out] = i
			}
		}
		if r.test.Weak[r.out] {
			r.frag.Weak[r.out]++
		}
	}
	r.x.outcome = r.out
	r.x.hit = forbidden || len(res.Races) > 0
	r.x.obs.Detected = forbidden
	r.x.obs.Outcome = r.out
}

// stageValidate lifts the execution into the worker's workspace and checks
// it against the axiomatic model; the analyzer stage reuses the lift. The
// lifting (the model's AppendTotalMO) can itself hit an infeasible state — a
// modification-order cycle; RecoverInfeasible converts that into a recorded
// failure, and abort tells the later trace-lifting stages (analyzers,
// recording) to skip this execution.
func (r *cellRunner) stageValidate() {
	if r.mo == nil {
		r.frag.Skipped++
		return
	}
	i := r.x.i
	r.frag.Checked++
	var vs []axiom.Violation
	// The engine cannot see the campaign's validation duty, so the
	// campaign brackets the PhaseValidate span itself, feeding the same
	// per-cell phase histograms as the engine's reset/run/race spans.
	vt0 := r.phaseStart()
	ie := core.RecoverInfeasible(func() {
		r.slot.lift.Lift(r.eng, r.mo)
		vs = axiom.Check(&r.slot.lift)
	})
	r.observePhase(core.PhaseValidate, vt0)
	if ie != nil {
		r.recordFailure(i, ie.Error())
		r.x.abort = ie
		return
	}
	r.x.lifted = true
	if len(vs) > 0 {
		r.frag.Violations += len(vs)
		if len(r.frag.VioSamples) < maxViolationSamples {
			r.frag.VioSamples = append(r.frag.VioSamples, execFailure{Run: i, Err: fmt.Sprint(vs[0])})
		}
	}
}

// stageAnalyze hands the finished execution to the cell's analyzer
// instances and folds their findings into the fragment. Analyzers that need
// the modification order share one lifted execution: validation's, or one
// lifted here for the first analyzer that needs it. Each Observe, lift
// included, is individually recovered: an infeasible lifting or state inside
// one analyzer records a failure and moves on to the next.
func (r *cellRunner) stageAnalyze() {
	if r.x.abort != nil {
		return
	}
	r.ax = analysis.Exec{
		Result: r.x.res, Index: r.x.i, Seed: r.spec.SeedBase + int64(r.x.i),
		Tool: r.spec.Tools[r.j.tool].Name, Program: r.programName(),
		Litmus: r.test != nil, Outcome: r.x.outcome,
		Engine: r.eng, MO: r.mo,
	}
	lift := &r.slot.lift
	if r.x.lifted {
		r.ax.Lifted = lift
	}
	for _, a := range r.analyzers {
		var fs []analysis.Finding
		ie := core.RecoverInfeasible(func() {
			if a.NeedsMO() && r.ax.Lifted == nil {
				lift.Lift(r.eng, r.mo)
				r.ax.Lifted = lift
			}
			fs = a.Observe(&r.ax)
		})
		if ie != nil {
			r.recordFailure(r.x.i, ie.Error())
			continue
		}
		for _, f := range fs {
			r.addFinding(a, f)
		}
	}
}

// addFinding folds one analyzer finding into the fragment — min-run winner
// per (analyzer, key), counts summed. It renders no text: the key is the
// analyzer's, and the winner's Finding is kept by value.
func (r *cellRunner) addFinding(a analysis.Analyzer, f analysis.Finding) {
	if r.frag.Findings == nil {
		r.frag.Findings = map[findingID]findingHit{}
	}
	id := findingID{analyzer: a.Name(), key: f.Key}
	hit, seen := r.frag.Findings[id]
	if !seen || r.x.i < hit.Run {
		hit.win, hit.desc, hit.Run = f, "", r.x.i
	}
	hit.Count++
	r.frag.Findings[id] = hit
}

// stageRecord is the trace sink. It feeds every completed execution's
// digest to the unit's recorder, which decides whether one of the spec's
// triggers owes it a trace, and records each owed trace with its manifest
// entry.
func (r *cellRunner) stageRecord() {
	st := r.eng.ExecStats()
	d := obs.ExecDigest{Index: r.x.i, Steps: st.Steps, Choices: st.Choices,
		NewRace: r.x.newRace, Forbidden: r.test != nil && r.x.obs.Detected, Hit: r.x.hit}
	trig := r.fr.Check(d)
	if trig == obs.TriggerNone {
		return
	}
	c := r.entry(trig, d)
	c.File, c.Err = r.writeTrace(c)
	switch {
	case c.File != "":
		r.frag.Recorded++
	case c.Err != "":
		r.frag.RecordErrors++
	}
	r.frag.Captures = append(r.frag.Captures, c)
}

// writeTrace records the current execution's portable trace into the record
// directory and returns its file name, or why it wrote none: the validation
// stage aborted the execution, its lifting hit an infeasible model state, or
// the write failed. Each reason is counted and surfaced in the summary: a
// campaign asked to persist traces must not drop them silently.
func (r *cellRunner) writeTrace(c obs.CaptureRecord) (file, reason string) {
	if r.x.abort != nil {
		return "", r.x.abort.Error()
	}
	meta := trace.Meta{
		Tool: trace.ToolConfig{Name: c.Tool}, Program: c.Program,
		Litmus: c.Litmus, Seed: c.Seed, Outcome: r.x.outcome,
	}
	var tr *trace.Trace
	var err error
	// PhaseRecord span: trace serialization + file write, campaign-
	// bracketed like PhaseValidate above.
	rt0 := r.phaseStart()
	ie := core.RecoverInfeasible(func() {
		tr, err = trace.Record(r.eng, r.x.res, r.rec.Schedule(), meta)
	})
	if ie != nil {
		r.observePhase(core.PhaseRecord, rt0)
		r.recordFailure(r.x.i, ie.Error())
		r.x.abort = ie
		return "", ie.Error()
	}
	file = trace.FileName(c.Tool, c.Program, c.Seed)
	if err == nil {
		err = tr.WriteFile(filepath.Join(r.spec.RecordDir, file))
	}
	r.observePhase(core.PhaseRecord, rt0)
	if err != nil {
		return "", err.Error()
	}
	return file, ""
}

// entry builds the manifest entry of execution d.Index for trigger trig; an
// aborted execution's entry carries its identity and repro line only.
func (r *cellRunner) entry(trig obs.Trigger, d obs.ExecDigest) obs.CaptureRecord {
	toolSpec := r.spec.Tools[r.j.tool]
	seed := r.spec.SeedBase + int64(d.Index)
	c := obs.CaptureRecord{
		Tool: toolSpec.Name, Program: r.programName(), Litmus: r.test != nil,
		Seed: seed, Index: d.Index, Trigger: trig.String(),
		Steps: d.Steps, Choices: d.Choices,
		Repro: harness.Repro{Tool: toolSpec.Name, Program: r.programName(),
			Seed: seed, Litmus: r.test != nil}.Command(),
	}
	if !d.Infeasible {
		c.RaceKeys = slices.Clone(r.x.obs.RaceKeys)
		slices.Sort(c.RaceKeys)
		c.Outcome = r.x.obs.Outcome
	}
	return c
}

// timingSample is the campaign's timing sample interval. Two disjoint
// samples of a cell's execution indices are timed: execution i's own wall
// time when i%timingSample == 0 (wallSampled), with every inner timer off,
// and its phase spans when i%timingSample == timingSample/2 (spansSampled).
// The spans are a few clock reads per execution (reset, run and the
// campaign duties); nothing is clocked per operation, since a clock pair
// costs more than most operations: the handoff and race-shadow layers are
// counted on every execution instead (LayerCounts). The spans would still
// inflate a wall time taken on the same execution, hence the two samples.
// The samples are pure functions of the global execution index, so the
// sampled histograms' counts are as deterministic under workers, shards and
// resume as the outcomes. Every cell with at least one execution (index 0)
// gets a wall-time sample; a cell needs timingSample/2+1 executions for a
// span sample.
const timingSample = 16

// wallSampled reports whether execution i's wall time is sampled.
func wallSampled(i int) bool { return i%timingSample == 0 }

// spansSampled reports whether execution i runs with the phase spans on.
func spansSampled(i int) bool { return i%timingSample == timingSample/2 }

// sampleTiming switches eng's phase spans for execution index i.
func sampleTiming(eng *core.Engine, i int) {
	eng.SetPhaseTiming(spansSampled(i))
}

// phaseStart opens a campaign-bracketed phase span (validate, record) of the
// current execution: the start stamp when its spans are sampled (runOne
// switched the engine's phase spans on), the zero time — and no clock read —
// otherwise.
func (r *cellRunner) phaseStart() time.Time {
	if r.eng.PhaseTiming() {
		return time.Now()
	}
	return time.Time{}
}

// observePhase folds a campaign-bracketed phase span opened by phaseStart
// into the cell's phase histograms; a zero t0 (unsampled execution) is
// skipped, so every phase histogram shares the engine phases' denominator.
func (r *cellRunner) observePhase(p core.Phase, t0 time.Time) {
	if !t0.IsZero() {
		r.met.PhaseNS[p].Observe(uint64(time.Since(t0)))
	}
}

// foldRaces is the runner's one race pass over completed execution run. It
// interns each report's key once and folds the report into the unit's
// fragment, keeping the earliest execution index per key and its first
// report there. It returns the execution's distinct keys in first-occurrence
// order, and whether the unit gained a key: a race key first seen in this
// unit (obs.TriggerNewRace). The key list aliases keys' reused buffer and is
// valid until the next call: the tracker keeps only the strings, and the
// record stage's manifest entry copies the list. It renders no text.
func foldRaces(frag *fragment, keys *keyIntern, res *capi.Result, run int) (execKeys []string, newKey bool) {
	if len(res.Races) == 0 {
		return nil, false
	}
	execKeys = keys.buf[:0]
	for i := range res.Races {
		r := &res.Races[i]
		key := keys.key(r)
		hit, seen := frag.Races[key]
		if !seen || run < hit.Run {
			frag.Races[key] = raceHit{report: *r, Run: run}
			newKey = newKey || !seen
		}
		if !slices.Contains(execKeys, key) {
			execKeys = append(execKeys, key)
		}
	}
	keys.buf = execKeys
	return execKeys, newKey
}

// isForbidden reports whether outcome is forbidden for the given tool
// flavour: the Forbidden set always, plus BaselineForbidden for the
// commit-order baselines.
func isForbidden(t *litmus.Test, outcome string, baseline bool) bool {
	if t.Forbidden[outcome] {
		return true
	}
	return baseline && t.BaselineForbidden[outcome]
}

// Validate reports the first problem with the spec, or nil.
func (s Spec) Validate() error {
	if len(s.Tools) == 0 {
		return fmt.Errorf("campaign: no tools selected")
	}
	if s.RecordOn != 0 && s.RecordDir == "" {
		return fmt.Errorf("campaign: RecordOn requires RecordDir")
	}
	if len(s.Benchmarks) == 0 && len(s.Litmus) == 0 {
		return fmt.Errorf("campaign: no benchmarks or litmus tests selected")
	}
	if s.Runs <= 0 {
		return fmt.Errorf("campaign: runs must be positive, got %d", s.Runs)
	}
	if s.Workers < 0 || s.ShardSize < 0 {
		return fmt.Errorf("campaign: workers and shard size must be ≥ 0 (0 = default), got %d and %d", s.Workers, s.ShardSize)
	}
	if s.Shard.Count != 0 || s.Shard.Index != 0 {
		if s.Shard.Count < 1 || s.Shard.Index < 0 || s.Shard.Index >= s.Shard.Count {
			return fmt.Errorf("campaign: shard %s out of range (want 0 ≤ index < count)", s.Shard)
		}
		if s.Policy != nil {
			return fmt.Errorf("campaign: sharding requires the uniform policy (adaptive budgets redistribute across the whole matrix; got %q)", s.Policy.Name())
		}
		if s.Resume != nil && s.Shard.Count > 1 {
			return fmt.Errorf("campaign: a sharded run cannot resume (re-run the lost shard, or resume the unsharded campaign from all K shard artifacts)")
		}
	}
	seenAnalyzer := map[string]bool{}
	for _, name := range s.Analyzers {
		if _, err := analysis.New(name); err != nil {
			return fmt.Errorf("campaign: %v", err)
		}
		if seenAnalyzer[name] {
			return fmt.Errorf("campaign: duplicate analyzer %q", name)
		}
		seenAnalyzer[name] = true
	}
	seen := map[string]bool{}
	for _, t := range s.Tools {
		if t.New == nil {
			return fmt.Errorf("campaign: tool %q has no factory", t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("campaign: duplicate tool %q", t.Name)
		}
		seen[t.Name] = true
	}
	// Duplicate program cells would double-count every aggregate.
	seenBench := map[string]bool{}
	for _, b := range s.Benchmarks {
		if seenBench[b.Name] {
			return fmt.Errorf("campaign: duplicate benchmark %q", b.Name)
		}
		seenBench[b.Name] = true
	}
	seenLit := map[string]bool{}
	for _, l := range s.Litmus {
		if seenLit[l.Name] {
			return fmt.Errorf("campaign: duplicate litmus test %q", l.Name)
		}
		seenLit[l.Name] = true
	}
	return nil
}
