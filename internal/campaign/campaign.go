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
// instance of the cell's tool (tool instances are stateful and not
// goroutine-safe). Each worker keeps one warm instance per tool for the
// whole campaign and rearms it at every unit start (core.Engine.Rearm), so a
// unit observes exactly what a freshly constructed tool would. Aggregation
// merges fragments with order-independent operations only — sums, unions,
// min-by-execution-index winners for reproduction metadata, and sample lists
// capped to their smallest execution indices (fragment.merge). That one fold
// serves workers, checkpoints and shard merges alike, and it carries the
// per-cell histograms too (see hists).
package campaign

import (
	"fmt"
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
	// New constructs a fresh tool instance. Every campaign worker calls it
	// once (once per unit for tools without a Rearm method), so
	// implementations must be safe to call concurrently (the instances
	// themselves are confined to one worker).
	New func() capi.Tool
	// Baseline marks the tsan11-family tools, for which a litmus test's
	// BaselineForbidden outcomes are forbidden in addition to Forbidden
	// (the fragment gap of Section 1.1).
	Baseline bool
	// ReproFlags are the non-default cmd/c11tester flags needed to rebuild
	// this tool configuration; they are embedded in every reproduction
	// command the campaign emits (see harness.Repro.Flags).
	ReproFlags string
	// TraceConfig is the portable tool identity embedded in recorded traces
	// (see internal/trace); StandardTool fills it in.
	TraceConfig trace.ToolConfig
}

// BenchmarkSpec is one program cell of the campaign matrix.
type BenchmarkSpec struct {
	Name string
	// New builds a fresh program instance. Instances carry reusable state
	// across executions (see structures.Benchmark), so each unit of work
	// builds its own, exactly as it builds its own tool instance.
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
	// means explore.Uniform{}: every cell runs exactly Runs executions. An
	// adaptive policy may stop a cell early once its statistics converge and
	// reassigns the freed budget to still-diverging cells, keeping the
	// campaign total at most Runs × cells.
	Policy explore.Policy
	// Guides supplies recorded traces for trace-guided exploration: engine
	// cells whose (tool, program) matches a loaded trace replay a prefix of
	// its schedule before handing control to the live strategy (see
	// trace.PrefixGuide). Execution i of a guided cell follows trace i mod
	// len(traces), with the prefix depth drawn from the execution's seed.
	Guides *GuideSet
	// GuideMinFrac and GuideMaxFrac bound the replayed prefix depth as
	// fractions of the guiding schedule's choice count; zero means the
	// trace.DefaultGuideMinFrac/MaxFrac skew-deep range.
	GuideMinFrac, GuideMaxFrac float64
	// RecordDir, when non-empty, persists a portable execution trace
	// (internal/trace) for every execution that exhibited a detection
	// signal, race, or forbidden outcome. RecordAll persists every
	// execution instead.
	RecordDir string
	RecordAll bool
	// CaptureDir arms the anomaly-triggered flight recorder: every unit of
	// work watches its execution digests, and executions that trip a trigger
	// (first-seen race key, infeasible model state, forbidden litmus outcome,
	// schedule length above the unit's trailing p99) are re-run with a trace
	// recorder attached and written here as portable traces, indexed by a
	// canonical manifest.json. The capture set is a pure function of the seed
	// indices, so workers=1 ≡ workers=K yields an identical capture
	// directory.
	CaptureDir string
	// CaptureSlowNS additionally arms the wall-clock slow-execution trigger.
	// Wall time is not a pure function of the seed, so this trigger breaks
	// the capture set's worker-count independence; it is a diagnosis aid,
	// off by default.
	CaptureSlowNS bool
	// ValidateAxioms checks every execution of a tool whose memory model
	// exposes total modification orders (core.MOProvider) against the
	// axiomatic model of Appendix A, counting violations in the summary;
	// executions of other tools are counted as skipped.
	ValidateAxioms bool
	// Analyzers names the internal/analysis plug-ins to run over every
	// finished execution (e.g. "sc-robustness", "atomicity"). Each cell
	// builds its own instances; analyzers whose trace or modification-order
	// needs the cell's tool cannot meet are skipped on that cell, mirroring
	// how validation skips non-MOProvider tools. Findings are deduplicated
	// per (analyzer, cell, key) with min-seed repro winners and merged
	// across shards exactly like races. Empty (the default) composes no
	// analyzer stage — the default pipeline is byte-identical to the
	// pre-analyzer runner, and stays allocation-free.
	Analyzers []string
	// Telemetry is the campaign's observability fabric (event stream and
	// progress lines). Nil means Run builds a quiet internal one; event
	// emission and progress lines only happen when the caller configures
	// them. One Telemetry serves exactly one Run.
	Telemetry *Telemetry `json:"-"`
	// Shard restricts the campaign to shard Index of Count (uniform policy
	// only: its grants split into chunks because it never stops a cell
	// early): each cell's chunk sequence is dealt round-robin across the
	// shards, so the K partial runs cover exactly the seed set of the
	// single-machine run. The zero value (Count ≤ 1) runs everything. A
	// sharded summary carries a ShardInfo header; cmd/c11merge folds K
	// partials back into the single-machine artifact.
	Shard ShardSel
	// CheckpointPath, when non-empty, persists an atomic checkpoint of
	// completed-wave state there at every deterministic wave barrier, plus a
	// final Complete checkpoint when the campaign ends. Checkpoint write
	// failures never abort the campaign; they are counted in the summary
	// (CheckpointErrors) and warned to stderr.
	CheckpointPath string
	// Resume, when non-nil, restores checkpointed state instead of starting
	// fresh: the runner re-enters at the first incomplete wave, and the
	// finished artifact is byte-identical (Summary.Canonical) to an
	// uninterrupted run. Load with LoadCheckpoint and gate with
	// Checkpoint.ValidateAgainst — a checkpoint from a different spec refuses
	// to resume.
	Resume *Checkpoint `json:"-"`
	// checkpointHook observes every checkpoint just before it is persisted
	// (fault-injection tests).
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
	if s.Policy == nil {
		s.Policy = explore.Uniform{}
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
// It carries the report's rendered description rather than the
// capi.RaceReport itself: tools recycle their race-report storage across
// Execute calls, so retaining a report beyond runOne would alias mutated
// memory. Rendering happens only on first sight (or an earlier-run upgrade),
// never in the steady state.
type raceHit struct {
	Desc string `json:"desc"` // RaceReport.String() of the winning sighting
	Run  int    `json:"run"`  // global execution index (seed = SeedBase+run)
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

// findingHit is a deduplicated analyzer finding: the description of the
// earliest execution that showed it (the repro winner, like raceHit) plus
// the number of executions that reproduced it.
type findingHit struct {
	Desc  string `json:"desc"`
	Run   int    `json:"run"` // global execution index of the winner (seed = SeedBase+run)
	Count int    `json:"count"`
}

// fragment is the result of one unit of work. Fields are aggregated with
// order-independent merges only, which is what keeps the campaign
// deterministic under any worker count. Its JSON encoding is the form
// checkpoints and shard partials carry (CellCheckpoint.Frag): maps encode
// with sorted keys, so the encoding is canonical.
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
	// trace/validation duties (Spec.RecordDir / Spec.ValidateAxioms):
	Checked    int           `json:"checked,omitempty"`
	Skipped    int           `json:"skipped,omitempty"`
	Violations int           `json:"violations,omitempty"`
	VioSamples []execFailure `json:"vio_samples,omitempty"` // earliest few by run
	Recorded   int           `json:"recorded,omitempty"`
	RecordErrs int           `json:"record_errs,omitempty"`
	// analyzer findings (Spec.Analyzers), deduplicated per (analyzer, key)
	// with min-run winners; nil when no analyzer stage is composed.
	Findings map[findingID]findingHit `json:"findings,omitempty"`
	// flight-recorder captures (Spec.CaptureDir), in execution-index order.
	Captures []obs.CaptureRecord `json:"captures,omitempty"`
	// Hists are the cell's summary histograms. Unit fragments leave them nil
	// (a unit observes into its worker's per-cell hists instead); foldCells
	// adds the workers' hists into the folded cell.
	Hists *hists `json:"hists,omitempty"`
}

// maxViolationSamples caps the axiom-violation and engine-failure details
// carried per fragment and per tool summary.
const maxViolationSamples = 5

// merge folds src into dst. It is the campaign's only fold of results:
// worker units into cells, a cell's completed jobs into its checkpoint
// state, and shard partials' cell states into the merged summary all go
// through it. Fragments cover disjoint execution indices, and every field
// folds order-independently — sums, unions, min-run winners, max for the
// guide-trace count, and run-ordered lists capped to their smallest runs —
// so any merge order and any grouping of the same executions yield the same
// fragment.
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
	dst.Recorded += src.Recorded
	dst.RecordErrs += src.RecordErrs
	for id, hit := range src.Findings {
		if dst.Findings == nil {
			dst.Findings = map[findingID]findingHit{}
		}
		if cur, seen := dst.Findings[id]; seen {
			if hit.Run < cur.Run {
				cur.Desc, cur.Run = hit.Desc, hit.Run
			}
			cur.Count += hit.Count
			dst.Findings[id] = cur
		} else {
			dst.Findings[id] = hit
		}
	}
	dst.Captures = mergeRuns(dst.Captures, src.Captures, func(c obs.CaptureRecord) int { return c.Index },
		len(dst.Captures)+len(src.Captures))
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

// mergeRuns merges two run-ordered lists into a new one holding at most
// limit entries, the smallest runs first. Runs never repeat across the two
// lists (fragments cover disjoint executions), so the result does not depend
// on which list is which.
func mergeRuns[T any](a, b []T, run func(T) int, limit int) []T {
	if len(a)+len(b) == 0 {
		return nil
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

// Run executes the campaign and aggregates the results.
func Run(spec Spec) *Summary {
	spec = spec.withDefaults()
	if spec.RecordDir != "" {
		_ = os.MkdirAll(spec.RecordDir, 0o755)
	}
	if spec.CaptureDir != "" {
		_ = os.MkdirAll(spec.CaptureDir, 0o755)
	}
	tel := spec.Telemetry
	if tel == nil {
		tel = NewTelemetry(TelemetryOptions{})
		spec.Telemetry = tel
	}
	tel.bind(spec)
	tel.campaignStart(specInfo(spec))

	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()

	ck := &ckState{path: spec.CheckpointPath, hook: spec.checkpointHook}
	tools := newWorkerTools(spec)
	jobs, frags, budgets := runWaves(spec, tel, ck, tools)
	tools.close()

	wall := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	gc := GCSummary{
		AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		Mallocs:      ms1.Mallocs - ms0.Mallocs,
		NumGC:        ms1.NumGC - ms0.NumGC,
		PauseTotalNS: ms1.PauseTotalNs - ms0.PauseTotalNs,
	}
	meta, cells := metaOf(spec), foldCells(spec, jobs, frags, tools)
	sum := aggregate(meta, cells, budgets)
	sum.WallNS, sum.GC, sum.Provenance = int64(wall), gc, BuildProvenance()
	sum.CheckpointErrors = ck.errs
	if spec.Shard.Count > 1 {
		// A partial carries the fold's input — its per-cell fragment state —
		// so MergeSummaries can re-run the single-machine fold and render.
		sum.Shard = &ShardInfo{Index: spec.Shard.Index, Count: spec.Shard.Count,
			SpecDigest: SpecDigest(spec), ReproFlags: meta.reproFlags,
			Cells: checkpointCells(spec, cells, nil)}
	}
	if spec.CaptureDir != "" {
		// Write the canonical capture manifest (an empty one when nothing
		// triggered — consumers rely on the file existing). The manifest is
		// sorted by (tool, litmus, program, seed), so it is byte-identical
		// for any worker count.
		if err := captureManifest(frags).WriteFile(filepath.Join(spec.CaptureDir, obs.ManifestFileName)); err != nil {
			fmt.Fprintf(os.Stderr, "campaign: write capture manifest: %v\n", err)
		}
	}
	// campaignEnd closes the event stream (flushing everything queued), so
	// the drop counter folded into the summary is final.
	tel.campaignEnd(totalExecs(sum))
	sum.Obs = &ObsSummary{
		EventsEmitted: tel.EventsEmitted(),
		EventsDropped: tel.EventsDropped(),
	}
	return sum
}

// totalExecs sums the per-tool execution counts of a summary.
func totalExecs(s *Summary) int {
	n := 0
	for _, ts := range s.Tools {
		n += ts.Execs
	}
	return n
}

// runPool executes jobs[i] for every i via fn(w, i) across the spec's worker
// pool, where w < spec.Workers is the worker slot running the job. Each
// worker writes only its own jobs' fragment slots, so the slice needs no
// lock; the caller merges after the barrier.
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
// The split units, the shard manifest's seed ranges and the telemetry plan
// all come from this one deal, so they cannot drift apart.
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
// checkpoint cells and every per-tool list of the summary.
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
	tracker explore.Tracker
	used    int
	stopped bool // converged: excluded from further grants
}

// runWaves is the campaign's run loop. Wave 1 grants every cell its initial
// budget of Runs executions. A policy that never stops a cell early
// (Chunk() == 0, uniform) has independent executions, so each grant splits
// into the chunkDeal units — ShardSize chunks, only this shard's deal under
// Spec.Shard — that spread over the worker pool; several units of one cell
// run at once, so none feeds the tracker. Under any other policy a grant is
// one serial unit, run chunk-by-chunk with a convergence check between
// chunks, and cells that converge stop early. The unspent budget of
// converged cells forms a pool that later waves grant, one chunk per
// still-diverging cell per wave in matrix order, until the pool is exhausted
// or every cell converged. The total never exceeds Runs × cells, and every
// decision happens at a barrier from per-cell-deterministic state, so the
// result is independent of the worker count.
func runWaves(spec Spec, tel *Telemetry, ck *ckState, tools workerTools) ([]job, []fragment, map[cellKey]*BudgetSummary) {
	chunk := spec.Policy.Chunk()
	split := chunk == 0
	deal := chunkDeal(spec)
	if chunk <= 0 || chunk > spec.Runs {
		chunk = spec.Runs
	}
	nb, nl := len(spec.Benchmarks), len(spec.Litmus)

	var plans []*cellPlan
	for _, k := range matrixCells(spec) {
		plans = append(plans, &cellPlan{cellKey: k, tracker: spec.Policy.NewTracker()})
	}

	var jobs []job
	var frags []fragment
	type grant struct {
		plan   *cellPlan
		budget int
	}
	wave := 0
	if spec.Resume != nil {
		// Re-enter at the last completed wave: plans get their used/stopped
		// budgets and tracker state back, and the completed work re-enters the
		// job list as one synthetic whole-range job per cell carrying the
		// checkpointed merged fragment. aggregate folds both shapes
		// identically, so the finished artifact cannot tell the difference. A
		// Complete checkpoint (the previous run died before or while writing
		// the artifacts) leaves no budget to grant, so nothing re-runs.
		wave = spec.Resume.Wave
		jobs, frags = restore(spec.Resume, plans)
	}
	// runWave appends the grants' units to jobs and runs them across the
	// worker pool, each worker writing its unit's fragment in place. Each wave
	// emits its barrier events: unit events from the workers as units
	// complete, cell_converged and wave_end from the deterministic
	// post-barrier state.
	runWave := func(grants []grant) {
		wave++
		base := len(jobs)
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
		frags = append(frags, make([]fragment, len(jobs)-base)...)
		tel.waveStart(wave, len(jobs)-base)
		runPool(spec, len(jobs)-base, func(w, i int) {
			j := &jobs[base+i]
			tel.unitStart(wave, *j, j.hi-j.lo)
			r := tools.unit(spec, w, *j)
			if split {
				r.run(j.lo, j.hi, nil)
			} else {
				j.hi = j.lo + r.runChunked(j.lo, j.hi-j.lo, chunk, plans[j.key().index(nb, nl)].tracker)
			}
			frags[base+i] = r.frag
			tel.unitDone(wave, *j, &frags[base+i])
		})
		waveExecs := 0
		for i := base; i < len(frags); i++ {
			waveExecs += frags[i].Execs
		}
		for gi, g := range grants {
			if split {
				// Every index of the grant ran, on this shard or another.
				g.plan.used += g.budget
			} else {
				g.plan.used = jobs[base+gi].hi
			}
			wasStopped := g.plan.stopped
			g.plan.stopped = g.plan.tracker.Converged()
			// Convergence introspection happens here — at the barrier, from
			// per-cell-deterministic tracker state — so the snapshot stream
			// is identical for any worker count.
			tel.convergeState(wave, g.plan.cellKey, g.plan.tracker)
			if g.plan.stopped && !wasStopped {
				tel.cellConverged(wave, g.plan.cellKey, g.plan.used)
			}
		}
		tel.waveEnd(wave, len(jobs)-base, waveExecs)
		// The wave barrier is the checkpoint point: every decision below this
		// line is a pure function of the state being persisted.
		ck.save(spec, tel, wave, false, plans, jobs, frags, tools)
	}

	if spec.Resume == nil {
		// Wave 1: initial budgets.
		wave1 := make([]grant, len(plans))
		for i, p := range plans {
			wave1[i] = grant{plan: p, budget: spec.Runs}
		}
		runWave(wave1)
	}

	// Freed budget: what converged cells left unspent.
	pool := 0
	for _, p := range plans {
		pool += spec.Runs - p.used
	}

	// Extension waves: grant one chunk per still-diverging cell per wave.
	for pool > 0 {
		var grants []grant
		for _, p := range plans {
			if p.stopped || pool <= 0 {
				continue
			}
			g := chunk
			if g > pool {
				g = pool
			}
			pool -= g
			grants = append(grants, grant{plan: p, budget: g})
		}
		if len(grants) == 0 {
			break
		}
		runWave(grants)
		// Recompute the pool from first principles — total budget minus
		// spent — so a cell that converged mid-grant returns its unspent
		// remainder.
		pool = spec.Runs * len(plans)
		for _, p := range plans {
			pool -= p.used
		}
	}

	ck.save(spec, tel, wave, true, plans, jobs, frags, tools)

	if split {
		// A policy that cannot stop early has no budget to report.
		return jobs, frags, nil
	}
	budgets := map[cellKey]*BudgetSummary{}
	for _, p := range plans {
		extended := p.used - spec.Runs
		if extended < 0 {
			extended = 0
		}
		budgets[p.cellKey] = &BudgetSummary{
			Planned:   spec.Runs,
			Used:      p.used,
			Extended:  extended,
			Converged: p.stopped,
		}
	}
	return jobs, frags, budgets
}

// execCtx is the per-execution state threaded through the pipeline stages.
// The cellRunner reuses one instance (rewritten at the top of runOne), so
// composing stages costs no per-execution allocation.
type execCtx struct {
	res     *capi.Result
	i       int    // global execution index (seed = SeedBase+i)
	outcome string // rendered litmus outcome ("" for benchmarks)
	// hit marks executions owed a recorded trace: a detection signal, a
	// race, or a forbidden outcome (the signal stage computes it).
	hit bool
	// abort marks the execution's model state untrustworthy (an infeasible
	// modification-order lifting): later stages that would lift it again
	// are skipped.
	abort bool
	// lifted marks the runner's workspace as holding this execution.
	lifted bool
	obs    explore.Obs
}

// stage is one pipeline step run over every completed execution. Stages are
// method expressions composed once per cell in newCellRunner — which duties
// run, and in what order, is a property of the spec, not a branch in the
// per-execution path.
type stage func(*cellRunner)

// cellRunner executes a range of one cell's executions on a fresh or rearmed
// tool instance, folding results into its fragment.
type cellRunner struct {
	spec Spec
	j    job
	tool capi.Tool
	frag fragment

	// stages is the cell's composed pipeline, run in order after every
	// completed execution: the cell-kind signal stage (benchmark detection
	// or litmus verdict, including race dedup), then — per spec — axiom
	// validation, the analyzer stage, and trace recording.
	stages []stage
	// x is the reused per-execution context the stages communicate
	// through.
	x execCtx

	// met is the worker's histogram accumulator for this cell (nil only for
	// a runner built without a worker slot: captureTrace's re-runs).
	met *hists

	// fr is the unit's flight recorder (Spec.CaptureDir); nil when capture
	// is unarmed.
	fr *obs.FlightRecorder

	// Engine plumbing (trace duties, guided exploration). slot is the
	// worker's warm state: the axiom workspace validation and the analyzers
	// share, and the race-key intern table. One pointer reaches both, which
	// keeps the runner inside its malloc size class (TestCellRunnerSizeClass).
	eng    *core.Engine
	mo     core.MOProvider
	slot   *workerSlot
	rec    *trace.Recorder
	pg     *trace.PrefixGuide
	guides []*trace.Trace

	// analyzers are the cell's analysis plug-in instances (cell-confined;
	// see analysis.Analyzer), minus the ones this cell's tool cannot feed;
	// ax is the reused Exec handed to them.
	analyzers []analysis.Analyzer
	ax        analysis.Exec

	// Program under test.
	prog  capi.Program
	bench BenchmarkSpec // jobBench
	test  *litmus.Test  // jobLitmus
	out   string        // litmus outcome cell
}

// newCellRunner builds the runner for job j on tool. slot is the worker
// state runOne's stages use; it may be nil for a runner that never runs an
// execution through runOne (captureTrace).
func newCellRunner(spec Spec, j job, tool capi.Tool, slot *workerSlot) *cellRunner {
	r := &cellRunner{spec: spec, j: j, tool: tool, slot: slot, frag: fragment{Races: map[string]raceHit{}}}
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

	r.eng, _ = r.tool.(*core.Engine)
	if r.eng != nil {
		r.mo, _ = r.eng.Model().(core.MOProvider)
	}
	if slot != nil {
		// runOne switches handoff-wait timing and phase spans per execution
		// index (sampleTiming); without an accumulator both stay off.
		r.met = &slot.hists[j.key().index(len(spec.Benchmarks), len(spec.Litmus))]
	}
	if spec.CaptureDir != "" {
		r.fr = obs.NewFlightRecorder(obs.FlightRecorderConfig{SlowNS: spec.CaptureSlowNS})
	}
	// Guided exploration: wrap the tool's live strategy in a PrefixGuide
	// when the guide set has traces for this cell.
	if r.eng != nil && spec.Guides != nil {
		r.guides = spec.Guides.For(spec.Tools[j.tool].Name, r.programName())
		if len(r.guides) > 0 {
			r.frag.GuideTraces = len(r.guides)
			r.pg = trace.NewPrefixGuide(r.eng.Strategy())
			if spec.GuideMinFrac > 0 {
				r.pg.MinFrac = spec.GuideMinFrac
			}
			if spec.GuideMaxFrac > 0 {
				r.pg.MaxFrac = spec.GuideMaxFrac
				if spec.GuideMinFrac == 0 && r.pg.MaxFrac < r.pg.MinFrac {
					// An explicit upper bound below the default skew-deep
					// floor implies the whole shallow range.
					r.pg.MinFrac = 0
				}
			}
			r.eng.SetStrategy(r.pg)
		}
	}
	// Analyzer plug-ins: one fresh instance per cell. An analyzer whose
	// needs this cell's tool cannot meet — a trace needs the engine, a
	// modification order needs an MOProvider model — is skipped on this
	// cell, the way axiom validation skips non-MOProvider tools. Unknown
	// names were refused by Spec.Validate; a name slipping past it here is
	// skipped rather than crashed on (workers have nowhere to return an
	// error).
	for _, name := range spec.Analyzers {
		a, err := analysis.New(name)
		if err != nil {
			continue
		}
		if a.NeedsTrace() && r.eng == nil {
			continue
		}
		if a.NeedsMO() && r.mo == nil {
			continue
		}
		r.analyzers = append(r.analyzers, a)
	}
	// Trace duties: engines whose model exposes total modification orders
	// run in trace mode for validation and event recording, and any
	// analyzer that reads the action trace turns tracing on too; the
	// recorder strategy wrapper captures the (effective, guided included)
	// schedule of every execution.
	needTrace := r.mo != nil && (spec.ValidateAxioms || spec.RecordDir != "")
	for _, a := range r.analyzers {
		if a.NeedsTrace() {
			needTrace = true
		}
	}
	if r.eng != nil && needTrace {
		r.eng.SetTrace(true)
	}
	if r.eng != nil && spec.RecordDir != "" {
		r.rec = trace.NewRecorder(r.eng.Strategy())
		r.eng.SetStrategy(r.rec)
	}
	// Compose the pipeline. The stage set and order are fixed per cell:
	// signal first (it computes hit, the trace-owed flag), then validation
	// (it decides abort), then analyzers, then recording. With the default
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
	if r.rec != nil {
		r.stages = append(r.stages, (*cellRunner).stageRecord)
	}
	return r
}

func (r *cellRunner) programName() string {
	if r.test != nil {
		return r.test.Name
	}
	return r.bench.Name
}

// closeTool releases a tool instance: engines retire their fiber-pool
// workers (core.Engine.Close), so long-lived processes do not accumulate
// parked workers. Campaigns close their warm tools when the workers exit at
// the end of Run; flight-recorder captures close theirs after each cell.
func closeTool(t capi.Tool) {
	if c, ok := t.(interface{ Close() }); ok {
		c.Close()
	}
}

// workerTools holds every campaign worker's warm state, indexed by worker
// slot: one tool instance per Spec.Tools entry, one axiom workspace that
// every execution the worker validates or analyzes is lifted into, one
// race-key intern table, and one histogram accumulator per matrix cell. Each
// worker keeps them for the whole Run — across shards, cells and waves — so
// tool construction, fiber-pool warmup, workspace growth and key formatting
// are paid once per worker, not per unit or per execution.
type workerTools []workerSlot

type workerSlot struct {
	tools []capi.Tool
	lift  axiom.Execution
	keys  keyIntern
	hists []hists // matrix order (see matrixCells)
}

// keyIntern renders each race identity's key (RaceReport.Key) once per
// worker: the campaign keys races by string, and formatting one per report
// per execution was most of a racy execution's allocations. buf is
// raceKeysOf's reused result.
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
		wt[w].tools = make([]capi.Tool, len(spec.Tools))
		wt[w].hists = make([]hists, ncells)
		for c := range wt[w].hists {
			wt[w].hists[c] = blankHists
		}
	}
	return wt
}

// unit returns a runner for job j on worker w: the worker's instance of j's
// tool — the warm one rearmed to its constructed state, or a fresh one when
// the tool cannot be rearmed (or the worker has none yet) — and the worker's
// workspace.
func (wt workerTools) unit(spec Spec, w int, j job) *cellRunner {
	slot := &wt[w]
	t := slot.tools[j.tool]
	if r, ok := t.(interface{ Rearm() }); ok {
		r.Rearm()
	} else {
		closeTool(t) // nil-safe: a nil tool has no Close method
		t = spec.Tools[j.tool].New()
		slot.tools[j.tool] = t
	}
	return newCellRunner(spec, j, t, slot)
}

// close releases every worker's tools once the campaign's workers are done.
func (wt workerTools) close() {
	for _, slot := range wt {
		for _, t := range slot.tools {
			closeTool(t)
		}
	}
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
func (r *cellRunner) runChunked(lo, budget, chunk int, tracker explore.Tracker) int {
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
	// pins this exact path, on a sampled and an unsampled index. The clock is
	// read only on a timed index, or for the flight recorder's opt-in
	// wall-clock trigger.
	if r.met != nil && r.eng != nil {
		sampleTiming(r.eng, i)
	}
	clock := (r.met != nil && i%timingSample == 0) || r.spec.CaptureSlowNS
	var execStart time.Time
	if clock {
		execStart = time.Now()
	}
	res := r.tool.Execute(r.prog, r.spec.SeedBase+int64(i))
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
		r.flightFail(i)
		return explore.Obs{}
	}
	r.frag.Execs++
	if r.met != nil {
		r.met.observe(i, execDur, r.eng)
	}
	if r.pg != nil {
		depth, consumed, diverged := r.pg.Handoff()
		r.frag.GuidedExecs++
		r.frag.PrefixDepth += int64(depth)
		r.frag.PrefixConsumed += int64(consumed)
		if diverged {
			r.frag.Divergences++
		}
	}

	// Run the composed pipeline over the reused execution context, then the
	// unconditional tail: the detection metric and the flight-recorder
	// check fire whether or not a stage aborted.
	r.x = execCtx{res: res, i: i}
	r.x.obs.RaceKeys = raceKeysOf(&r.slot.keys, res)
	for _, st := range r.stages {
		st(r)
	}
	r.flightCheck(i, execDur, len(res.NewRaces) > 0, r.x.obs)
	return r.x.obs
}

// stageBench is the benchmark-cell signal stage: the suite's detection
// signal, op accounting, and race dedup.
func (r *cellRunner) stageBench() {
	res, i := r.x.res, r.x.i
	hit := r.bench.Signal.Hit(res)
	if hit {
		r.frag.Detected++
	}
	r.frag.Ops.Add(res.Stats)
	recordRaces(&r.frag, &r.slot.keys, res, i)
	r.x.hit = hit || len(res.Races) > 0
	r.x.obs.Detected = hit
}

// stageLitmus is the litmus-cell signal stage: outcome accounting, the
// forbidden/weak verdicts, and race dedup.
func (r *cellRunner) stageLitmus() {
	res, i := r.x.res, r.x.i
	r.frag.Ops.Add(res.Stats)
	// Litmus programs only touch shared state atomically, so any race
	// here is a detector soundness bug, not a finding.
	recordRaces(&r.frag, &r.slot.keys, res, i)
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
		r.x.abort = true
		// The record stage would hit the same infeasible lifting; if this
		// execution's trace was owed, count it as dropped.
		if r.rec != nil && (r.x.hit || r.spec.RecordAll) {
			r.frag.RecordErrs++
		}
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
	if r.x.abort {
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
// per (analyzer, key), counts summed.
func (r *cellRunner) addFinding(a analysis.Analyzer, f analysis.Finding) {
	if r.frag.Findings == nil {
		r.frag.Findings = map[findingID]findingHit{}
	}
	id := findingID{analyzer: a.Name(), key: f.Key}
	hit, seen := r.frag.Findings[id]
	if !seen {
		hit = findingHit{Desc: f.Desc, Run: r.x.i}
	} else if r.x.i < hit.Run {
		hit.Desc, hit.Run = f.Desc, r.x.i
	}
	hit.Count++
	r.frag.Findings[id] = hit
}

// stageRecord persists the execution's portable trace when one is owed (a
// signal-bearing execution, or every execution under RecordAll).
func (r *cellRunner) stageRecord() {
	if r.x.abort || !(r.x.hit || r.spec.RecordAll) {
		return
	}
	spec := r.spec
	i := r.x.i
	seed := spec.SeedBase + int64(i)
	meta := trace.Meta{
		Tool: spec.Tools[r.j.tool].TraceConfig, Program: r.programName(),
		Litmus: r.test != nil, Seed: seed, Outcome: r.x.outcome,
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
		r.recordFailure(i, ie.Error())
		r.frag.RecordErrs++
		r.x.abort = true
		return
	}
	if err == nil {
		path := filepath.Join(spec.RecordDir, trace.FileName(r.tool.Name(), r.programName(), seed))
		err = tr.WriteFile(path)
	}
	r.observePhase(core.PhaseRecord, rt0)
	if err == nil {
		r.frag.Recorded++
	} else {
		// Counted and surfaced in the summary: a campaign asked to
		// persist traces must not drop them silently.
		r.frag.RecordErrs++
	}
}

// timingSample is the campaign's timing sample interval: execution i of a
// cell runs with handoff-wait timing and phase spans iff i%timingSample == 0.
// Each timed execution pays dozens to hundreds of clock reads (two per
// handoff, two per race-bearing access), which cost a campaign ~30% of its
// throughput when every execution paid them. The sample is a pure function
// of the global execution index, so the sampled histograms' counts are as
// deterministic under workers, shards and resume as the outcomes, and every
// cell with at least one execution (index 0) gets at least one sample.
const timingSample = 16

// sampleTiming switches eng's handoff-wait timing and phase spans for
// execution index i.
func sampleTiming(eng *core.Engine, i int) {
	on := i%timingSample == 0
	eng.SetHandoffTiming(on)
	eng.SetPhaseTiming(on)
}

// phaseStart opens a campaign-bracketed phase span (validate, record) of the
// current execution: the start stamp when the execution is timed (runOne
// switched the engine's phase spans on), the zero time — and no clock read —
// otherwise.
func (r *cellRunner) phaseStart() time.Time {
	if r.met != nil && r.eng.PhaseTiming() {
		return time.Now()
	}
	return time.Time{}
}

// observePhase folds a campaign-bracketed phase span opened by phaseStart
// into the cell's phase histograms; a zero t0 (untimed execution) is
// skipped, so every phase histogram shares the engine phases' denominator.
func (r *cellRunner) observePhase(p core.Phase, t0 time.Time) {
	if !t0.IsZero() {
		r.met.PhaseNS[p].Observe(uint64(time.Since(t0)))
	}
}

// raceKeysOf returns the deduplicated race keys of one execution, in
// first-occurrence order. The slice aliases keys' reused buffer and is valid
// until the next call: the tracker keeps only the strings, and capture
// copies the slice.
func raceKeysOf(keys *keyIntern, res *capi.Result) []string {
	if len(res.Races) == 0 {
		return nil
	}
	out := keys.buf[:0]
	for i := range res.Races {
		if k := keys.key(&res.Races[i]); !slices.Contains(out, k) {
			out = append(out, k)
		}
	}
	keys.buf = out
	return out
}

// recordRaces folds an execution's races into the fragment, keeping the
// earliest execution index per race key.
func recordRaces(frag *fragment, keys *keyIntern, res *capi.Result, run int) {
	for i := range res.Races {
		r := &res.Races[i]
		key := keys.key(r)
		if hit, seen := frag.Races[key]; !seen || run < hit.Run {
			frag.Races[key] = raceHit{Desc: r.String(), Run: run}
		}
	}
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
	if s.RecordAll && s.RecordDir == "" {
		return fmt.Errorf("campaign: RecordAll requires RecordDir")
	}
	if s.CaptureSlowNS && s.CaptureDir == "" {
		return fmt.Errorf("campaign: CaptureSlowNS requires CaptureDir")
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
			if _, uniform := s.Policy.(explore.Uniform); !uniform {
				return fmt.Errorf("campaign: sharding requires the uniform policy (adaptive budgets redistribute across the whole matrix; got %q)", s.Policy.Name())
			}
		}
		if s.CheckpointPath != "" || s.Resume != nil {
			return fmt.Errorf("campaign: sharding is incompatible with checkpoint/resume (resume the whole campaign, or re-run the one lost shard)")
		}
	}
	if s.GuideMinFrac < 0 || s.GuideMaxFrac < 0 || s.GuideMinFrac > 1 || s.GuideMaxFrac > 1 ||
		(s.GuideMaxFrac > 0 && s.GuideMinFrac > s.GuideMaxFrac) {
		return fmt.Errorf("campaign: guide prefix fractions [%g, %g] outside 0 ≤ min ≤ max ≤ 1",
			s.GuideMinFrac, s.GuideMaxFrac)
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
