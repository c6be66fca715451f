package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"c11tester/internal/explore"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
)

// SpecInfo echoes the campaign parameters into the summary, making every
// artifact self-describing (and every execution in it replayable: seed i of
// a cell is Spec.SeedBase+i).
type SpecInfo struct {
	Tools      []string `json:"tools"`
	Benchmarks []string `json:"benchmarks"`
	Litmus     []string `json:"litmus"`
	Runs       int      `json:"runs"`
	SeedBase   int64    `json:"seed_base"`
	Workers    int      `json:"workers"`
	ShardSize  int      `json:"shard_size"`
	// Policy echoes the budget policy and its parameters (schema v3);
	// "uniform" is the fixed Runs-per-cell matrix.
	Policy string `json:"policy,omitempty"`
	// GuideDir and GuideTraces echo the trace-guided exploration input
	// (schema v3).
	GuideDir    string `json:"guide_dir,omitempty"`
	GuideTraces int    `json:"guide_traces,omitempty"`
	// RecordDir and RecordOn echo the trace sink: its directory and its
	// trigger set (schema v12).
	RecordDir string `json:"record_dir,omitempty"`
	RecordOn  string `json:"record_on,omitempty"`
	Validate  bool   `json:"validate,omitempty"`
	// Analyzers echoes the analyzer pipeline composed per cell (schema v7).
	Analyzers []string `json:"analyzers,omitempty"`
}

// BudgetSummary is the budget accounting of one cell under an adaptive
// policy (schema v3): how many executions its initial budget planned, how
// many actually ran, how many of those were reassigned from other cells'
// freed budget, and whether the cell's statistics converged.
type BudgetSummary struct {
	Planned   int  `json:"planned"`
	Used      int  `json:"used"`
	Extended  int  `json:"extended,omitempty"`
	Converged bool `json:"converged"`
	// Curve is the cell's convergence curve (schema v13): one point per
	// wave barrier where the cell was granted budget, in wave order. The
	// last point's verdict is Converged.
	Curve []CurvePoint `json:"curve,omitempty"`
}

// CurvePoint is a converge cell's tracker state at the barrier of a wave
// that granted it budget.
type CurvePoint struct {
	Wave int `json:"wave"` // 1-based
	explore.TrackerState
}

// GuideStats reports the trace-guided exploration of one cell (schema v3):
// how many traces guided it, how many executions ran guided, the mean
// intended prefix depth and mean choices actually consumed before handoff
// (in combined schedule choices), and how many prefixes diverged (a recorded
// choice was not takeable and forced an early handoff).
type GuideStats struct {
	Traces          int     `json:"traces"`
	GuidedExecs     int     `json:"guided_execs"`
	MeanPrefixDepth float64 `json:"mean_prefix_depth"`
	MeanConsumed    float64 `json:"mean_consumed"`
	Divergences     int     `json:"divergences"`
	// PrefixDepthSum and ConsumedSum are the raw sums behind the means
	// (schema v6), kept from the fragment so the means are exact.
	PrefixDepthSum int64 `json:"prefix_depth_sum,omitempty"`
	ConsumedSum    int64 `json:"consumed_sum,omitempty"`
}

// EngineFailure is one sampled execution the tool itself aborted (schema
// v3): an infeasible memory-model state (core.InfeasibleError), with the
// reproduction triple of the failing execution.
type EngineFailure struct {
	Error string        `json:"error"`
	Repro harness.Repro `json:"repro"`
}

// cellKey identifies one (kind, tool, cell) of the campaign matrix.
type cellKey struct {
	kind jobKind
	tool int
	cell int
}

// CellSummary aggregates one (tool, benchmark) cell.
type CellSummary struct {
	Program   string                   `json:"program"`
	Detection harness.DetectionSummary `json:"detection"`
	// RaceKeys are the deduplicated race keys this cell exhibited, sorted.
	RaceKeys []string `json:"race_keys"`
	// Budget is the cell's budget accounting under an adaptive policy
	// (schema v3; absent under the uniform policy).
	Budget *BudgetSummary `json:"budget,omitempty"`
	// Guided is present when the cell ran trace-guided (schema v3).
	Guided *GuideStats `json:"guided,omitempty"`
	// Failed counts executions the tool itself aborted (schema v3).
	Failed int `json:"failed,omitempty"`
	// Hists are the cell's folded histograms and layer counts (schema v16),
	// the artifact fragment's own; nil when the cell observed nothing.
	Hists *hists `json:"hists,omitempty"`
}

// ForbiddenOutcome is one observed litmus outcome the memory model must
// never produce — a model soundness bug, with the reproduction triple of
// the earliest execution that produced it.
type ForbiddenOutcome struct {
	Test    string        `json:"test"`
	Outcome string        `json:"outcome"`
	Count   int           `json:"count"`
	Repro   harness.Repro `json:"repro"`
}

// LitmusSummary aggregates one (tool, litmus test) cell.
type LitmusSummary struct {
	Test  string `json:"test"`
	Execs int    `json:"execs"`
	// Outcomes histograms the observed outcomes (empty-outcome runs, e.g.
	// starved bounded spins, are not counted).
	Outcomes map[string]int `json:"outcomes"`
	// ForbiddenSeen lists forbidden outcomes that were observed (must stay
	// empty for a sound model).
	ForbiddenSeen []ForbiddenOutcome `json:"forbidden_seen,omitempty"`
	// WeakSeen lists the weak (allowed, non-SC) outcomes observed, sorted;
	// WeakDefined is how many the test defines. Coverage of weak outcomes
	// is what separates the full fragment from the baselines'.
	WeakSeen    []string `json:"weak_seen"`
	WeakDefined int      `json:"weak_defined"`
	// Budget, Guided, Failed and Hists mirror CellSummary's fields.
	Budget *BudgetSummary `json:"budget,omitempty"`
	Guided *GuideStats    `json:"guided,omitempty"`
	Failed int            `json:"failed,omitempty"`
	Hists  *hists         `json:"hists,omitempty"`
}

// ValidationSummary reports the per-tool axiomatic-validation results of a
// -validate campaign: how many executions were checked against the Appendix
// A model, how many were skipped (the tool's memory model exposes no total
// modification order), and how many violations were found. Any violation is
// a model soundness bug and fails the campaign.
type ValidationSummary struct {
	Checked    int      `json:"checked"`
	Skipped    int      `json:"skipped"`
	Violations int      `json:"violations"`
	Samples    []string `json:"samples,omitempty"`
}

// AnalyzerSummary is one analyzer's per-tool rollup (schema v7): how many
// distinct finding keys it produced across the tool's cells and the total
// number of executions that hit one of them. A campaign run with -analyzers
// emits one entry per requested analyzer, in request order, even when the
// analyzer found nothing (or was skipped on every cell because the tool
// cannot satisfy its trace/MO needs).
type AnalyzerSummary struct {
	Analyzer string `json:"analyzer"`
	Distinct int    `json:"distinct"`
	Count    int    `json:"count"`
}

// FindingSummary is one deduplicated analyzer finding (schema v7): the
// analyzer that emitted it, its key (unique per (analyzer, cell)), and the
// reproduction triple of the earliest execution that produced it — the repro
// flags include "-analyzers <name>" so the one-command replay re-runs the
// analyzer that found it.
type FindingSummary struct {
	Analyzer    string        `json:"analyzer"`
	Key         string        `json:"key"`
	Description string        `json:"description"`
	Program     string        `json:"program"`
	Litmus      bool          `json:"litmus,omitempty"`
	Count       int           `json:"count"`
	Repro       harness.Repro `json:"repro"`
}

// GCSummary is the campaign-wide memory profile: heap allocation and GC
// deltas measured across the whole run.
type GCSummary struct {
	AllocBytes   uint64 `json:"alloc_bytes"`
	Mallocs      uint64 `json:"mallocs"`
	NumGC        uint32 `json:"num_gc"`
	PauseTotalNS uint64 `json:"pause_total_ns"`
}

// ToolSummary aggregates one tool's whole campaign.
type ToolSummary struct {
	Tool string `json:"tool"`
	// Execs counts executions across all cells; WorkNS sums the shard
	// execution times (serial-equivalent work, independent of the worker
	// count up to scheduling noise), and ExecsPerSec = Execs/WorkNS.
	Execs       int     `json:"execs"`
	WorkNS      int64   `json:"work_ns"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	AtomicOps   uint64  `json:"atomic_ops"`
	NormalOps   uint64  `json:"normal_ops"`

	// Validation is present when the campaign ran with ValidateAxioms.
	Validation *ValidationSummary `json:"validation,omitempty"`
	// RecordedTraces counts the trace files this tool persisted (RecordDir);
	// RecordErrors counts executions owed a trace that could not be recorded
	// or written (any nonzero value is surfaced as a warning in the report).
	// Both are counted from the record manifest's entries.
	RecordedTraces int `json:"recorded_traces,omitempty"`
	RecordErrors   int `json:"record_errors,omitempty"`
	// EngineFailures counts executions this tool aborted with an infeasible
	// memory-model state (schema v3); FailureSamples carries the earliest
	// few with repro triples. Any failure is a model soundness bug and fails
	// the campaign — but only the failing executions, not the worker, so the
	// rest of the matrix still runs.
	EngineFailures int             `json:"engine_failures,omitempty"`
	FailureSamples []EngineFailure `json:"failure_samples,omitempty"`
	// Analyzers and Findings carry the analyzer pipeline's results (schema
	// v7): per-analyzer rollups and the deduplicated findings with repro
	// triples, sorted by (analyzer, cell order, key). Present only when the
	// campaign ran with a non-empty analyzer set.
	Analyzers []AnalyzerSummary `json:"analyzers,omitempty"`
	Findings  []FindingSummary  `json:"findings,omitempty"`

	Benchmarks []CellSummary   `json:"benchmarks,omitempty"`
	Litmus     []LitmusSummary `json:"litmus,omitempty"`

	// Races are the campaign-wide deduplicated benchmark races with the
	// reproduction triple of the earliest execution per key.
	Races []harness.RaceSummary `json:"races"`
	// UnexpectedRaces are races reported inside litmus programs, which only
	// perform atomic accesses: any entry is a race-detector soundness bug.
	UnexpectedRaces []harness.RaceSummary `json:"unexpected_races,omitempty"`
}

// Summary is the rendered campaign: the form the headline, the report and
// the comparisons read, built in memory from the artifact's cells
// (Checkpoint.Summarize). Its JSON form exists for Canonical, the form in
// which the package's byte-identity guarantees are stated and checked.
type Summary struct {
	Spec   SpecInfo  `json:"spec"`
	WallNS int64     `json:"wall_ns"`
	GC     GCSummary `json:"gc"`
	// Provenance identifies the build that produced the artifact (schema v5).
	Provenance *Provenance   `json:"provenance,omitempty"`
	Tools      []ToolSummary `json:"tools"`
	// Partial says why the artifact does not cover the whole campaign: it is
	// a shard's, or its run stopped mid-campaign. Empty for a whole one.
	Partial string `json:"partial,omitempty"`
	// CheckpointErrors counts the barrier writes of the artifact that failed
	// during its run (Checkpoint.CheckpointErrors). It says how the run
	// went, not what it found, so Canonical leaves it out.
	CheckpointErrors int `json:"-"`
	// WriteErr is why Run could not write its final artifact or record
	// manifest; nil when they landed or none was asked for.
	WriteErr error `json:"-"`
}

// index is the cell's position in matrix order (see matrixCells) in a
// matrix of nb benchmarks and nl litmus tests per tool.
func (k cellKey) index(nb, nl int) int {
	i := k.tool*(nb+nl) + k.cell
	if k.kind == jobLitmus {
		i += nb
	}
	return i
}

// foldCells folds the restored cells (a resumed run's artifact cells, in
// matrix order; nil otherwise), every worker's cell accumulators and every
// worker's per-cell histograms into one artifact cell per matrix cell, with
// the budget and curve state of the wave loop's plans (matrix order). Cells
// that ran nothing keep an empty fragment. It runs at barriers, when no
// worker is observing.
func foldCells(spec Spec, plans []*cellPlan, restored []CellCheckpoint, wt workerTools) []CellCheckpoint {
	cells := make([]CellCheckpoint, len(plans))
	for i, p := range plans {
		cells[i] = CellCheckpoint{
			ToolRef: spec.Tools[p.tool].Name, Program: spec.programOf(p.cellKey), Litmus: p.kind == jobLitmus,
			Used: p.used, Stopped: p.stopped, Curve: p.curve,
		}
		if restored != nil && restored[i].Used > 0 {
			cells[i].Frag.merge(&restored[i].Frag)
		}
	}
	for w := range wt {
		for c, r := range wt[w].runners {
			if r != nil {
				cells[c].Frag.merge(&r.acc)
			}
		}
		for c := range wt[w].hists {
			if h := &wt[w].hists[c]; *h != blankHists {
				cells[c].Frag.addHists(h)
			}
		}
	}
	return cells
}

// specInfo echoes the campaign parameters; the echo heads the artifact and
// the summary rendered from it.
func specInfo(spec Spec) SpecInfo {
	info := SpecInfo{
		Runs: spec.Runs, SeedBase: spec.SeedBase,
		Workers: spec.Workers, ShardSize: spec.ShardSize,
		Benchmarks: []string{}, Litmus: []string{},
		Policy:    policyName(spec.Policy),
		RecordDir: spec.RecordDir, RecordOn: spec.RecordOn.String(),
		Validate:  spec.ValidateAxioms,
		Analyzers: spec.Analyzers,
	}
	if spec.Guides != nil {
		info.GuideDir = spec.Guides.Dir()
		info.GuideTraces = spec.Guides.Len()
	}
	for _, t := range spec.Tools {
		info.Tools = append(info.Tools, t.Name)
	}
	for _, b := range spec.Benchmarks {
		info.Benchmarks = append(info.Benchmarks, b.Name)
	}
	for _, l := range spec.Litmus {
		info.Litmus = append(info.Litmus, l.Name)
	}
	return info
}

// Summarize renders the artifact into the campaign summary: the cells
// through aggregate, plus the run's wall clock, GC and provenance, and the
// partial marker of a shard or of a run stopped mid-campaign. Every reader
// renders through it, and Run renders its live summary through the same
// code, so a loaded artifact reports exactly what its run reported.
func (c *Checkpoint) Summarize() *Summary {
	sum := aggregate(c.Spec, c.Cells)
	sum.WallNS, sum.GC, sum.Provenance = c.WallNS, c.GC, c.Provenance
	sum.CheckpointErrors = c.CheckpointErrors
	switch {
	case c.Shard != nil:
		sum.Partial = fmt.Sprintf("shard %s of the campaign: -resume merges the %d shard artifacts", c.Shard, c.Shard.Count)
	case !c.Complete:
		sum.Partial = fmt.Sprintf("stopped after wave %d: -resume finishes it", c.Wave)
	}
	return sum
}

// aggregate renders the artifact cells (matrix order, see foldCells) into
// the Summary. It reads only the spec echo, the cells and the litmus tests'
// weak-outcome counts; a converge cell's budget follows from its cursor,
// stop and curve. Wall clock, GC and provenance are the caller's.
func aggregate(info SpecInfo, cells []CellCheckpoint) *Summary {
	nb, nl := len(info.Benchmarks), len(info.Litmus)
	sum := &Summary{Spec: info}
	budget := func(cc *CellCheckpoint) *BudgetSummary {
		if info.Policy == policyName(nil) {
			// A policy that cannot stop early has no budget to report.
			return nil
		}
		return &BudgetSummary{Planned: info.Runs, Used: cc.Used, Extended: max(cc.Used-info.Runs, 0),
			Converged: cc.Stopped, Curve: cc.Curve}
	}
	for t, tool := range info.Tools {
		repro := func(program string, inLitmus bool, run int) harness.Repro {
			return harness.Repro{Tool: tool, Program: program,
				Seed: info.SeedBase + int64(run), Litmus: inLitmus}
		}
		ts := ToolSummary{Tool: tool, Races: []harness.RaceSummary{}}
		var val ValidationSummary
		// Campaign-wide race dedup: first winner by (cell order, run index).
		type toolRace struct {
			summary harness.RaceSummary
			cell    int
			run     int
		}
		// addRaces folds a cell's deduplicated races into dst, keeping the
		// first winner by (cell order, run index) per key — a total order,
		// so the outcome is independent of merge order.
		addRaces := func(dst map[string]toolRace, cellIdx int, program string, inLitmus bool, races map[string]raceHit) {
			for key, hit := range races {
				cand := toolRace{summary: harness.RaceSummary{Key: key,
					Description: hit.Desc(), Repro: repro(program, inLitmus, hit.Run)},
					cell: cellIdx, run: hit.Run}
				if cur, seen := dst[key]; !seen ||
					cand.cell < cur.cell || (cand.cell == cur.cell && cand.run < cur.run) {
					dst[key] = cand
				}
			}
		}
		toolRaces := map[string]toolRace{}

		// The finding identity includes the cell (unlike races, which dedup
		// campaign-wide), so cells contribute disjoint entries; cellIdx ranks
		// benchmarks before litmus cells for the final sort.
		type toolFinding struct {
			summary FindingSummary
			cell    int
		}
		var toolFindings []toolFinding

		// addCell folds one cell's findings, failure and violation samples,
		// and totals into the tool summary. Cells are visited in matrix order
		// and their samples are already in run order, so every capped list
		// is deterministic.
		addCell := func(cellIdx int, program string, inLitmus bool, f *fragment) {
			for _, id := range sortedFindingIDs(f.Findings) {
				hit := f.Findings[id]
				r := repro(program, inLitmus, hit.Run)
				r.Flags = "-analyzers " + id.analyzer
				toolFindings = append(toolFindings, toolFinding{
					summary: FindingSummary{Analyzer: id.analyzer, Key: id.key,
						Description: hit.Desc(), Program: program, Litmus: inLitmus,
						Count: hit.Count, Repro: r},
					cell: cellIdx})
			}
			ts.EngineFailures += f.Failed
			for _, fl := range f.Failures {
				if len(ts.FailureSamples) >= maxViolationSamples {
					break
				}
				ts.FailureSamples = append(ts.FailureSamples,
					EngineFailure{Error: fl.Err, Repro: repro(program, inLitmus, fl.Run)})
			}
			for _, s := range f.VioSamples {
				if len(val.Samples) >= maxViolationSamples {
					break
				}
				val.Samples = append(val.Samples, fmt.Sprintf("%s/%s seed %d: %s",
					tool, program, info.SeedBase+int64(s.Run), s.Err))
			}
			val.Checked += f.Checked
			val.Skipped += f.Skipped
			val.Violations += f.Violations
			ts.Execs += f.Execs
			ts.WorkNS += int64(f.Elapsed)
			ts.AtomicOps += f.Ops.AtomicOps
			ts.NormalOps += f.Ops.NormalOps
			ts.RecordedTraces += f.Recorded
			ts.RecordErrors += f.RecordErrors
		}

		for b, program := range info.Benchmarks {
			cc := &cells[cellKey{kind: jobBench, tool: t, cell: b}.index(nb, nl)]
			f := &cc.Frag
			meanTime := time.Duration(0)
			if f.Execs > 0 {
				meanTime = f.Elapsed / time.Duration(f.Execs)
			}
			cell := CellSummary{
				Program: program,
				Detection: harness.Detection{
					Runs: f.Execs, Detected: f.Detected,
					Time: meanTime, Ops: f.Ops,
				}.Summary(),
				RaceKeys: harness.SortedKeys(f.Races),
				Budget:   budget(cc),
				Guided:   guideStatsOf(f),
				Failed:   f.Failed,
				Hists:    f.Hists,
			}
			ts.Benchmarks = append(ts.Benchmarks, cell)
			addRaces(toolRaces, b, program, false, f.Races)
			addCell(b, program, false, f)
		}
		for _, key := range harness.SortedKeys(toolRaces) {
			ts.Races = append(ts.Races, toolRaces[key].summary)
		}

		unexpected := map[string]toolRace{}
		for l, test := range info.Litmus {
			cc := &cells[cellKey{kind: jobLitmus, tool: t, cell: l}.index(nb, nl)]
			f := &cc.Frag
			outcomes := f.Outcomes
			if outcomes == nil {
				outcomes = map[string]int{}
			}
			ls := LitmusSummary{
				Test: test, Execs: f.Execs,
				Outcomes: outcomes,
				WeakSeen: harness.SortedKeys(f.Weak),
				Budget:   budget(cc),
				Guided:   guideStatsOf(f),
				Failed:   f.Failed,
				Hists:    f.Hists,
			}
			if t, ok := litmus.ByName(test); ok {
				ls.WeakDefined = len(t.Weak)
			}
			for _, out := range harness.SortedKeys(f.Forbidden) {
				ls.ForbiddenSeen = append(ls.ForbiddenSeen, ForbiddenOutcome{
					Test: test, Outcome: out, Count: outcomes[out],
					Repro: repro(test, true, f.Forbidden[out]),
				})
			}
			ts.Litmus = append(ts.Litmus, ls)
			addRaces(unexpected, l, test, true, f.Races)
			addCell(nb+l, test, true, f)
		}
		for _, key := range harness.SortedKeys(unexpected) {
			ts.UnexpectedRaces = append(ts.UnexpectedRaces, unexpected[key].summary)
		}
		// Findings sort by (analyzer, cell order, key) — a total order
		// independent of worker scheduling; the per-analyzer rollups follow
		// the spec's request order so every requested analyzer appears.
		sort.Slice(toolFindings, func(i, j int) bool {
			a, b := toolFindings[i], toolFindings[j]
			if a.summary.Analyzer != b.summary.Analyzer {
				return a.summary.Analyzer < b.summary.Analyzer
			}
			if a.cell != b.cell {
				return a.cell < b.cell
			}
			return a.summary.Key < b.summary.Key
		})
		for _, tf := range toolFindings {
			ts.Findings = append(ts.Findings, tf.summary)
		}
		for _, name := range info.Analyzers {
			as := AnalyzerSummary{Analyzer: name}
			for _, f := range ts.Findings {
				if f.Analyzer == name {
					as.Distinct++
					as.Count += f.Count
				}
			}
			ts.Analyzers = append(ts.Analyzers, as)
		}
		ts.ExecsPerSec = harness.ExecsPerSec(ts.Execs, time.Duration(ts.WorkNS))
		if info.Validate {
			ts.Validation = &val
		}
		sum.Tools = append(sum.Tools, ts)
	}
	return sum
}

// sortedFindingIDs orders a findings map by (analyzer, key), the iteration
// order every consumer (aggregate, events) uses.
func sortedFindingIDs(m map[findingID]findingHit) []findingID {
	ids := make([]findingID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].analyzer != ids[j].analyzer {
			return ids[i].analyzer < ids[j].analyzer
		}
		return ids[i].key < ids[j].key
	})
	return ids
}

// guideStatsOf renders a cell's guided-exploration statistics, or nil when
// the cell did not run guided.
func guideStatsOf(f *fragment) *GuideStats {
	if f.GuideTraces == 0 || f.GuidedExecs == 0 {
		return nil
	}
	n := float64(f.GuidedExecs)
	return &GuideStats{
		Traces:          f.GuideTraces,
		GuidedExecs:     f.GuidedExecs,
		MeanPrefixDepth: float64(f.PrefixDepth) / n,
		MeanConsumed:    float64(f.PrefixConsumed) / n,
		Divergences:     f.Divergences,
		PrefixDepthSum:  f.PrefixDepth,
		ConsumedSum:     f.PrefixConsumed,
	}
}

// Forbidden returns every forbidden litmus outcome observed in the
// campaign, across all tools.
func (s *Summary) Forbidden() []ForbiddenOutcome {
	var all []ForbiddenOutcome
	for _, ts := range s.Tools {
		for _, ls := range ts.Litmus {
			all = append(all, ls.ForbiddenSeen...)
		}
	}
	return all
}

// UnexpectedRaces returns every race reported inside a litmus program,
// across all tools.
func (s *Summary) UnexpectedRaces() []harness.RaceSummary {
	var all []harness.RaceSummary
	for _, ts := range s.Tools {
		all = append(all, ts.UnexpectedRaces...)
	}
	return all
}

// RecordErrors returns the total number of executions whose trace could not
// be persisted, across all tools.
func (s *Summary) RecordErrors() int {
	n := 0
	for _, ts := range s.Tools {
		n += ts.RecordErrors
	}
	return n
}

// AxiomViolations returns the total number of axiomatic-model violations
// found by a -validate campaign, across all tools.
func (s *Summary) AxiomViolations() int {
	n := 0
	for _, ts := range s.Tools {
		if ts.Validation != nil {
			n += ts.Validation.Violations
		}
	}
	return n
}

// FindingCount returns the total number of distinct analyzer findings across
// all tools (schema v7).
func (s *Summary) FindingCount() int {
	n := 0
	for _, ts := range s.Tools {
		n += len(ts.Findings)
	}
	return n
}

// EngineFailures returns the total number of executions the tools themselves
// aborted (infeasible memory-model states), across all tools.
func (s *Summary) EngineFailures() int {
	n := 0
	for _, ts := range s.Tools {
		n += ts.EngineFailures
	}
	return n
}

// Failed reports whether the campaign found a soundness problem: a forbidden
// litmus outcome, a race in a race-free litmus program, an execution that
// violated the axiomatic model, or an execution the tool itself aborted with
// an infeasible memory-model state.
func (s *Summary) Failed() bool {
	return len(s.Forbidden()) > 0 || len(s.UnexpectedRaces()) > 0 ||
		s.AxiomViolations() > 0 || s.EngineFailures() > 0
}

// DetectionTable renders the Table 2-style detection-rate matrix: one row
// per benchmark, one column per tool.
func (s *Summary) DetectionTable() *harness.Table {
	tb := &harness.Table{Header: []string{"benchmark"}}
	for _, ts := range s.Tools {
		tb.Header = append(tb.Header, ts.Tool)
	}
	for b, name := range s.Spec.Benchmarks {
		row := []string{name}
		for _, ts := range s.Tools {
			d := ts.Benchmarks[b].Detection
			row = append(row, fmt.Sprintf("%5.1f%% (%d races)", d.RatePct, len(ts.Benchmarks[b].RaceKeys)))
		}
		tb.AddRow(row...)
	}
	return tb
}

// ThroughputTable renders per-tool execution throughput and operation
// counts.
func (s *Summary) ThroughputTable() *harness.Table {
	tb := &harness.Table{Header: []string{"tool", "execs", "work", "execs/sec", "atomic ops", "normal ops"}}
	for _, ts := range s.Tools {
		tb.AddRow(ts.Tool,
			fmt.Sprintf("%d", ts.Execs),
			harness.FmtDuration(time.Duration(ts.WorkNS)),
			fmt.Sprintf("%.0f", ts.ExecsPerSec),
			harness.FmtOps(ts.AtomicOps),
			harness.FmtOps(ts.NormalOps))
	}
	return tb
}

// BudgetReport summarizes an adaptive campaign's budget accounting: total
// executions run vs. the uniform plan, and how many cells converged. ok is
// false when the campaign ran under the uniform policy (no budget data).
func (s *Summary) BudgetReport() (used, planned, converged, cells int, ok bool) {
	each := func(b *BudgetSummary) {
		if b == nil {
			return
		}
		ok = true
		cells++
		used += b.Used
		planned += b.Planned
		if b.Converged {
			converged++
		}
	}
	for _, ts := range s.Tools {
		for _, cell := range ts.Benchmarks {
			each(cell.Budget)
		}
		for _, ls := range ts.Litmus {
			each(ls.Budget)
		}
	}
	return used, planned, converged, cells, ok
}

// String renders the campaign's headline: the matrix shape, the wall clock,
// an adaptive policy's budget line, and the soundness verdict, followed by
// every failure's repro line when the campaign failed. cmd/c11report renders
// the whole summary.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign: %d tool(s) × (%d benchmark(s) + %d litmus test(s)) × %d runs, %d workers, seed base %d\nwall clock: %s\n",
		len(s.Spec.Tools), len(s.Spec.Benchmarks), len(s.Spec.Litmus),
		s.Spec.Runs, s.Spec.Workers, s.Spec.SeedBase,
		harness.FmtDuration(time.Duration(s.WallNS)))
	if s.Partial != "" {
		fmt.Fprintf(&b, "partial: %s\n", s.Partial)
	}
	b.WriteString(s.budgetLine())
	s.writeVerdict(&b)
	return b.String()
}

// budgetLine renders an adaptive campaign's policy echo and budget
// accounting as one line; it is empty under the uniform policy.
func (s *Summary) budgetLine() string {
	p := s.Spec.Policy
	if p == "" || p == "uniform" {
		return ""
	}
	line := "policy: " + p
	if used, planned, converged, cells, ok := s.BudgetReport(); ok && planned > 0 {
		line += fmt.Sprintf(" — %d/%d executions (%.0f%% of uniform), %d/%d cells converged",
			used, planned, 100*float64(used)/float64(planned), converged, cells)
	}
	return line + "\n"
}

// writeVerdict renders the one-line soundness verdict with its counts, then
// every forbidden outcome, unexpected litmus race and sampled engine failure
// with its repro line, and every sampled axiom violation.
func (s *Summary) writeVerdict(w io.Writer) {
	verdict := "ok"
	if s.Failed() {
		verdict = "FAILED"
	}
	fmt.Fprintf(w, "soundness: %s — %d forbidden outcome(s), %d unexpected race(s), %d axiom violation(s), %d engine failure(s)\n",
		verdict, len(s.Forbidden()), len(s.UnexpectedRaces()), s.AxiomViolations(), s.EngineFailures())
	for _, f := range s.Forbidden() {
		fmt.Fprintf(w, "  FORBIDDEN OUTCOME %s=%q ×%d\n    repro: %s\n", f.Test, f.Outcome, f.Count, f.Repro.Command())
	}
	for _, r := range s.UnexpectedRaces() {
		fmt.Fprintf(w, "  UNEXPECTED RACE in litmus program: %s\n    repro: %s\n", r.Description, r.Repro.Command())
	}
	for _, ts := range s.Tools {
		for _, f := range ts.FailureSamples {
			fmt.Fprintf(w, "  %s: ENGINE FAILURE: %s\n    repro: %s\n", ts.Tool, f.Error, f.Repro.Command())
		}
		if v := ts.Validation; v != nil {
			for _, sample := range v.Samples {
				fmt.Fprintf(w, "  %s: VIOLATION %s\n", ts.Tool, sample)
			}
		}
	}
}

// Canonical returns a deep copy with every wall-clock-derived measurement
// zeroed, leaving only model outcomes. This is the form in which the
// package's byte-identity guarantees hold: workers=1 vs workers=K, a run
// resumed from K shard artifacts vs the single-machine run, and a
// SIGKILL-then-resume run vs an uninterrupted one all marshal to identical
// bytes after Canonical.
// Zeroed: wall clock, the GC block, per-cell mean times and the wall-clock
// histograms (hists.exec_ns, hists.phase_ns), per-tool work time and throughput,
// and the run-shape echoes (Workers, artifact directories) plus build
// provenance (`go run` and `go build` of the same tree
// stamp different VCS metadata, and the guarantee must hold across binaries;
// skew is surfaced by Compare and refused on resume instead). Kept:
// everything the model produced — detections, races, outcomes, budgets and
// convergence curves, guide sums, validation, the schedule-length and
// choices histograms, and the layer counts.
func (s *Summary) Canonical() *Summary {
	data, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("campaign: canonicalize: %v", err))
	}
	var c Summary
	if err := json.Unmarshal(data, &c); err != nil {
		panic(fmt.Sprintf("campaign: canonicalize: %v", err))
	}
	c.WallNS = 0
	c.GC = GCSummary{}
	c.Provenance = nil
	c.Spec.Workers = 0
	c.Spec.RecordDir = ""
	c.Spec.GuideDir = ""
	for t := range c.Tools {
		ts := &c.Tools[t]
		ts.WorkNS = 0
		ts.ExecsPerSec = 0
		for b := range ts.Benchmarks {
			cell := &ts.Benchmarks[b]
			cell.Detection.MeanTimeNS = 0
			cell.Hists.dropWallClock()
		}
		for l := range ts.Litmus {
			ts.Litmus[l].Hists.dropWallClock()
		}
	}
	return &c
}
