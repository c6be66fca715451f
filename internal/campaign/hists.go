// hists.go holds the per-cell summary histograms: the workers' accumulators,
// their fold, and their rendering into the summary.
package campaign

import (
	"time"

	"c11tester/internal/core"
	"c11tester/internal/obs"
)

// Bucket bases of the summary histograms: exponential base-2 buckets (see
// obs.Histogram), execution latency and phase spans from 1 µs to ~0.5 s,
// schedule length and choices from 8 to ~4M (the MaxSteps default).
const (
	nsBase    = 1 << 10
	stepsBase = 8
)

// hists are one cell's summary histograms and layer counts. The wall-clock
// histograms observe two disjoint samples of the execution indices (see
// timingSample): execution time the wallSampled ones, run with no inner
// timer on, and the phase spans the spansSampled ones. Schedule length and
// choices observe every execution, and Counts sums every execution's
// per-operation layer counts. The engine phases (reset, run) are fed by
// observe; validate and record are campaign duties observed by the runner's
// stages, so their counts track span-sampled duty executions.
//
// Each worker keeps one hists per matrix cell in its workerSlot and observes
// into it without locks or allocation. foldCells adds the workers' hists into
// the cell's folded fragment (fragment.Hists), and from there fragment.merge
// carries them into checkpoints (a shard's included) and the summary — the
// same fold as every other cell result, so resumed and shard-merged
// histograms and counts equal uninterrupted single-machine ones.
type hists struct {
	ExecNS   obs.Histogram                `json:"exec_ns"`
	PhaseNS  [core.NumSpans]obs.Histogram `json:"phase_ns"`
	SchedLen obs.Histogram                `json:"sched_len"`
	Choices  obs.Histogram                `json:"choices"`
	Counts   LayerCounts                  `json:"counts"`
}

// LayerCounts are a cell's per-operation layer counts, summed over every
// execution of an engine tool (see core.ExecStats): the scheduler resumes,
// the race-shadow checks, the dispatches that blocked and the yields. They
// are as deterministic as the outcomes, so Canonical keeps them, and they
// price the per-operation layers that campaigns no longer time.
type LayerCounts struct {
	Resumes    uint64 `json:"resumes"`
	RaceChecks uint64 `json:"race_checks"`
	Blocked    uint64 `json:"blocked"`
	Yields     uint64 `json:"yields"`
}

// blankHists is a hists with its bases set and nothing observed.
var blankHists = func() hists {
	h := hists{
		ExecNS:   obs.Histogram{Base: nsBase},
		SchedLen: obs.Histogram{Base: stepsBase},
		Choices:  obs.Histogram{Base: stepsBase},
	}
	for p := range h.PhaseNS {
		h.PhaseNS[p].Base = nsBase
	}
	return h
}()

// observe folds completed execution i into the cell's histograms: its wall
// time d (read only on wall-time indices) and, when the tool is an engine,
// its schedule length, choice count and layer counts, plus its engine phase
// spans on span indices. The same method serves the campaign hot path and
// the zero-alloc test, so the pinned path is exactly the shipped path.
func (h *hists) observe(i int, d time.Duration, eng *core.Engine) {
	if wallSampled(i) {
		h.ExecNS.Observe(uint64(d))
	}
	if eng == nil {
		return
	}
	st := eng.ExecStats()
	h.SchedLen.Observe(st.Steps)
	h.Choices.Observe(st.Choices)
	h.Counts.add(LayerCounts{Resumes: st.Resumes, RaceChecks: st.RaceChecks, Blocked: st.Blocked, Yields: st.Yields})
	if spansSampled(i) {
		h.PhaseNS[core.PhaseReset].Observe(uint64(st.PhaseNS[core.PhaseReset]))
		h.PhaseNS[core.PhaseRun].Observe(uint64(st.PhaseNS[core.PhaseRun]))
	}
}

// add folds o into h.
func (h *hists) add(o *hists) {
	h.ExecNS.Add(&o.ExecNS)
	for p := range h.PhaseNS {
		h.PhaseNS[p].Add(&o.PhaseNS[p])
	}
	h.SchedLen.Add(&o.SchedLen)
	h.Choices.Add(&o.Choices)
	h.Counts.add(o.Counts)
}

// add folds o into c.
func (c *LayerCounts) add(o LayerCounts) {
	c.Resumes += o.Resumes
	c.RaceChecks += o.RaceChecks
	c.Blocked += o.Blocked
	c.Yields += o.Yields
}

// CellHists are a cell's rendered histograms and layer counts (see hists).
// Timing (schema v4) is the ns/exec histogram and Phases (schema v5) the
// per-phase span histograms keyed by phase name, omitting phases with no
// observations. SchedLen and Choices (schema v11) are the schedule length
// and strategy decisions per execution, and Counts (schema v15) the layer
// counts summed over the cell's executions (engine tools only). The
// wall-clock histograms cover their sampled executions only — Timing the
// wall-time sample, Phases the disjoint span sample — so their counts are the
// cell's sample sizes; SchedLen, Choices and Counts cover every execution and
// are as deterministic as the outcomes.
type CellHists struct {
	Timing   *obs.HistogramSnapshot            `json:"timing,omitempty"`
	Phases   map[string]*obs.HistogramSnapshot `json:"phases,omitempty"`
	SchedLen *obs.HistogramSnapshot            `json:"sched_len,omitempty"`
	Choices  *obs.HistogramSnapshot            `json:"choices,omitempty"`
	Counts   *LayerCounts                      `json:"counts,omitempty"`
}

// render snapshots the histograms; a nil h (a cell that observed nothing)
// renders empty.
func (h *hists) render() CellHists {
	if h == nil {
		return CellHists{}
	}
	c := CellHists{
		Timing:   h.ExecNS.Snapshot(),
		SchedLen: h.SchedLen.Snapshot(),
		Choices:  h.Choices.Snapshot(),
	}
	if h.Counts != (LayerCounts{}) {
		counts := h.Counts
		c.Counts = &counts
	}
	for p := range h.PhaseNS {
		if s := h.PhaseNS[p].Snapshot(); s != nil {
			if c.Phases == nil {
				c.Phases = make(map[string]*obs.HistogramSnapshot, core.NumSpans)
			}
			c.Phases[core.Phase(p).String()] = s
		}
	}
	return c
}

// dropWallClock zeroes the wall-clock histograms, keeping the deterministic
// schedule-length and choices histograms and the layer counts.
func (c *CellHists) dropWallClock() {
	c.Timing, c.Phases = nil, nil
}
