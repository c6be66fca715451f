// hists.go holds the per-cell summary histograms: the workers' accumulators
// and their fold, which the summary carries as it is.
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
// Each worker's runner for a cell holds one hists (cellRunner.met) and
// observes into it without locks or allocation. foldCells adds the runners'
// hists into the cell's folded fragment (fragment.Hists), and from there
// fragment.merge carries them into the artifact (a shard's included); the
// summary cell points at the folded hists. It is the same fold as every
// other cell result, so resumed and shard-merged histograms and counts equal
// uninterrupted single-machine ones.
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

// observe folds completed execution i of eng into the cell's histograms: its
// wall time d (read only on wall-time indices), its schedule length, choice
// count and layer counts, plus its engine phase spans on span indices. The
// same method serves the campaign hot path and the zero-alloc test, so the
// pinned path is exactly the shipped path.
func (h *hists) observe(i int, d time.Duration, eng *core.Engine) {
	if wallSampled(i) {
		h.ExecNS.Observe(uint64(d))
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

// hasBases reports whether h's histograms have the bases of blankHists, as
// every histogram Add folds must; a nil h holds none and passes.
func (h *hists) hasBases() bool {
	if h == nil {
		return true
	}
	ok := h.ExecNS.Base == nsBase && h.SchedLen.Base == stepsBase && h.Choices.Base == stepsBase
	for p := range h.PhaseNS {
		ok = ok && h.PhaseNS[p].Base == nsBase
	}
	return ok
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

// dropWallClock resets the wall-clock histograms (execution time and phase
// spans) to blank, keeping the deterministic schedule-length and choices
// histograms and the layer counts. A nil h stays nil.
func (h *hists) dropWallClock() {
	if h != nil {
		h.ExecNS, h.PhaseNS = blankHists.ExecNS, blankHists.PhaseNS
	}
}
