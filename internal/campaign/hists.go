// hists.go holds the per-cell summary histograms: the workers' accumulators,
// their fold, and their rendering into the summary.
package campaign

import (
	"time"

	"c11tester/internal/core"
	"c11tester/internal/obs"
)

// Bucket bases of the summary histograms: exponential base-2 buckets (see
// obs.Histogram), execution latency and handoff wait from 1 µs to ~0.5 s,
// schedule length and choices from 8 to ~4M (the MaxSteps default).
const (
	nsBase    = 1 << 10
	stepsBase = 8
)

// hists are one cell's summary histograms. The wall-clock ones observe two
// disjoint samples of the execution indices (see timingSample): execution
// time the wallSampled ones, run with no inner timer on, and handoff wait
// and the phase spans the spansSampled ones. Schedule length and choices
// observe every execution. The engine phases (reset, run, race) and the
// handoff wait are fed by observe; validate and record are campaign duties
// observed by the runner's stages, so their counts track span-sampled duty
// executions.
//
// Each worker keeps one hists per matrix cell in its workerSlot and observes
// into it without locks or allocation. foldCells adds the workers' hists into
// the cell's folded fragment (fragment.Hists), and from there fragment.merge
// carries them into checkpoints (a shard's included) and the summary — the
// same fold as every other cell result, so resumed and shard-merged
// histograms equal uninterrupted single-machine ones.
type hists struct {
	ExecNS    obs.Histogram                 `json:"exec_ns"`
	HandoffNS obs.Histogram                 `json:"handoff_ns"`
	PhaseNS   [core.NumPhases]obs.Histogram `json:"phase_ns"`
	SchedLen  obs.Histogram                 `json:"sched_len"`
	Choices   obs.Histogram                 `json:"choices"`
}

// blankHists is a hists with its bases set and nothing observed.
var blankHists = func() hists {
	h := hists{
		ExecNS:    obs.Histogram{Base: nsBase},
		HandoffNS: obs.Histogram{Base: nsBase},
		SchedLen:  obs.Histogram{Base: stepsBase},
		Choices:   obs.Histogram{Base: stepsBase},
	}
	for p := range h.PhaseNS {
		h.PhaseNS[p].Base = nsBase
	}
	return h
}()

// observe folds completed execution i into the cell's histograms: its wall
// time d (read only on wall-time indices) and, when the tool is an engine,
// its schedule length and choice count, plus its handoff wait and engine
// phase spans on span indices. The same method serves the campaign hot path
// and the zero-alloc test, so the pinned path is exactly the shipped path.
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
	if spansSampled(i) {
		h.HandoffNS.Observe(uint64(st.HandoffWaitNS))
		h.PhaseNS[core.PhaseReset].Observe(uint64(st.PhaseNS[core.PhaseReset]))
		h.PhaseNS[core.PhaseRun].Observe(uint64(st.PhaseNS[core.PhaseRun]))
		h.PhaseNS[core.PhaseRace].Observe(uint64(st.PhaseNS[core.PhaseRace]))
	}
}

// add folds o into h.
func (h *hists) add(o *hists) {
	h.ExecNS.Add(&o.ExecNS)
	h.HandoffNS.Add(&o.HandoffNS)
	for p := range h.PhaseNS {
		h.PhaseNS[p].Add(&o.PhaseNS[p])
	}
	h.SchedLen.Add(&o.SchedLen)
	h.Choices.Add(&o.Choices)
}

// CellHists are a cell's rendered histograms (see hists). Timing (schema v4)
// is the ns/exec histogram and Phases (schema v5) the per-phase span
// histograms keyed by phase name, omitting phases with no observations.
// Handoff, SchedLen and Choices (schema v11) are the handoff wait, schedule
// length and strategy decisions per execution. The wall-clock histograms
// cover their sampled executions only — Timing the wall-time sample, Phases
// and Handoff the disjoint span sample — so their counts are the cell's
// sample sizes; SchedLen and Choices cover every execution and are as
// deterministic as the outcomes.
type CellHists struct {
	Timing   *obs.HistogramSnapshot            `json:"timing,omitempty"`
	Phases   map[string]*obs.HistogramSnapshot `json:"phases,omitempty"`
	Handoff  *obs.HistogramSnapshot            `json:"handoff,omitempty"`
	SchedLen *obs.HistogramSnapshot            `json:"sched_len,omitempty"`
	Choices  *obs.HistogramSnapshot            `json:"choices,omitempty"`
}

// render snapshots the histograms; a nil h (a cell that observed nothing)
// renders empty.
func (h *hists) render() CellHists {
	if h == nil {
		return CellHists{}
	}
	c := CellHists{
		Timing:   h.ExecNS.Snapshot(),
		Handoff:  h.HandoffNS.Snapshot(),
		SchedLen: h.SchedLen.Snapshot(),
		Choices:  h.Choices.Snapshot(),
	}
	for p := range h.PhaseNS {
		if s := h.PhaseNS[p].Snapshot(); s != nil {
			if c.Phases == nil {
				c.Phases = make(map[string]*obs.HistogramSnapshot, core.NumPhases)
			}
			c.Phases[core.Phase(p).String()] = s
		}
	}
	return c
}

// dropWallClock zeroes the wall-clock histograms, keeping the deterministic
// schedule-length and choices ones.
func (c *CellHists) dropWallClock() {
	c.Timing, c.Phases, c.Handoff = nil, nil, nil
}
