// Package explore implements the campaign's adaptive budget policy: the
// logic that decides how many executions each (tool, program) cell of a
// campaign matrix deserves. The paper's evaluation (and a campaign with no
// policy) spends a uniform N executions per cell; the Converge policy
// instead stops a cell once its observable statistics — detection rate,
// distinct race keys, litmus outcome histogram — have stabilized, and the
// campaign reassigns the freed budget to cells that are still diverging.
//
// Determinism contract: the policy's stopping decision for a cell is a pure
// function of that cell's own observation stream in execution-index order.
// Executions themselves are pure functions of (tool, program, seed), so a
// cell's stop point — and therefore the whole campaign's budget assignment —
// is independent of worker count and scheduling, preserving the campaign
// invariant that workers=1 and workers=K aggregate identically.
package explore

import (
	"fmt"
	"math"
)

// Obs is the per-execution observation a tracker consumes, in execution
// index order.
type Obs struct {
	// Detected reports whether the execution exhibited the cell's detection
	// signal (a race for the data-structure suite, an assertion violation
	// for the injected-bug suite, a forbidden outcome for litmus cells).
	Detected bool
	// RaceKeys are the deduplicated race keys of this execution.
	RaceKeys []string
	// Outcome is the litmus outcome string ("" for benchmark cells and
	// starved litmus executions).
	Outcome string
}

// TrackerState is a serializable snapshot of one tracker's internals: the
// forensics surface behind the cell_converge_state events. Every field is a
// pure function of the cell's observation stream, so snapshots taken at
// deterministic points (wave barriers) are identical across worker counts.
type TrackerState struct {
	// Execs and Detected are the full-stream totals; DetectionRate is their
	// ratio (0 when no executions have been observed).
	Execs         int     `json:"execs"`
	Detected      int     `json:"detected"`
	DetectionRate float64 `json:"detection_rate"`
	// DistinctRaces counts the race keys ever seen; Outcomes is the full
	// litmus-outcome histogram ("" excluded).
	DistinctRaces int            `json:"distinct_races"`
	Outcomes      map[string]int `json:"outcomes,omitempty"`
	// Window is the trailing-window size L = ⌈3/ε⌉ and WindowFilled how
	// much of it has been observed; WindowDetected and WindowOutcomes are
	// the window's contents, and WindowNewInfo reports whether any window
	// execution introduced a never-seen race key or outcome.
	Window         int            `json:"window"`
	WindowFilled   int            `json:"window_filled"`
	WindowDetected int            `json:"window_detected"`
	WindowOutcomes map[string]int `json:"window_outcomes,omitempty"`
	WindowNewInfo  bool           `json:"window_new_info"`
	// RateShift is the detection-rate movement the window causes (full-stream
	// rate minus pre-window rate); OutcomeL1 the L1 distance between the
	// normalized outcome histograms with and without the window. Both are 0
	// when the corresponding leg has nothing to compare (no pre-window
	// history, no outcomes).
	RateShift float64 `json:"rate_shift"`
	OutcomeL1 float64 `json:"outcome_l1"`
	// Epsilon echoes the policy threshold the verdict applied.
	Epsilon float64 `json:"epsilon"`
	// Converged is the tracker's current verdict.
	Converged bool `json:"converged"`
}

// Converge stops a cell once it has gone L = ⌈3/ε⌉ consecutive executions
// without a new race key or litmus outcome and its detection rate and
// outcome histogram have stabilized. ε is the one parameter; the zero value
// means DefaultConvergeEpsilon.
//
// The run length is what makes the stop sound: a key (or outcome) that
// occurs in an execution with probability p ≥ ε is lost only if the first L
// executions all miss it, which happens with probability
// (1−ε)^L ≤ e^−3 < 5% per key per cell.
type Converge struct {
	// Epsilon is both the per-execution frequency above which a key is kept
	// with ≥ 95% probability and the movement the trailing window may
	// cause: removing it may shift the detection rate (as a fraction) by at
	// most Epsilon, and the L1 distance between the normalized outcome
	// distributions with and without it must stay within Epsilon
	// (default 0.02).
	Epsilon float64
}

// DefaultConvergeEpsilon is the Converge default ε.
const DefaultConvergeEpsilon = 0.02

func (c Converge) withDefaults() Converge {
	if c.Epsilon <= 0 {
		c.Epsilon = DefaultConvergeEpsilon
	}
	return c
}

// Name renders the policy and its parameter for the summary spec echo.
func (c Converge) Name() string {
	return fmt.Sprintf("converge(eps=%g)", c.withDefaults().Epsilon)
}

// Chunk is the number of executions a cell runs between convergence checks.
// It is L = ⌈3/ε⌉, which is also the trailing window the convergence test
// reads and the floor before a cell may stop.
func (c Converge) Chunk() int {
	l := math.Ceil(3 / c.withDefaults().Epsilon)
	if l > math.MaxInt32 {
		return math.MaxInt32
	}
	return int(l)
}

// NewTracker returns a fresh tracker for one cell.
func (c Converge) NewTracker() *Tracker {
	c = c.withDefaults()
	return &Tracker{eps: c.Epsilon, window: c.Chunk(), raceSeen: map[string]bool{}, outcomes: map[string]int{}}
}

// windowObs is the digest of one observed execution kept in the trailing
// window ring: whether it hit the signal, its outcome, and whether it
// introduced a race key or outcome never seen before in this cell.
type windowObs struct {
	detected bool
	outcome  string
	newInfo  bool
}

// Tracker follows one cell's observation stream and decides convergence.
// A tracker is confined to one cell and observes executions strictly in
// index order; it is not goroutine-safe.
type Tracker struct {
	eps    float64
	window int

	n        int
	detected int
	raceSeen map[string]bool
	outcomes map[string]int // full histogram, "" excluded

	// ring holds the trailing window observations.
	ring []windowObs
	next int
}

// Observe folds the next execution's observation into the tracker.
func (t *Tracker) Observe(o Obs) {
	w := windowObs{detected: o.Detected, outcome: o.Outcome}
	for _, k := range o.RaceKeys {
		if !t.raceSeen[k] {
			t.raceSeen[k] = true
			w.newInfo = true
		}
	}
	if o.Outcome != "" {
		if t.outcomes[o.Outcome] == 0 {
			w.newInfo = true
		}
		t.outcomes[o.Outcome]++
	}
	t.n++
	if o.Detected {
		t.detected++
	}
	if len(t.ring) < t.window {
		t.ring = append(t.ring, w)
	} else {
		t.ring[t.next] = w
		t.next = (t.next + 1) % len(t.ring)
	}
}

// windowStats is the shared analysis of the trailing window that both the
// Converged verdict and the State introspection snapshot read.
type windowStats struct {
	detected int
	outcomes map[string]int
	newInfo  bool
	// rateShift is the detection-rate movement the window causes; valid only
	// when haveRate (there is pre-window history to compare against).
	haveRate  bool
	rateShift float64
	// l1 is the outcome-distribution movement; valid only when haveL1 (the
	// cell has outcomes). priorTotZero flags the all-outcomes-arrived-inside-
	// the-window case, which vetoes convergence on its own.
	haveL1       bool
	l1           float64
	priorTotZero bool
}

func (t *Tracker) windowStats() windowStats {
	s := windowStats{outcomes: map[string]int{}}
	for _, w := range t.ring {
		if w.newInfo {
			s.newInfo = true
		}
		if w.detected {
			s.detected++
		}
		if w.outcome != "" {
			s.outcomes[w.outcome]++
		}
	}
	if base := t.n - len(t.ring); base > 0 && t.n > 0 {
		full := float64(t.detected) / float64(t.n)
		prior := float64(t.detected-s.detected) / float64(base)
		s.haveRate = true
		s.rateShift = full - prior
	}
	tot := 0
	for _, n := range t.outcomes {
		tot += n
	}
	if tot > 0 {
		s.haveL1 = true
		priorTot := 0
		for out, n := range t.outcomes {
			priorTot += n - s.outcomes[out]
		}
		if priorTot == 0 {
			s.priorTotZero = true
		} else {
			// Σ |n/tot − (n−w)/priorTot| over a common denominator: the
			// numerator is an exact integer sum, so the result does not
			// depend on map iteration order.
			num := int64(0)
			for out, n := range t.outcomes {
				d := int64(n)*int64(priorTot) - int64(n-s.outcomes[out])*int64(tot)
				if d < 0 {
					d = -d
				}
				num += d
			}
			s.l1 = float64(num) / (float64(tot) * float64(priorTot))
		}
	}
	return s
}

// Converged reports whether the cell's statistics have stabilized and
// further executions may be cut: the trailing window is full (the cell has
// run at least L executions), introduced no new race key or outcome, and
// removing it moves neither the detection rate nor the outcome distribution
// by more than Epsilon. (With no history before the window there is no rate
// to compare, and the leg is skipped. Cells with no outcomes at all —
// benchmarks — skip the L1 leg.) A converged tracker may keep observing
// (budget-reassignment waves re-check convergence) and stays deterministic.
func (t *Tracker) Converged() bool {
	if len(t.ring) < t.window {
		return false
	}
	s := t.windowStats()
	if s.newInfo {
		return false
	}
	if s.haveRate && (s.rateShift > t.eps || s.rateShift < -t.eps) {
		return false
	}
	if s.priorTotZero {
		return false // all outcomes arrived inside the window
	}
	if s.haveL1 && s.l1 > t.eps {
		return false
	}
	return true
}

// State explains the tracker's convergence decision.
func (t *Tracker) State() TrackerState {
	s := t.windowStats()
	st := TrackerState{
		Execs:          t.n,
		Detected:       t.detected,
		DistinctRaces:  len(t.raceSeen),
		Window:         t.window,
		WindowFilled:   len(t.ring),
		WindowDetected: s.detected,
		WindowNewInfo:  s.newInfo,
		RateShift:      s.rateShift,
		OutcomeL1:      s.l1,
		Epsilon:        t.eps,
		Converged:      t.Converged(),
	}
	if t.n > 0 {
		st.DetectionRate = float64(t.detected) / float64(t.n)
	}
	if len(t.outcomes) > 0 {
		st.Outcomes = make(map[string]int, len(t.outcomes))
		for k, v := range t.outcomes {
			st.Outcomes[k] = v
		}
	}
	if len(s.outcomes) > 0 {
		st.WindowOutcomes = s.outcomes
	}
	return st
}
