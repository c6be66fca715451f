package trace

import (
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
	"c11tester/internal/rng"
)

// PrefixGuide is the trace-guided exploration strategy (a core.Strategy): it
// re-drives a prefix of a recorded Schedule and then hands control to a live
// inner strategy at the divergence point, so a campaign concentrates
// executions in the schedule neighbourhood of known (typically racy)
// executions instead of sampling uniformly.
//
// The prefix depth is drawn per execution from the seed: Seed(s) picks a
// depth uniformly in [L/2, L] of the recorded schedule's L combined choices
// using a dedicated RNG derived from s, so a guided cell spreads its
// executions over divergence points while remaining a pure function of
// (schedule, seed) — the campaign determinism invariant. If a
// recorded choice inside the prefix is not takeable in the current execution
// (a thread not ready, an index out of range), the guide hands off early and
// reports the divergence, rather than forcing the Replayer's deterministic
// fallback: past a divergence the recorded suffix no longer describes a
// nearby execution, and live exploration is the better use of the remaining
// steps.
type PrefixGuide struct {
	inner core.Strategy
	sched Schedule

	depthRng rng.Rand
	depth    int // combined choices to replay this execution
	ti, ii   int // consumption cursors into sched
	taken    int // combined choices consumed from the prefix
	handed   bool
	diverged bool
}

// minFrac and maxFrac bound the per-execution prefix depth as fractions of
// the schedule's combined choice count. Guided exploration wants to stay near
// the recorded (typically racy) schedule, so the range skews deep: every
// guided execution replays at least half the recorded choices before the
// live strategy takes over.
const minFrac, maxFrac = 0.5, 1.0

// NewPrefixGuide returns a PrefixGuide handing off to inner (nil means the
// default random strategy). Call SetSchedule before each execution (or once,
// to guide every execution along the same trace).
func NewPrefixGuide(inner core.Strategy) *PrefixGuide {
	if inner == nil {
		inner = core.NewRandomStrategy()
	}
	return &PrefixGuide{inner: inner}
}

// SetSchedule installs the recorded schedule to guide along. It takes effect
// at the next Seed (i.e. the next Engine.Execute).
func (g *PrefixGuide) SetSchedule(s Schedule) { g.sched = s }

// Seed implements core.Strategy: seed the inner strategy, rewind the prefix,
// and draw this execution's prefix depth from the seed.
func (g *PrefixGuide) Seed(seed int64) {
	g.inner.Seed(seed)
	g.ti, g.ii, g.taken = 0, 0, 0
	g.handed = false
	g.diverged = false

	n := g.sched.Len()
	min := int(minFrac * float64(n))
	max := int(maxFrac * float64(n))
	// A distinct RNG (seed XOR'd with an arbitrary odd constant) keeps the
	// depth draw from perturbing the inner strategy's choice stream.
	g.depthRng.Seed(seed ^ 0x5bf03635)
	g.depth = min
	if max > min {
		g.depth = min + g.depthRng.Intn(max-min+1)
	}
}

// handoff permanently switches control to the inner strategy.
func (g *PrefixGuide) handoff(diverged bool) {
	g.handed = true
	g.diverged = g.diverged || diverged
}

// inPrefix reports whether the guide is still replaying the recorded prefix.
func (g *PrefixGuide) inPrefix() bool { return !g.handed && g.taken < g.depth }

// PickThread implements core.Strategy.
func (g *PrefixGuide) PickThread(ready []*core.ThreadState) *core.ThreadState {
	if g.inPrefix() && g.ti < len(g.sched.Threads) {
		want := memmodel.TID(g.sched.Threads[g.ti])
		for _, t := range ready {
			if t.ID == want {
				g.ti++
				g.taken++
				return t
			}
		}
		g.handoff(true) // recorded thread not ready: diverge to live exploration
	} else if g.inPrefix() {
		g.handoff(false) // thread stream exhausted inside the depth window
	} else if !g.handed {
		g.handoff(false) // depth reached
	}
	return g.inner.PickThread(ready)
}

// PickIndex implements core.Strategy.
func (g *PrefixGuide) PickIndex(n int) int {
	if g.inPrefix() && g.ii < len(g.sched.Indices) {
		rec := int(g.sched.Indices[g.ii])
		if rec < n {
			g.ii++
			g.taken++
			return rec
		}
		g.handoff(true) // recorded index infeasible here: diverge
	} else if g.inPrefix() {
		g.handoff(false)
	} else if !g.handed {
		g.handoff(false)
	}
	return g.inner.PickIndex(n)
}

// Handoff reports the last execution's prefix statistics: the depth the
// guide intended to replay (in combined choices), how many recorded choices
// were actually consumed before control passed to the live strategy, and
// whether the prefix diverged (a recorded choice was not takeable and forced
// an early handoff). Campaign summaries read it after each guided execution.
func (g *PrefixGuide) Handoff() (depth, consumed int, diverged bool) {
	return g.depth, g.taken, g.diverged
}
