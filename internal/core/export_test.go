package core

import (
	"slices"
	"testing"

	"c11tester/internal/sched"
)

// DriverStepped makes the driver take every step of e's executions, until e
// is closed, and returns e: it gives e a scheduler whose step is not inline,
// so every program thread parks on every operation and the same Drive takes
// each step on the driver. That is the schedule tsan11rec's kernel-thread
// sequencing runs, and the reference the inline steps are checked against;
// it resumes once per granted operation and once per thread start, each a
// round trip of two coroutine switches.
func DriverStepped(e *Engine) *Engine {
	e.Close()
	e.sch = sched.New()
	e.sch.SetMeasureWait(e.measureWait)
	e.sch.SetStep(e.step, false)
	return e
}

// CheckReadyLists makes every pick that hands the strategy the kept ready
// list compare it with a fresh rebuild, until the returned function restores
// the hook. The first mismatch fails tb; *picks counts the comparisons.
func CheckReadyLists(tb testing.TB, picks *int) (restore func()) {
	failed := false
	readyCheck = func(e *Engine, kept []*ThreadState) {
		*picks++
		if fresh := e.appendReady(nil); !failed && !slices.Equal(kept, fresh) {
			failed = true
			tb.Errorf("pick %d, step %d: kept ready list %v, rebuilt %v", *picks, e.steps, threadIDs(kept), threadIDs(fresh))
		}
	}
	return func() { readyCheck = nil }
}

func threadIDs(ts []*ThreadState) []int {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = int(t.ID)
	}
	return ids
}
