package core

import (
	"slices"
	"testing"
)

// CheckReadyLists makes every pick that hands the strategy the kept ready
// list compare it with a fresh rebuild, until the returned function restores
// the hook. The first mismatch fails tb; *picks counts the comparisons.
func CheckReadyLists(tb testing.TB, picks *int) (restore func()) {
	failed := false
	readyCheck = func(e *Engine, kept []*ThreadState) {
		*picks++
		if fresh := e.appendReady(nil); !failed && !slices.Equal(kept, fresh) {
			failed = true
			tb.Errorf("execution %d, step %d: kept ready list %v, rebuilt %v", e.execIndex, e.steps, threadIDs(kept), threadIDs(fresh))
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
