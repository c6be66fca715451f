package axiom

// reference_test.go keeps the original map-keyed checker — Check and
// SCExplainable as they were before lifting moved to position-indexed
// arrays — as a test-only oracle. It is deliberately slow and obvious:
// every relation is a map keyed by *core.Action. TestDenseMatchesReference
// holds the dense checker to it.

import (
	"fmt"

	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

// refExecution is the map-keyed lifted execution the reference checker
// takes.
type refExecution struct {
	Trace []*core.Action
	MO    map[memmodel.LocID][]*core.Action
}

// refChecker carries the derived relations.
type refChecker struct {
	ex   *refExecution
	vs   []Violation
	hb   map[*core.Action]*memmodel.ClockVector
	moIx map[*core.Action]int // position in its location's modification order
}

// refCheck validates the execution and returns all violations found.
func refCheck(ex *refExecution) []Violation {
	c := &refChecker{
		ex:   ex,
		hb:   map[*core.Action]*memmodel.ClockVector{},
		moIx: map[*core.Action]int{},
	}
	for _, moList := range ex.MO {
		for i, a := range moList {
			c.moIx[a] = i
		}
	}
	c.checkForwardEdges()
	c.computeHB()
	c.checkReadsFrom()
	c.checkCoherence()
	c.checkRMWAtomicity()
	c.checkSeqCst()
	return c.vs
}

func (c *refChecker) fail(rule, format string, args ...any) {
	c.vs = append(c.vs, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// hbBefore reports a hb→ b using the recomputed clocks.
func (c *refChecker) hbBefore(a, b *core.Action) bool {
	cv := c.hb[b]
	return cv != nil && a != b && cv.Synchronized(a.TID, a.Seq)
}

// moBefore reports a mo→ b; both must be stores to the same location.
func (c *refChecker) moBefore(a, b *core.Action) bool {
	return a.Loc == b.Loc && c.moIx[a] < c.moIx[b]
}

// checkForwardEdges verifies hb ∪ sc ∪ rf acyclicity (Section 2.2 change 2)
// structurally: the trace order must linearize sb, rf, and sc, i.e. every
// such edge points backwards to an already-executed event.
func (c *refChecker) checkForwardEdges() {
	pos := map[*core.Action]int{}
	lastSC := -1
	for i, a := range c.ex.Trace {
		pos[a] = i
		if a.RF != nil {
			if j, ok := pos[a.RF]; !ok || j >= i {
				c.fail("acyclicity", "%v reads from a store not yet executed", a)
			}
		}
		if a.IsSC() {
			if a.SCIdx <= lastSC {
				c.fail("sc-total", "%v has non-monotone SC index", a)
			}
			lastSC = a.SCIdx
		}
	}
}

// computeHB recomputes happens-before from scratch: hb is the transitive
// closure of sequenced-before, additional-synchronizes-with (thread create
// and join), and synchronizes-with (release/acquire pairs, including the
// fence variants of Figure 9, over C++20 release sequences).
func (c *refChecker) computeHB() {
	type threadInfo struct {
		clock *memmodel.ClockVector // clock after the thread's last action
		// relFence is the clock at the thread's last release fence.
		relFence *memmodel.ClockVector
		// acqFence accumulates release clocks of stores read by relaxed
		// loads, to be claimed by a later acquire fence.
		acqFence *memmodel.ClockVector
		started  bool
	}
	threads := map[memmodel.TID]*threadInfo{}
	// pending child clocks: create actions whose child has not started yet.
	pendingChild := map[memmodel.TID]*memmodel.ClockVector{}
	finished := map[memmodel.TID]*memmodel.ClockVector{}
	// relClock[s] is the clock transferred to readers of store s through
	// its release sequence.
	relClock := map[*core.Action]*memmodel.ClockVector{}

	info := func(t memmodel.TID) *threadInfo {
		ti := threads[t]
		if ti == nil {
			ti = &threadInfo{
				clock:    memmodel.NewClockVector(int(t) + 1),
				acqFence: memmodel.NewClockVector(0),
			}
			threads[t] = ti
		}
		return ti
	}

	for _, a := range c.ex.Trace {
		ti := info(a.TID)
		if !ti.started {
			ti.started = true
			if base, ok := pendingChild[a.TID]; ok {
				ti.clock.Merge(base)
			}
		}
		ti.clock.Set(a.TID, a.Seq)

		switch a.Kind {
		case memmodel.KThreadCreate:
			pendingChild[memmodel.TID(a.Value)] = ti.clock.Clone()
		case memmodel.KThreadJoin:
			if fc := finished[memmodel.TID(a.Value)]; fc != nil {
				ti.clock.Merge(fc)
			}
		case memmodel.KThreadFinish:
			finished[a.TID] = ti.clock.Clone()
		case memmodel.KStore, memmodel.KRMW, memmodel.KNAStore:
			// The clock a reader synchronizes with: for a release store,
			// the store's own clock; for a relaxed store, the clock of the
			// thread's last release fence (fence-release rule); for an RMW,
			// additionally everything transferred by the store it reads
			// from (release-sequence continuation).
			var rc *memmodel.ClockVector
			if a.MO.IsRelease() {
				rc = ti.clock.Clone()
			} else if ti.relFence != nil {
				rc = ti.relFence.Clone()
			} else {
				rc = memmodel.NewClockVector(0)
			}
			if a.Kind == memmodel.KRMW && a.RF != nil {
				if prev := relClock[a.RF]; prev != nil {
					rc.Merge(prev)
				}
			}
			relClock[a] = rc
			if a.Kind == memmodel.KRMW && a.RF != nil {
				// The load half of the RMW acquires like a load.
				if src := relClock[a.RF]; src != nil {
					if a.MO.IsAcquire() {
						ti.clock.Merge(src)
					} else {
						ti.acqFence.Merge(src)
					}
				}
			}
		case memmodel.KLoad:
			if a.RF != nil {
				if src := relClock[a.RF]; src != nil {
					if a.MO.IsAcquire() {
						ti.clock.Merge(src)
					} else {
						ti.acqFence.Merge(src)
					}
				}
			}
		case memmodel.KFence:
			if a.MO.IsAcquire() {
				ti.clock.Merge(ti.acqFence)
			}
			if a.MO.IsRelease() {
				ti.relFence = ti.clock.Clone()
			}
		}
		c.hb[a] = ti.clock.Clone()
	}
}

// checkReadsFrom verifies every rf edge: same location, matching value, and
// the store is not hidden by coherence (no intervening same-location store
// between rf(b) and b in happens-before).
func (c *refChecker) checkReadsFrom() {
	for _, a := range c.ex.Trace {
		if !a.Kind.IsRead() || a.RF == nil {
			continue
		}
		s := a.RF
		if s.Loc != a.Loc {
			c.fail("rf-loc", "%v reads from %v at a different location", a, s)
		}
		if a.Kind == memmodel.KLoad && a.Value != s.Value {
			c.fail("rf-value", "%v read %d but %v wrote %d", a, a.Value, s, s.Value)
		}
		if c.hbBefore(a, s) {
			c.fail("rf-hb", "%v reads from hb-later store %v", a, s)
		}
	}
}

// checkCoherence verifies the four coherence shapes of Figure 5 against the
// concrete modification order.
func (c *refChecker) checkCoherence() {
	byLoc := map[memmodel.LocID][]*core.Action{}
	for _, a := range c.ex.Trace {
		if a.Loc != memmodel.NoLoc && (a.Kind.IsWrite() || a.Kind.IsRead()) {
			byLoc[a.Loc] = append(byLoc[a.Loc], a)
		}
	}
	for _, acts := range byLoc {
		for i, x := range acts {
			for _, y := range acts[i+1:] {
				if !c.hbBefore(x, y) {
					continue
				}
				wx, wy := refWriteOf(x), refWriteOf(y)
				if wx == nil || wy == nil {
					continue
				}
				switch {
				case x.Kind.IsWrite() && y.Kind.IsWrite():
					if !c.moBefore(wx, wy) {
						c.fail("CoWW", "%v hb %v but mo disagrees", x, y)
					}
				case x.Kind.IsWrite() && !y.Kind.IsWrite():
					if wx != wy && c.moBefore(wy, wx) {
						c.fail("CoWR", "%v hb %v but %v reads mo-earlier %v", x, y, y, wy)
					}
				case !x.Kind.IsWrite() && y.Kind.IsWrite():
					if wx != wy && c.moBefore(wy, wx) {
						c.fail("CoRW", "%v hb %v but store is mo-before the read's source", x, y)
					}
				default:
					if wx != wy && c.moBefore(wy, wx) {
						c.fail("CoRR", "%v hb %v but reads go backwards in mo", x, y)
					}
				}
			}
		}
	}
}

// refWriteOf maps an access to the store whose mo position constrains it: the
// action itself for writes, the store read from for reads.
func refWriteOf(a *core.Action) *core.Action {
	if a.Kind.IsWrite() {
		return a
	}
	return a.RF
}

// checkRMWAtomicity verifies that every RMW immediately follows the store
// it read from in modification order and that no store feeds two RMWs.
func (c *refChecker) checkRMWAtomicity() {
	readBy := map[*core.Action]*core.Action{}
	for _, moList := range c.ex.MO {
		for i, a := range moList {
			if a.Kind != memmodel.KRMW || a.RF == nil {
				continue
			}
			if prev := readBy[a.RF]; prev != nil {
				c.fail("rmw-unique", "store %v read by RMWs %v and %v", a.RF, prev, a)
			}
			readBy[a.RF] = a
			if i == 0 || moList[i-1] != a.RF {
				c.fail("rmw-atomic", "%v does not immediately follow %v in mo", a, a.RF)
			}
		}
	}
}

// checkSeqCst verifies the SC axioms the engine must enforce: the SC order
// restricted to same-location stores is consistent with mo, and an SC load
// reads either the last SC store sc-before it or a store that does not
// happen before that store (C++11 29.3p3).
func (c *refChecker) checkSeqCst() {
	var scOps []*core.Action
	for _, a := range c.ex.Trace {
		if a.IsSC() {
			scOps = append(scOps, a)
		}
	}
	// SC ∪ mo consistency for same-location stores.
	for i, x := range scOps {
		if !x.Kind.IsWrite() {
			continue
		}
		for _, y := range scOps[i+1:] {
			if y.Kind.IsWrite() && y.Loc == x.Loc && c.moBefore(y, x) {
				c.fail("sc-mo", "SC order %v before %v contradicts mo", x, y)
			}
		}
	}
	// SC read restriction.
	lastSCStore := map[memmodel.LocID]*core.Action{}
	for _, a := range scOps {
		if a.Kind.IsRead() && a.RF != nil {
			if last := lastSCStore[a.Loc]; last != nil && a.RF != last {
				if a.RF.IsSC() && a.RF.SCIdx < last.SCIdx {
					c.fail("sc-read", "%v reads SC store %v older than last SC store %v", a, a.RF, last)
				}
				if c.hbBefore(a.RF, last) {
					c.fail("sc-read-hb", "%v reads %v which happens before last SC store %v", a, a.RF, last)
				}
			}
		}
		if a.Kind.IsWrite() {
			lastSCStore[a.Loc] = a
		}
	}
}

// refSCExplainable reports whether the execution's outcome is explainable under
// sequential consistency. It reuses the lifted form FromEngine builds for the
// axiomatic refChecker; executions with an empty trace are trivially SC.
func refSCExplainable(ex *refExecution) bool {
	n := len(ex.Trace)
	if n == 0 {
		return true
	}
	pos := make(map[*core.Action]int, n)
	for i, a := range ex.Trace {
		pos[a] = i
	}
	moIx := map[*core.Action]int{}
	for _, moList := range ex.MO {
		for i, a := range moList {
			moIx[a] = i
		}
	}

	adj := make([][]int, n)
	addEdge := func(from, to *core.Action) {
		i, iok := pos[from]
		j, jok := pos[to]
		if !iok || !jok || i == j {
			return
		}
		adj[i] = append(adj[i], j)
	}

	// sb: successive actions of the same thread (trace order is a linear
	// extension of every thread's program order), plus the thread
	// create/join synchronization edges — both are orderings any SC
	// interleaving must respect.
	lastOf := map[memmodel.TID]*core.Action{}
	firstOf := map[memmodel.TID]*core.Action{}
	for _, a := range ex.Trace {
		if prev := lastOf[a.TID]; prev != nil {
			addEdge(prev, a)
		} else {
			firstOf[a.TID] = a
		}
		lastOf[a.TID] = a
	}
	for _, a := range ex.Trace {
		switch a.Kind {
		case memmodel.KThreadCreate:
			if first := firstOf[memmodel.TID(a.Value)]; first != nil {
				addEdge(a, first)
			}
		case memmodel.KThreadJoin:
			if last := lastOf[memmodel.TID(a.Value)]; last != nil {
				addEdge(last, a)
			}
		}
	}

	// rf and mo: a read follows its source store; each location's stores
	// follow their modification order.
	for _, a := range ex.Trace {
		if a.Kind.IsRead() && a.RF != nil {
			addEdge(a.RF, a)
		}
	}
	for _, moList := range ex.MO {
		for i := 1; i < len(moList); i++ {
			addEdge(moList[i-1], moList[i])
		}
	}

	// fr: a read is overwritten by every store mo-after its source, so it
	// must be scheduled before the source's mo-successor (the rest of the
	// chain follows through mo). A read from the initial value (RF == nil)
	// precedes the location's first store. The RMW reading from w *is* w's
	// mo-successor (rmw-atomic); skipping the self-edge leaves exactly the
	// mo edges, which are already present.
	for _, a := range ex.Trace {
		if !a.Kind.IsRead() {
			continue
		}
		var succ *core.Action
		if a.RF != nil {
			ix, ok := moIx[a.RF]
			if !ok {
				continue
			}
			if moList := ex.MO[a.RF.Loc]; ix+1 < len(moList) {
				succ = moList[ix+1]
			}
		} else if moList := ex.MO[a.Loc]; len(moList) > 0 {
			succ = moList[0]
		}
		if succ != nil && succ != a {
			addEdge(a, succ)
		}
	}

	return refAcyclic(adj)
}

// refAcyclic reports whether the adjacency list has no directed cycle, via an
// iterative three-color DFS (the trace can be long; no recursion).
func refAcyclic(adj [][]int) bool {
	const (
		white = 0 // unvisited
		grey  = 1 // on the DFS stack
		black = 2 // done
	)
	color := make([]byte, len(adj))
	type frame struct {
		node int
		next int // index into adj[node] of the next edge to follow
	}
	var stack []frame
	for start := range adj {
		if color[start] != white {
			continue
		}
		color[start] = grey
		stack = append(stack[:0], frame{node: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				to := adj[f.node][f.next]
				f.next++
				switch color[to] {
				case grey:
					return false
				case white:
					color[to] = grey
					stack = append(stack, frame{node: to})
				}
				continue
			}
			color[f.node] = black
			stack = stack[:len(stack)-1]
		}
	}
	return true
}
