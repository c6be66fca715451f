// Package axiom is an independent axiomatic checker for executions produced
// by the operational engine. Appendix A of the paper proves the operational
// model equivalent to a restricted axiomatic model (the modified C++11 model
// plus hb ∪ sc ∪ rf acyclicity); this package re-derives the axiomatic
// relations from a recorded trace — with its own implementation of release
// sequences and synchronizes-with, not the engine's clock rules — and
// checks the consistency predicates. It serves as the test oracle for the
// engine: every traced execution must validate.
package axiom

import (
	"cmp"
	"fmt"
	"slices"

	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

// LocMO is one location's concrete modification order, mo-first.
type LocMO struct {
	Loc    memmodel.LocID
	Stores []*core.Action
}

// Execution is a lifted execution: the recorded trace plus one concrete
// modification order per location (a linear extension of the engine's
// mo-graph, Section A.2). Lifting resolves every action pointer to an
// integer id once — a trace action's id is its trace position — so Check
// and SCExplainable run over position-indexed arrays.
//
// Each stage is near-linear in the trace length n. Lift is O(n) past the
// model's AppendTotalMO: it resolves pointers through an open-addressed
// table sized to this trace, not a map sized to the largest trace ever
// lifted. Check groups accesses by location with a counting pass, and checks
// coherence in O(k·w) for a location with k accesses and w threads (see
// sweepCoherence); the O(k²) pair loop runs only to report violations.
//
// An Execution is also a reusable workspace: Lift refills it in place, and
// the pointer table, the position arrays, the happens-before matrix and the
// SC graph all keep their capacity, so a caller that lifts every execution
// into one Execution allocates nothing once the buffers have grown. The zero
// value is an empty workspace. An Execution is not safe for concurrent use,
// and a lifted one references the engine's actions: it is valid only until
// the engine's next Execute.
type Execution struct {
	trace []*core.Action
	mo    []LocMO // ascending Loc

	// slots resolves action pointers: an open-addressed table of id+1, 0
	// for empty, with a power-of-two length. acts is its inverse: the
	// trace, then any reads-from source or mo entry outside the trace.
	slots   []int32
	acts    []*core.Action
	rf      []int32 // per id: id of the store read from, or -1
	moIx    []int32 // per id: position in its location's mo, or -1
	moIDs   []int32 // the ids of mo's stores, location after location
	moOff   []int32 // mo[k]'s ids are moIDs[moOff[k]:moOff[k+1]]
	threads int     // clock width: the highest TID in the trace + 1

	// Lift's backing arrays for the model's locations and mo lists.
	locBuf []memmodel.LocID
	moBuf  []*core.Action

	// chk is Check's working set, allocated by the first Check: a workspace
	// that only ever answers SCExplainable stays small.
	chk *checkScratch
	sc  scGraph
}

// FromEngine lifts the engine's last traced execution into a fresh
// Execution. m is the engine's memory model, which must expose a concrete
// total modification order per location (the C11 model does; the
// commit-order baselines do not).
func FromEngine(e *core.Engine, m core.MOProvider) *Execution {
	ex := new(Execution)
	ex.Lift(e, m)
	return ex
}

// Lift refills ex with the engine's last traced execution, reusing ex's
// buffers; m is as for FromEngine. The model's AppendTotalMO may panic with
// a *core.InfeasibleError, in which case ex must be lifted again before use.
func (ex *Execution) Lift(e *core.Engine, m core.MOProvider) {
	ex.locBuf = m.AppendLocations(ex.locBuf[:0])
	ex.moBuf, ex.mo = ex.moBuf[:0], ex.mo[:0]
	for _, loc := range ex.locBuf {
		n := len(ex.moBuf)
		ex.moBuf = m.AppendTotalMO(ex.moBuf, loc)
		ex.mo = append(ex.mo, LocMO{Loc: loc, Stores: ex.moBuf[n:]})
	}
	// Appending may have moved moBuf: re-point every list at the final array.
	off := 0
	for k := range ex.mo {
		n := len(ex.mo[k].Stores)
		ex.mo[k].Stores = ex.moBuf[off : off+n : off+n]
		off += n
	}
	ex.trace = e.Trace()
	ex.index()
}

// NewExecution builds an execution from a trace and per-location
// modification orders given in any location order, one entry per location
// — a deserialized trace or a hand-built test case.
func NewExecution(trace []*core.Action, mo []LocMO) *Execution {
	ex := &Execution{trace: trace, mo: slices.Clone(mo)}
	slices.SortStableFunc(ex.mo, func(a, b LocMO) int { return cmp.Compare(a.Loc, b.Loc) })
	ex.index()
	return ex
}

// index resolves the trace and mo pointers to ids.
func (ex *Execution) index() {
	n := len(ex.trace)
	for _, l := range ex.mo {
		n += len(l.Stores)
	}
	ex.acts = append(ex.acts[:0], ex.trace...)
	ex.rehash(n)
	ex.moIx = ex.moIx[:0]
	ex.threads = 0
	for _, a := range ex.trace {
		ex.moIx = append(ex.moIx, -1)
		ex.threads = max(ex.threads, int(a.TID)+1)
	}
	ex.moIDs, ex.moOff = ex.moIDs[:0], append(ex.moOff[:0], 0)
	for _, l := range ex.mo {
		for i, s := range l.Stores {
			d := ex.resolve(s)
			ex.moIx[d] = int32(i)
			ex.moIDs = append(ex.moIDs, d)
		}
		ex.moOff = append(ex.moOff, int32(len(ex.moIDs)))
	}
	// Resolving a source outside the trace appends it to acts, so the loop
	// covers its own source too.
	ex.rf = ex.rf[:0]
	for i := 0; i < len(ex.acts); i++ {
		r := int32(-1)
		if src := ex.acts[i].RF; src != nil {
			r = ex.resolve(src)
		}
		ex.rf = append(ex.rf, r)
	}
}

// rehash empties the pointer table, sizes it for n actions at a load of at
// most one half, and enters every action in acts under its position there.
// Should a pointer recur in the trace, its later position wins.
func (ex *Execution) rehash(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	ex.slots = resize(ex.slots, size)
	clear(ex.slots)
	for d, a := range ex.acts {
		ex.slots[ex.slot(a)] = int32(d) + 1
	}
}

// slot returns the table slot that holds a, or the empty slot where a
// belongs. The hash mixes the action's sequence number and thread, which
// are unique within an engine's execution; equality is pointer identity, so
// a hand-built trace that repeats them is slower but still correct.
func (ex *Execution) slot(a *core.Action) int {
	mask := len(ex.slots) - 1
	h := (uint64(a.Seq) ^ uint64(uint32(a.TID))<<40) * 0x9e3779b97f4a7c15
	for i := int(h>>32) & mask; ; i = (i + 1) & mask {
		if d := ex.slots[i]; d == 0 || ex.acts[d-1] == a {
			return i
		}
	}
}

// resolve returns a's id, assigning the next one to an action first seen.
func (ex *Execution) resolve(a *core.Action) int32 {
	i := ex.slot(a)
	if d := ex.slots[i]; d != 0 {
		return d - 1
	}
	d := int32(len(ex.acts))
	ex.slots[i] = d + 1
	ex.acts = append(ex.acts, a)
	ex.moIx = append(ex.moIx, -1)
	if 2*len(ex.acts) > len(ex.slots) {
		ex.rehash(len(ex.acts))
	}
	return d
}

// moOf returns the ids of loc's modification order, or nil.
func (ex *Execution) moOf(loc memmodel.LocID) []int32 {
	k, ok := slices.BinarySearchFunc(ex.mo, loc, func(l LocMO, loc memmodel.LocID) int { return cmp.Compare(l.Loc, loc) })
	if !ok {
		return nil
	}
	return ex.moIDs[ex.moOff[k]:ex.moOff[k+1]]
}

// Violation describes one failed consistency predicate.
type Violation struct {
	Rule   string
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// checkScratch is Check's working set, reused across executions.
type checkScratch struct {
	hb     []memmodel.SeqNum // row i (threads wide): trace action i's hb clock
	rel    []memmodel.SeqNum // row i: the clock readers of store i acquire
	thr    []hbThread
	rows   []memmodel.SeqNum // backing array of thr's clocks
	acc    []uint64          // Loc<<32 | position of each read and write, sorted
	locEnd []int32           // per LocID: groupAccesses' counting-pass cursor
	grp    []int32           // per trace position: its location group, or -1
	lastSC []int32           // per group: the last SC store so far, or -1
	readBy []int32           // per id: the RMW that read from it, or -1
	scOps  []int32

	// Coherence sweep state. Thread t's accesses at the location being
	// swept occupy sweep[thrOff[t]:thrOff[t]+fill[t]]; thrOff bounds each
	// thread by its access count over the whole trace. cur[u*w+t] counts
	// how many of thread t's accesses happen before thread u's latest one.
	sweep  []sweepEntry
	thrOff []int32
	fill   []int32
	cur    []int32
	paths  coherencePaths
}

// hbThread is one thread's state while computeHB walks the trace.
type hbThread struct {
	clock    []memmodel.SeqNum // after the thread's last action
	relFence []memmodel.SeqNum // at the thread's last release fence
	// acqFence accumulates release clocks of stores read by relaxed loads,
	// to be claimed by a later acquire fence.
	acqFence []memmodel.SeqNum
	child    []memmodel.SeqNum // the creator's clock, joined when the thread starts
	finished []memmodel.SeqNum
	started  bool
}

// checker accumulates one Check call's violations.
type checker struct {
	ex *Execution
	vs []Violation
}

// Check validates the execution and returns all violations found, in rule
// order; within a rule, locations come in ascending order and actions in
// trace or modification order, so the result is deterministic.
func Check(ex *Execution) []Violation {
	if ex.chk == nil {
		ex.chk = new(checkScratch)
	}
	c := checker{ex: ex}
	c.checkForwardEdges()
	ex.computeHB()
	c.checkReadsFrom()
	ex.groupAccesses()
	c.checkCoherence()
	c.checkRMWAtomicity()
	c.checkSeqCst()
	return c.vs
}

func (c *checker) fail(rule, format string, args ...any) {
	c.vs = append(c.vs, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
}

// hbBefore reports x hb→ y using the recomputed clocks; only trace actions
// have clocks.
func (ex *Execution) hbBefore(x, y int32) bool {
	if x == y || int(y) >= len(ex.trace) {
		return false
	}
	a := ex.acts[x]
	var c memmodel.SeqNum
	if t := int(a.TID); t >= 0 && t < ex.threads {
		c = ex.chk.hb[int(y)*ex.threads+t]
	}
	return c >= a.Seq
}

// moBefore reports x mo→ y; both must be stores to the same location. A
// store outside every mo list counts as position 0.
func (ex *Execution) moBefore(x, y int32) bool {
	return ex.acts[x].Loc == ex.acts[y].Loc && max(ex.moIx[x], 0) < max(ex.moIx[y], 0)
}

// writeOf maps the access at trace position p to the store whose mo
// position constrains it: the action itself for writes, the store read from
// for reads (-1 for a read of the initial value).
func (ex *Execution) writeOf(p int32) int32 {
	if ex.trace[p].Kind.IsWrite() {
		return p
	}
	return ex.rf[p]
}

// checkForwardEdges verifies hb ∪ sc ∪ rf acyclicity (Section 2.2 change 2)
// structurally: the trace order must linearize sb, rf, and sc, i.e. every
// such edge points backwards to an already-executed event.
func (c *checker) checkForwardEdges() {
	ex := c.ex
	lastSC := -1
	for i, a := range ex.trace {
		// A source outside the trace has an id past every trace position.
		if a.RF != nil && int(ex.rf[i]) >= i {
			c.fail("acyclicity", "%v reads from a store not yet executed", a)
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
// fence variants of Figure 9, over C++20 release sequences). Under C++20
// (Section 2.2 change 1) an RMW is part of the release sequence of the store
// it reads from, so an RMW's release clock includes its source's.
//
// Every clock starts all-zero and joining an all-zero clock changes
// nothing, so a clock that was never set — a thread's release fence before
// its first one, the release clock of a store not yet executed or of a
// non-store — needs no flag.
func (ex *Execution) computeHB() {
	s := ex.chk
	n, w := len(ex.trace), ex.threads
	s.hb = resize(s.hb, n*w)
	s.rel = resize(s.rel, n*w)
	clear(s.rel)
	s.rows = resize(s.rows, 5*w*w)
	clear(s.rows)
	s.thr = resize(s.thr, w)
	for t := range s.thr {
		r := s.rows[5*w*t:]
		s.thr[t] = hbThread{
			clock: r[:w:w], relFence: r[w : 2*w : 2*w], acqFence: r[2*w : 3*w : 3*w],
			child: r[3*w : 4*w : 4*w], finished: r[4*w : 5*w : 5*w],
		}
	}
	// rel returns the release clock of the trace action with id d: the
	// clock readers of that store acquire.
	rel := func(d int32) []memmodel.SeqNum {
		if d < 0 || int(d) >= n {
			return nil
		}
		return s.rel[int(d)*w : int(d+1)*w]
	}
	thread := func(v memmodel.Value) *hbThread {
		if t := int(memmodel.TID(v)); t >= 0 && t < w {
			return &s.thr[t]
		}
		return nil
	}
	acquire := func(ti *hbThread, a *core.Action, src []memmodel.SeqNum) {
		if a.MO.IsAcquire() {
			join(ti.clock, src)
		} else {
			join(ti.acqFence, src)
		}
	}

	for i, a := range ex.trace {
		ti := &s.thr[a.TID]
		if !ti.started {
			ti.started = true
			join(ti.clock, ti.child)
		}
		ti.clock[a.TID] = a.Seq

		switch a.Kind {
		case memmodel.KThreadCreate:
			if ch := thread(a.Value); ch != nil {
				copy(ch.child, ti.clock)
			}
		case memmodel.KThreadJoin:
			if ch := thread(a.Value); ch != nil {
				join(ti.clock, ch.finished)
			}
		case memmodel.KThreadFinish:
			copy(ti.finished, ti.clock)
		case memmodel.KStore, memmodel.KRMW, memmodel.KNAStore:
			// The clock a reader synchronizes with: for a release store,
			// the store's own clock; for a relaxed store, the clock of the
			// thread's last release fence (fence-release rule); for an RMW,
			// additionally everything transferred by the store it reads
			// from (release-sequence continuation).
			rc := rel(int32(i))
			if a.MO.IsRelease() {
				copy(rc, ti.clock)
			} else {
				copy(rc, ti.relFence)
			}
			if a.Kind == memmodel.KRMW {
				join(rc, rel(ex.rf[i]))
				// The load half of the RMW acquires like a load.
				acquire(ti, a, rel(ex.rf[i]))
			}
		case memmodel.KLoad:
			acquire(ti, a, rel(ex.rf[i]))
		case memmodel.KFence:
			if a.MO.IsAcquire() {
				join(ti.clock, ti.acqFence)
			}
			if a.MO.IsRelease() {
				copy(ti.relFence, ti.clock)
			}
		}
		copy(s.hb[i*w:(i+1)*w], ti.clock)
	}
}

// join sets dst to the pointwise maximum of dst and src.
func join(dst, src []memmodel.SeqNum) {
	for t, v := range src {
		dst[t] = max(dst[t], v)
	}
}

// resize returns buf with length n, reusing its capacity; the contents are
// unspecified. It grows geometrically, so executions that keep getting
// larger reallocate a logarithmic number of times, not once per new size.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, max(n, 2*cap(buf)))
	}
	return buf[:n]
}

// checkReadsFrom verifies every rf edge: same location, matching value, and
// the store is not hidden by coherence (no intervening same-location store
// between rf(b) and b in happens-before).
func (c *checker) checkReadsFrom() {
	ex := c.ex
	for i, a := range ex.trace {
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
		if ex.hbBefore(int32(i), ex.rf[i]) {
			c.fail("rf-hb", "%v reads from hb-later store %v", a, s)
		}
	}
}

// groupAccesses sorts the trace's reads and writes by (Loc, position),
// which groups them by ascending location in trace order, and numbers the
// groups. LocIDs are dense, so a counting pass over them does the sort in
// O(n); when the largest LocID is out of proportion to n, it sorts instead.
// It also counts each thread's accesses, which bound the coherence sweep's
// per-thread regions.
func (ex *Execution) groupAccesses() {
	s := ex.chk
	w := ex.threads
	s.thrOff = resize(s.thrOff, w+1)
	clear(s.thrOff)
	n, top := 0, memmodel.LocID(0)
	for _, a := range ex.trace {
		if a.Kind.IsRead() || a.Kind.IsWrite() {
			n++
			top = max(top, a.Loc)
			s.thrOff[a.TID+1]++
		}
	}
	for t := 0; t < w; t++ {
		s.thrOff[t+1] += s.thrOff[t]
	}
	s.acc = resize(s.acc, n)
	if int(top) < 2*n+64 {
		s.locEnd = resize(s.locEnd, int(top)+1)
		clear(s.locEnd)
		for _, a := range ex.trace {
			if a.Kind.IsRead() || a.Kind.IsWrite() {
				s.locEnd[a.Loc]++
			}
		}
		start := int32(0)
		for l, c := range s.locEnd {
			s.locEnd[l] = start
			start += c
		}
		for i, a := range ex.trace {
			if a.Kind.IsRead() || a.Kind.IsWrite() {
				s.acc[s.locEnd[a.Loc]] = uint64(a.Loc)<<32 | uint64(i)
				s.locEnd[a.Loc]++
			}
		}
	} else {
		s.acc = s.acc[:0]
		for i, a := range ex.trace {
			if a.Kind.IsRead() || a.Kind.IsWrite() {
				s.acc = append(s.acc, uint64(a.Loc)<<32|uint64(i))
			}
		}
		slices.Sort(s.acc)
	}
	s.grp = resize(s.grp, len(ex.trace))
	for i := range s.grp {
		s.grp[i] = -1
	}
	g := int32(-1)
	for k, key := range s.acc {
		if k == 0 || key>>32 != s.acc[k-1]>>32 {
			g++
		}
		s.grp[uint32(key)] = g
	}
	s.lastSC = resize(s.lastSC, int(g+1))
}

// coherencePaths counts, over a workspace's life, how checkCoherence
// settled each location: the sweep accepted it, or the sweep bailed out
// because its prefix argument does not apply, or the pair loop ran (after
// a bail, after the sweep rejected, or for a location too small to sweep).
type coherencePaths struct {
	accepted, bailed, reported int
}

// checkCoherence verifies the four coherence shapes of Figure 5 against the
// concrete modification order. A location whose accesses the sweep proves
// coherent needs nothing more; any other goes through the pair loop, which
// finds and reports its violations. A location with at most two accesses
// per thread goes straight to the pair loop, which costs no more there.
func (c *checker) checkCoherence() {
	ex := c.ex
	s, w := ex.chk, ex.threads
	acc := s.acc
	for lo := 0; lo < len(acc); {
		hi := lo + 1
		for hi < len(acc) && acc[hi]>>32 == acc[lo]>>32 {
			hi++
		}
		if memmodel.LocID(acc[lo]>>32) != memmodel.NoLoc {
			keys := acc[lo:hi]
			if len(keys) > 2*w {
				switch ex.sweepCoherence(keys) {
				case sweepCoherent:
					s.paths.accepted++
					lo = hi
					continue
				case sweepBailed:
					s.paths.bailed++
				}
			}
			s.paths.reported++
			c.checkLocCoherence(keys)
		}
		lo = hi
	}
}

// sweepVerdict is the coherence sweep's answer for one location.
type sweepVerdict uint8

const (
	sweepCoherent sweepVerdict = iota // no pair violates coherence
	sweepRejected                     // some pair may violate it
	sweepBailed                       // the sweep's prefix argument does not apply
)

// sweepEntry is one access in its thread's list: its Seq, and the running
// maxima of mo position over the list up to it — of every access's store
// (all) and of the writes alone (wr, -1 before the first write).
type sweepEntry struct {
	seq     memmodel.SeqNum
	all, wr int32
}

// sweepCoherence decides in O(k·w) whether one location's accesses, given
// as groupAccesses keys, satisfy coherence. With pos(s) = max(moIx[s], 0) as
// moBefore reads it, the four shapes of Figure 5 together say: for x hb→ y,
// pos(writeOf(x)) ≤ pos(writeOf(y)), strictly when both are writes. Walking
// the accesses in trace order, the hb-predecessors of y from thread t are
// the prefix of t's list whose Seq is at most y's clock entry for t, so the
// running maxima at the end of each prefix bound every pair at once. The
// cursor that finds a prefix's end only moves forward: computeHB changes
// another thread's entry in u's clock only by joins, and u's own entry is
// y's Seq. Two shapes break that argument, and the sweep bails on them: a
// thread whose Seq does not increase along its list (a promoted non-atomic
// store carries its original epoch), and a read whose store is at another
// location.
func (ex *Execution) sweepCoherence(keys []uint64) sweepVerdict {
	s := ex.chk
	w := ex.threads
	hb := s.hb
	loc := ex.trace[uint32(keys[0])].Loc
	s.sweep = resize(s.sweep, int(s.thrOff[w]))
	s.fill = resize(s.fill, w)
	clear(s.fill)
	s.cur = resize(s.cur, w*w)
	clear(s.cur)
	for _, k := range keys {
		p := int32(uint32(k))
		wy := ex.writeOf(p)
		if wy < 0 {
			continue
		}
		if ex.acts[wy].Loc != loc {
			return sweepBailed
		}
		y := ex.trace[p]
		u := int(y.TID)
		py := max(ex.moIx[wy], 0)
		all, wr := int32(-1), int32(-1)
		cur := s.cur[u*w : (u+1)*w]
		for t, bound := range hb[int(p)*w : int(p+1)*w] {
			list := s.sweep[s.thrOff[t] : s.thrOff[t]+s.fill[t]]
			c := cur[t]
			for int(c) < len(list) && list[c].seq <= bound {
				c++
			}
			cur[t] = c
			if c > 0 {
				all, wr = max(all, list[c-1].all), max(wr, list[c-1].wr)
			}
		}
		isWrite := y.Kind.IsWrite()
		if all > py || isWrite && wr >= py {
			return sweepRejected
		}
		e := sweepEntry{seq: y.Seq, all: py, wr: -1}
		if isWrite {
			e.wr = py
		}
		end := s.thrOff[u] + s.fill[u]
		if s.fill[u] > 0 {
			last := s.sweep[end-1]
			if last.seq >= y.Seq {
				return sweepBailed
			}
			e.all, e.wr = max(e.all, last.all), max(e.wr, last.wr)
		}
		s.sweep[end] = e
		s.fill[u]++
	}
	return sweepCoherent
}

// checkLocCoherence checks every hb-ordered pair of one location's accesses,
// given as groupAccesses keys.
func (c *checker) checkLocCoherence(keys []uint64) {
	ex := c.ex
	hb, w := ex.chk.hb, ex.threads
	for i, xk := range keys {
		xp := int32(uint32(xk))
		x, wx := ex.trace[xp], ex.writeOf(xp)
		if wx < 0 {
			continue
		}
		// x hb→ y iff y's clock has reached x in x's thread: hbBefore
		// with x's column hoisted out of the loop.
		col, seq := int(x.TID), x.Seq
		for _, yk := range keys[i+1:] {
			yp := int32(uint32(yk))
			if hb[int(yp)*w+col] < seq {
				continue
			}
			wy := ex.writeOf(yp)
			if wy < 0 {
				continue
			}
			y := ex.trace[yp]
			switch {
			case x.Kind.IsWrite() && y.Kind.IsWrite():
				if !ex.moBefore(wx, wy) {
					c.fail("CoWW", "%v hb %v but mo disagrees", x, y)
				}
			case x.Kind.IsWrite() && !y.Kind.IsWrite():
				if wx != wy && ex.moBefore(wy, wx) {
					c.fail("CoWR", "%v hb %v but %v reads mo-earlier %v", x, y, y, ex.acts[wy])
				}
			case !x.Kind.IsWrite() && y.Kind.IsWrite():
				if wx != wy && ex.moBefore(wy, wx) {
					c.fail("CoRW", "%v hb %v but store is mo-before the read's source", x, y)
				}
			default:
				if wx != wy && ex.moBefore(wy, wx) {
					c.fail("CoRR", "%v hb %v but reads go backwards in mo", x, y)
				}
			}
		}
	}
}

// checkRMWAtomicity verifies that every RMW immediately follows the store
// it read from in modification order and that no store feeds two RMWs.
func (c *checker) checkRMWAtomicity() {
	ex := c.ex
	readBy := resize(ex.chk.readBy, len(ex.acts))
	ex.chk.readBy = readBy
	for i := range readBy {
		readBy[i] = -1
	}
	for k, l := range ex.mo {
		ids := ex.moIDs[ex.moOff[k]:ex.moOff[k+1]]
		for i, a := range l.Stores {
			if a.Kind != memmodel.KRMW || a.RF == nil {
				continue
			}
			src := ex.rf[ids[i]]
			if prev := readBy[src]; prev >= 0 {
				c.fail("rmw-unique", "store %v read by RMWs %v and %v", a.RF, ex.acts[prev], a)
			}
			readBy[src] = ids[i]
			if i == 0 || ids[i-1] != src {
				c.fail("rmw-atomic", "%v does not immediately follow %v in mo", a, a.RF)
			}
		}
	}
}

// checkSeqCst verifies the SC axioms the engine must enforce: the SC order
// restricted to same-location stores is consistent with mo, and an SC load
// reads either the last SC store sc-before it or a store that does not
// happen before that store (C++11 29.3p3).
func (c *checker) checkSeqCst() {
	ex := c.ex
	s := ex.chk
	s.scOps = s.scOps[:0]
	for i, a := range ex.trace {
		if a.IsSC() {
			s.scOps = append(s.scOps, int32(i))
		}
	}
	// SC ∪ mo consistency for same-location stores.
	for i, xp := range s.scOps {
		x := ex.trace[xp]
		if !x.Kind.IsWrite() {
			continue
		}
		for _, yp := range s.scOps[i+1:] {
			if y := ex.trace[yp]; y.Kind.IsWrite() && y.Loc == x.Loc && ex.moBefore(yp, xp) {
				c.fail("sc-mo", "SC order %v before %v contradicts mo", x, y)
			}
		}
	}
	// SC read restriction.
	for i := range s.lastSC {
		s.lastSC[i] = -1
	}
	for _, p := range s.scOps {
		a := ex.trace[p]
		if a.Kind.IsRead() && a.RF != nil {
			if last := s.lastSC[s.grp[p]]; last >= 0 && ex.rf[p] != last {
				l := ex.trace[last]
				if a.RF.IsSC() && a.RF.SCIdx < l.SCIdx {
					c.fail("sc-read", "%v reads SC store %v older than last SC store %v", a, a.RF, l)
				}
				if ex.hbBefore(ex.rf[p], last) {
					c.fail("sc-read-hb", "%v reads %v which happens before last SC store %v", a, a.RF, l)
				}
			}
		}
		if a.Kind.IsWrite() {
			s.lastSC[s.grp[p]] = p
		}
	}
}
