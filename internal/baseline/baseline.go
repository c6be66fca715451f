// Package baseline implements the two comparison tools of the paper's
// evaluation: tsan11 (Lidbury & Donaldson, POPL 2017) and tsan11rec
// (Lidbury & Donaldson, PLDI 2019).
//
// Both tools support a restricted fragment of the C/C++11 memory model:
// they require hb ∪ sc ∪ rf ∪ mo to be acyclic, which forces the
// modification order of every location to be the total order in which
// stores commit (Section 1.1 and Section 9 of the C11Tester paper). The
// commit-order model here captures exactly that restriction: each location
// keeps a bounded history of committed stores; a load may read backwards in
// the history only as far as coherence over the *total* commit order
// allows, and RMWs always operate on the commit-latest store. Release/
// acquire synchronization, release sequences, and fences reuse the same
// Figure 9 clock machinery as the C11Tester engine — the tools differ in
// the admitted mo fragment, not in their happens-before treatment.
//
// The tools also differ in scheduling, which this package reproduces:
//
//   - tsan11 does not control the schedule: threads run under the OS
//     scheduler. On the engine's sequentialized substrate this is modelled
//     by quantum scheduling (a thread runs a geometrically distributed
//     number of operations before being preempted) over the cheap fiber
//     handoff. Each preemption draws its quantum (mean 150) with
//     rng.Geometric: one 64-bit draw looked up in a shared integer table
//     of the geometric tail, exact in law and free of floating point, so
//     every platform draws the same schedule.
//
//   - tsan11rec sequentializes visible operations across kernel threads
//     and records them for replay: every visible operation is appended to
//     an in-memory record log. Here it runs on the engine's fiber handoff;
//     the cost of its kernel-thread handoff (every visible operation a
//     kernel context switch, the regime of Figure 14) is priced from
//     handoff counts in README rather than run, since outcomes do not
//     depend on the handoff.
package baseline

import (
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

// DefaultHistoryLimit bounds the per-location store history, mirroring the
// bounded store buffers the tsan11 family keeps in shadow memory.
const DefaultHistoryLimit = 8

// bloc is the commit-order bookkeeping of one location.
type bloc struct {
	// history is the retained suffix of the location's commit order; the
	// commit order *is* the modification order in this model.
	history []*core.Action
	// base is the absolute commit position of history[0].
	base int
	// readFloor[t] is the absolute position of the last store thread t read
	// (reads may not go backwards past it: CoRR over the total order).
	readFloor []int
}

// reset recycles a pooled bloc for a new execution, keeping the history and
// read-floor slice capacity.
func (b *bloc) reset() {
	b.history = b.history[:0]
	b.base = 0
	b.readFloor = b.readFloor[:0]
}

func (b *bloc) floor(t memmodel.TID) int {
	if int(t) < len(b.readFloor) {
		return b.readFloor[t]
	}
	return -1
}

func (b *bloc) setFloor(t memmodel.TID, pos int) {
	for len(b.readFloor) <= int(t) {
		b.readFloor = append(b.readFloor, -1)
	}
	if pos > b.readFloor[t] {
		b.readFloor[t] = pos
	}
}

// recordEntry is one entry of tsan11rec's record log.
type recordEntry struct {
	TID  memmodel.TID
	Kind memmodel.Kind
	Loc  memmodel.LocID
}

// CommitModel is the commit-order memory model shared by both baselines.
type CommitModel struct {
	e            *core.Engine
	locs         []*bloc
	historyLimit int
	record       bool
	conservative bool
	log          []recordEntry

	// locPool recycles bloc bookkeeping across executions; entry i serves
	// LocID i. Actions themselves come from the engine's execution arena.
	locPool []*bloc
}

// NewCommitModel returns a commit-order model. record enables tsan11rec's
// record log.
func NewCommitModel(historyLimit int, record bool) *CommitModel {
	if historyLimit <= 0 {
		historyLimit = DefaultHistoryLimit
	}
	return &CommitModel{historyLimit: historyLimit, record: record}
}

// SetConservativeSync enables the tsan-runtime clock treatment: every
// atomic load behaves like an acquire and every atomic store like a release
// for happens-before purposes. The tsan11 tools are built on ThreadSanitizer
// whose sync-clock machinery transfers clocks on atomic reads-from pairs;
// modelling that over-approximation is what reproduces their measured
// misses — races hidden behind relaxed-atomic synchronization chains (the
// injected seqlock/rwlock bugs of Section 8.1 and most of the Table 2
// benchmarks) are invisible to them, as the paper observes.
func (m *CommitModel) SetConservativeSync(on bool) { m.conservative = on }

func (m *CommitModel) loadOrder(mo memmodel.MemoryOrder) memmodel.MemoryOrder {
	if m.conservative && !mo.IsAcquire() {
		return memmodel.Acquire
	}
	return mo
}

func (m *CommitModel) storeOrder(mo memmodel.MemoryOrder) memmodel.MemoryOrder {
	if m.conservative && !mo.IsRelease() {
		return memmodel.Release
	}
	return mo
}

// Begin implements core.MemModel.
func (m *CommitModel) Begin(e *core.Engine) {
	m.e = e
	m.locs = m.locs[:0]
	m.log = m.log[:0]
}

// RecordLogLen returns the number of recorded visible operations (tsan11rec
// only); exposed for tests.
func (m *CommitModel) RecordLogLen() int { return len(m.log) }

func (m *CommitModel) bloc(id memmodel.LocID) *bloc {
	for len(m.locs) <= int(id) {
		m.locs = append(m.locs, nil)
	}
	if m.locs[id] == nil {
		for len(m.locPool) <= int(id) {
			m.locPool = append(m.locPool, nil)
		}
		b := m.locPool[id]
		if b == nil {
			b = &bloc{}
			m.locPool[id] = b
		}
		b.reset()
		m.locs[id] = b
	}
	return m.locs[id]
}

func (m *CommitModel) rec(t *core.ThreadState, kind memmodel.Kind, loc memmodel.LocID) {
	if m.record {
		m.log = append(m.log, recordEntry{TID: t.ID, Kind: kind, Loc: loc})
	}
}

// append commits a store at the end of the location's total order and
// evicts history beyond the limit.
func (m *CommitModel) append(b *bloc, a *core.Action) {
	b.history = append(b.history, a)
	if len(b.history) > m.historyLimit {
		drop := len(b.history) - m.historyLimit
		copy(b.history, b.history[drop:])
		for i := m.historyLimit; i < len(b.history); i++ {
			b.history[i] = nil
		}
		b.history = b.history[:m.historyLimit]
		b.base += drop
	}
}

// AtomicStore implements core.MemModel.
func (m *CommitModel) AtomicStore(t *core.ThreadState, op *capi.Op) {
	b := m.bloc(op.Loc)
	act := m.e.NewAction()
	act.Seq, act.TID, act.Kind, act.MO = t.OpSeq(), t.ID, memmodel.KStore, op.MO
	act.Loc, act.Value = op.Loc, op.Operand
	act.RFCV = core.StoreRFCV(t, m.storeOrder(op.MO))
	m.append(b, act)
	m.rec(t, memmodel.KStore, op.Loc)
}

// candidates returns the commit positions the current load of thread t may
// read: no earlier than the thread's own read floor, no earlier than the
// latest store that happens before the load (write-read coherence over the
// total order), and within the retained history. seq_cst loads read the
// commit-latest store (SC is trivially total in this model).
func (m *CommitModel) candidates(t *core.ThreadState, b *bloc, mo memmodel.MemoryOrder) (lo, hi int) {
	hi = b.base + len(b.history) - 1
	if mo.IsSeqCst() {
		return hi, hi
	}
	lo = b.base
	if f := b.floor(t.ID); f > lo {
		lo = f
	}
	for i := len(b.history) - 1; i >= 0; i-- {
		s := b.history[i]
		if t.C.Synchronized(s.TID, s.Seq) {
			if p := b.base + i; p > lo {
				lo = p
			}
			break
		}
	}
	return lo, hi
}

// AtomicLoad implements core.MemModel.
func (m *CommitModel) AtomicLoad(t *core.ThreadState, op *capi.Op) memmodel.Value {
	b := m.bloc(op.Loc)
	if len(b.history) == 0 {
		// Never happens for programs that initialise their atomics; return
		// zero like uninitialised memory.
		return 0
	}
	lo, hi := m.candidates(t, b, op.MO)
	pos := lo + m.e.PickIndex(hi-lo+1)
	s := b.history[pos-b.base]
	b.setFloor(t.ID, pos)
	core.ApplyLoadClocks(t, m.loadOrder(op.MO), s)
	m.rec(t, memmodel.KLoad, op.Loc)
	return s.Value
}

// AtomicRMW implements core.MemModel: RMWs read the commit-latest store —
// the defining restriction of a total modification order.
func (m *CommitModel) AtomicRMW(t *core.ThreadState, op *capi.Op) (memmodel.Value, bool) {
	b := m.bloc(op.Loc)
	if len(b.history) == 0 {
		return 0, false
	}
	last := b.history[len(b.history)-1]
	old := last.Value
	if op.RMW == capi.RMWCas && old != op.Expected {
		b.setFloor(t.ID, b.base+len(b.history)-1)
		core.ApplyLoadClocks(t, m.loadOrder(op.FailMO), last)
		m.rec(t, memmodel.KLoad, op.Loc)
		return old, false
	}
	core.ApplyLoadClocks(t, m.loadOrder(op.MO), last)
	act := m.e.NewAction()
	act.Seq, act.TID, act.Kind, act.MO = t.OpSeq(), t.ID, memmodel.KRMW, op.MO
	act.Loc, act.Value, act.RF = op.Loc, core.RMWNewValue(op, old), last
	act.RFCV = core.StoreRFCV(t, m.storeOrder(op.MO))
	act.RFCV.Merge(last.RFCV)
	m.append(b, act)
	b.setFloor(t.ID, b.base+len(b.history)-1)
	m.rec(t, memmodel.KRMW, op.Loc)
	return old, true
}

// Fence implements core.MemModel. seq_cst fences act as acq_rel fences; the
// SC-fence modification-order rules are vacuous when mo is the commit order.
func (m *CommitModel) Fence(t *core.ThreadState, op *capi.Op) {
	core.ApplyFenceClocks(t, op.MO)
	m.rec(t, memmodel.KFence, memmodel.NoLoc)
}

// PromoteNAStore implements core.MemModel: the plain store becomes the
// commit-latest entry (no atomic store can have intervened, or the shadow
// word would name it as the last write).
func (m *CommitModel) PromoteNAStore(t *core.ThreadState, loc memmodel.LocID, writer memmodel.TID, epoch memmodel.SeqNum, v memmodel.Value) {
	b := m.bloc(loc)
	act := m.e.NewAction()
	act.Seq, act.TID, act.Kind, act.MO = epoch, writer, memmodel.KNAStore, memmodel.Relaxed
	act.Loc, act.Value = loc, v
	m.append(b, act)
}

// tsan11Quantum is tsan11's mean scheduling quantum, in visible operations.
const tsan11Quantum = 150

// NewTsan11 builds the tsan11 baseline: commit-order memory model with the
// conservative tsan-runtime clocks, uncontrolled (quantum) scheduling, cheap
// handoff.
func NewTsan11() *core.Engine {
	m := NewCommitModel(DefaultHistoryLimit, false)
	m.SetConservativeSync(true)
	return core.New("tsan11", m, core.Config{Strategy: core.NewQuantumStrategy(tsan11Quantum)})
}

// NewTsan11rec builds the tsan11rec baseline: commit-order memory model with
// the conservative tsan-runtime clocks, controlled random scheduling of
// visible operations, plus the record log, on the fiber handoff (see the
// package doc for its kernel-thread handoff).
func NewTsan11rec() *core.Engine {
	m := NewCommitModel(DefaultHistoryLimit, true)
	m.SetConservativeSync(true)
	// Strategy stays nil: Config.withDefaults builds the default random
	// strategy.
	return core.New("tsan11rec", m, core.Config{})
}
