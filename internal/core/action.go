package core

import (
	"fmt"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
	"c11tester/internal/mograph"
	"c11tester/internal/race"
	"c11tester/internal/sched"
)

// Action is one dynamic event of an execution: an atomic load, store, RMW,
// fence, promoted non-atomic store, or thread/synchronization event. It is
// the operational counterpart of the elements in Figure 10 of the paper
// (StoreElem, LoadElem, RMWElem, FenceElem).
type Action struct {
	Seq  memmodel.SeqNum
	TID  memmodel.TID
	Kind memmodel.Kind
	MO   memmodel.MemoryOrder
	Loc  memmodel.LocID

	// Value is the stored value for stores/RMWs, the value read for loads,
	// and the child/target thread id for thread events.
	Value memmodel.Value

	// RF is the store this load or RMW read from.
	RF *Action

	// RFCV is the reads-from clock vector RF_s of Figure 9, maintained for
	// stores and RMWs to implement release sequences.
	RFCV *memmodel.ClockVector

	// CVSnap is the thread clock at the time of the action. It is recorded
	// only for seq_cst stores (needed by the may-read-from SC restriction)
	// and, in trace mode, for every action.
	CVSnap *memmodel.ClockVector

	// Node is the action's node in the modification order graph (stores and
	// RMWs only).
	Node *mograph.Node

	// SCIdx is the action's position in the seq_cst total order, or -1.
	SCIdx int

	// RMWReader is the RMW that read from this store, if any; at most one
	// RMW may read from a given store (RMW atomicity).
	RMWReader *Action
}

func (a *Action) String() string {
	return fmt.Sprintf("%v(loc=%d mo=%v tid=%d seq=%d val=%d)", a.Kind, a.Loc, a.MO, a.TID, a.Seq, a.Value)
}

// IsSC reports whether the action participates in the seq_cst total order.
func (a *Action) IsSC() bool { return a.SCIdx >= 0 }

// locState is the engine-level state of one shared memory location: its
// plain-memory cell, race-detector shadow word, and promotion bookkeeping.
// Atomic bookkeeping (per-thread access lists, mo-graph nodes) belongs to
// the memory model.
type locState struct {
	id      memmodel.LocID
	name    string
	naValue memmodel.Value
	shadow  race.Shadow
	// promoted records that the latest non-atomic store has already been
	// promoted into the modification order graph (Section 7.2), so repeated
	// atomic accesses do not promote it again.
	promoted bool
}

// ThreadState is the engine-side state of one model thread: the clock
// vectors of Figure 9, the per-thread seq_cst fence list, and blocking
// bookkeeping.
type ThreadState struct {
	ID   memmodel.TID
	Name string

	// C is the thread clock vector of Figure 9.
	C *memmodel.ClockVector

	// frel and facq are the release/acquire fence clock vectors of Figure 9.
	// They are nil until the thread's first fence-clock use: most threads
	// never execute a fence (or a relaxed store, which consults frel), so
	// eagerly carrying both vectors on every thread of every execution is
	// pure waste. Access them through relFence/acqFence (mutating) or the
	// nil-tolerant direct reads in ApplyFenceClocks/StoreRFCV.
	frel *memmodel.ClockVector
	facq *memmodel.ClockVector

	// eng is the engine that owns this thread; per-action clock-vector
	// snapshots are drawn from its execution-lifetime arenas. envv is the
	// thread's capi.Env, embedded here so spawning a thread does not allocate
	// a fresh env (and, through env's reusable Op, so visible operations do
	// not allocate either).
	eng  *Engine
	envv env

	// fn is the program function the thread currently runs; bodyFn is the
	// runBody method value built once per pooled ThreadState, so re-binding
	// the thread to a new fn each execution allocates neither a closure nor
	// a goroutine (the scheduler's fiber pool serves the binding).
	fn     func(capi.Env)
	bodyFn func(*sched.Thread)

	// SCFences lists the thread's seq_cst fences in order (used by the
	// prior-set procedures of Figure 13).
	SCFences []*Action

	thr      *sched.Thread
	finished bool
	// woken marks a blocked thread as schedulable again: its pending
	// operation will be re-dispatched, and may block again. Engine.wake
	// sets it.
	woken bool
	// opSeq is the sequence number assigned to the operation currently
	// being dispatched.
	opSeq memmodel.SeqNum

	// burstable records that the thread's previous operation was a relaxed
	// or release atomic store, enabling the store-burst scheduling rule of
	// Section 3.
	burstable bool
}

// reset recycles a pooled ThreadState for a new execution, zeroing its clock
// vectors in place (clockSlots is the minimum clock width, as in
// NewClockVector). The lazily allocated fence vectors are kept (and emptied)
// when a previous execution materialized them.
func (t *ThreadState) reset(name string, clockSlots int) {
	t.Name = name
	t.C.Reset(clockSlots)
	if t.frel != nil {
		t.frel.Reset(0)
	}
	if t.facq != nil {
		t.facq.Reset(0)
	}
	t.SCFences = t.SCFences[:0]
	t.thr = nil
	t.fn = nil
	t.finished = false
	t.woken = false
	t.opSeq = 0
	t.burstable = false
}

// relFence returns the thread's release-fence clock, materializing it on
// first use.
func (t *ThreadState) relFence() *memmodel.ClockVector {
	if t.frel == nil {
		t.frel = memmodel.NewClockVector(0)
	}
	return t.frel
}

// acqFence returns the thread's acquire-fence clock, materializing it on
// first use.
func (t *ThreadState) acqFence() *memmodel.ClockVector {
	if t.facq == nil {
		t.facq = memmodel.NewClockVector(0)
	}
	return t.facq
}

// LastSCFence returns the thread's most recent seq_cst fence, or nil.
func (t *ThreadState) LastSCFence() *Action {
	if n := len(t.SCFences); n > 0 {
		return t.SCFences[n-1]
	}
	return nil
}

// OpSeq returns the sequence number of the operation currently being
// dispatched for this thread (memory-model plugins use it to stamp the
// actions they create).
func (t *ThreadState) OpSeq() memmodel.SeqNum { return t.opSeq }

// runBody is the thread's scheduler binding: it runs the thread's current
// program function. spawnThread caches one method value of it per pooled
// ThreadState (bodyFn) and re-binds fn per execution.
func (t *ThreadState) runBody(*sched.Thread) { t.fn(&t.envv) }
