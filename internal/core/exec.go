package core

import (
	"fmt"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
	"c11tester/internal/race"
)

type raceConflict = race.Conflict

// dispatch executes the pending operation of ts: the "Execute(s, t, b)" step
// of Figure 3. Handlers either complete the operation (replying to the
// thread) or block it; blocked operations are re-dispatched after a wake.
func (e *Engine) dispatch(ts *ThreadState) {
	op := ts.thr.Pending()
	e.burstT = nil
	switch op.Kind {
	case memmodel.KLoad:
		e.doAtomicLoad(ts, op)
	case memmodel.KStore:
		e.doAtomicStore(ts, op)
	case memmodel.KRMW:
		e.doAtomicRMW(ts, op)
	case memmodel.KFence:
		e.doFence(ts, op)
	case memmodel.KNALoad:
		e.doNALoad(ts, op)
	case memmodel.KNAStore:
		e.doNAStore(ts, op)
	case memmodel.KThreadCreate:
		e.doSpawn(ts, op)
	case memmodel.KThreadJoin:
		e.doJoin(ts, op)
	case memmodel.KYield:
		e.yields++
		e.assignSeq(ts)
		e.complete(ts)
	case memmodel.KAlloc:
		e.doAlloc(ts, op)
	case memmodel.KAssert:
		e.result.AssertFailures = append(e.result.AssertFailures, capi.AssertFailure{
			TID: ts.ID, Message: op.AssertMsg,
		})
		e.complete(ts)
	default:
		panic(fmt.Sprintf("core: unknown op kind %v", op.Kind))
	}
}

// hbCheck returns the happens-before oracle for the current point of ts:
// event (t, s) happens before ts's current operation iff ts's clock vector
// contains it.
func (e *Engine) hbCheck(ts *ThreadState) race.HB {
	return func(t memmodel.TID, s memmodel.SeqNum) bool {
		return ts.C.Synchronized(t, s)
	}
}

// maybePromote lifts the latest non-atomic store to loc into the memory
// model when an atomic operation is about to touch it (Section 7.2): by the
// time the atomic access is observed the plain store has already happened,
// so the engine reconstructs it from the shadow word.
func (e *Engine) maybePromote(ts *ThreadState, l *locState) {
	if l.promoted {
		return
	}
	if wtid, wclk, na, ok := l.shadow.LastWrite(); ok && na {
		e.model.PromoteNAStore(ts, l.id, wtid, wclk, l.naValue)
	}
	l.promoted = true
}

func (e *Engine) doAlloc(ts *ThreadState, op *capi.Op) {
	id := memmodel.LocID(len(e.locs))
	l := e.newLocState(id, op.NewName)
	e.locs = append(e.locs, l)
	op.Val = memmodel.Value(id)
	if op.NewAtomic {
		// Initialise with a relaxed atomic store, backed by the engine's
		// scratch Op (the model reads it synchronously and keeps nothing).
		e.initOp = capi.Op{Kind: memmodel.KStore, MO: memmodel.Relaxed, Loc: id, Operand: op.Operand}
		e.assignSeq(ts)
		e.raceChecks++
		e.confBuf = l.shadow.OnWrite(ts.ID, ts.opSeq, true, e.hbCheck(ts), e.confBuf[:0])
		e.model.AtomicStore(ts, &e.initOp)
		l.naValue = op.Operand
		l.promoted = true
		e.result.Stats.AtomicOps++
	} else {
		// atomic_init is implemented as a non-atomic store (Section 7.2);
		// it may race with concurrent atomic accesses.
		e.assignSeq(ts)
		e.raceChecks++
		e.confBuf = l.shadow.OnWrite(ts.ID, ts.opSeq, false, e.hbCheck(ts), e.confBuf[:0])
		l.naValue = op.Operand
		e.result.Stats.NormalOps++
	}
	e.complete(ts)
}

func (e *Engine) doNAStore(ts *ThreadState, op *capi.Op) {
	e.assignSeq(ts)
	l := e.loc(op.Loc)
	e.raceChecks++
	conf := l.shadow.OnWrite(ts.ID, ts.opSeq, false, e.hbCheck(ts), e.confBuf[:0])
	e.confBuf = conf
	e.reportConflicts(ts, l, memmodel.KNAStore, conf)
	l.naValue = op.Operand
	l.promoted = false
	e.result.Stats.NormalOps++
	e.complete(ts)
}

func (e *Engine) doNALoad(ts *ThreadState, op *capi.Op) {
	e.assignSeq(ts)
	l := e.loc(op.Loc)
	e.raceChecks++
	conf := l.shadow.OnRead(ts.ID, ts.opSeq, false, e.hbCheck(ts), e.confBuf[:0])
	e.confBuf = conf
	e.reportConflicts(ts, l, memmodel.KNALoad, conf)
	op.Val = l.naValue
	e.result.Stats.NormalOps++
	e.complete(ts)
}

func (e *Engine) doAtomicLoad(ts *ThreadState, op *capi.Op) {
	e.assignSeq(ts)
	l := e.loc(op.Loc)
	e.maybePromote(ts, l)
	e.raceChecks++
	conf := l.shadow.OnRead(ts.ID, ts.opSeq, true, e.hbCheck(ts), e.confBuf[:0])
	e.confBuf = conf
	e.reportConflicts(ts, l, memmodel.KLoad, conf)
	op.Val = e.model.AtomicLoad(ts, op)
	e.result.Stats.AtomicOps++
	e.complete(ts)
}

func (e *Engine) doAtomicStore(ts *ThreadState, op *capi.Op) {
	e.assignSeq(ts)
	l := e.loc(op.Loc)
	e.maybePromote(ts, l)
	e.raceChecks++
	conf := l.shadow.OnWrite(ts.ID, ts.opSeq, true, e.hbCheck(ts), e.confBuf[:0])
	e.confBuf = conf
	e.reportConflicts(ts, l, memmodel.KStore, conf)
	e.model.AtomicStore(ts, op)
	l.naValue = op.Operand
	e.result.Stats.AtomicOps++
	burst := isBurstableStore(op)
	e.complete(ts)
	if burst {
		e.burstT = ts
	}
}

// RMWNewValue applies an op's RMW functor to the observed value; it is
// exported for memory-model plugins.
func RMWNewValue(op *capi.Op, old memmodel.Value) memmodel.Value {
	return rmwNewValue(op, old)
}

// rmwNewValue applies the RMW functor to the observed value.
func rmwNewValue(op *capi.Op, old memmodel.Value) memmodel.Value {
	switch op.RMW {
	case capi.RMWAdd:
		return old + op.Operand
	case capi.RMWExchange, capi.RMWCas:
		return op.Operand
	}
	panic("core: not an RMW op")
}

func (e *Engine) doAtomicRMW(ts *ThreadState, op *capi.Op) {
	e.assignSeq(ts)
	l := e.loc(op.Loc)
	e.maybePromote(ts, l)
	hb := e.hbCheck(ts)
	e.raceChecks++
	conf := l.shadow.OnRead(ts.ID, ts.opSeq, true, hb, e.confBuf[:0])
	old, stored := e.model.AtomicRMW(ts, op)
	op.Val = old
	op.OK = stored
	if stored {
		e.raceChecks++
		conf = l.shadow.OnWrite(ts.ID, ts.opSeq, true, hb, conf)
		l.naValue = rmwNewValue(op, old)
	}
	e.confBuf = conf
	e.reportConflicts(ts, l, memmodel.KRMW, conf)
	e.result.Stats.AtomicOps++
	e.complete(ts)
}

func (e *Engine) doFence(ts *ThreadState, op *capi.Op) {
	e.assignSeq(ts)
	e.model.Fence(ts, op)
	e.result.Stats.AtomicOps++
	e.complete(ts)
}

func (e *Engine) doSpawn(ts *ThreadState, op *capi.Op) {
	e.assignSeq(ts)
	child := e.spawnThread(op.SpawnName, op.SpawnFn, ts)
	op.Val = memmodel.Value(child.ID)
	if e.cfg.Trace {
		a := e.NewAction()
		a.Seq, a.TID, a.Kind, a.Value = ts.opSeq, ts.ID, memmodel.KThreadCreate, op.Val
		e.trace = append(e.trace, a)
	}
	e.result.Stats.AtomicOps++
	e.complete(ts)
}

func (e *Engine) doJoin(ts *ThreadState, op *capi.Op) {
	if int(op.Target) >= len(e.threads) {
		e.failAssert(ts, fmt.Sprintf("join of unknown thread %d", op.Target))
		e.complete(ts)
		return
	}
	target := e.threads[op.Target]
	if !target.finished {
		e.block(ts)
		ts.nextJoiner, target.joiners = target.joiners, ts
		return
	}
	e.assignSeq(ts)
	ts.C.Merge(target.C)
	if e.cfg.Trace {
		a := e.NewAction()
		a.Seq, a.TID, a.Kind, a.Value = ts.opSeq, ts.ID, memmodel.KThreadJoin, memmodel.Value(target.ID)
		e.trace = append(e.trace, a)
	}
	e.result.Stats.AtomicOps++
	e.complete(ts)
}

func (e *Engine) failAssert(ts *ThreadState, msg string) {
	e.result.AssertFailures = append(e.result.AssertFailures, capi.AssertFailure{
		TID: ts.ID, Message: msg,
	})
}

// TraceAppend records an action in the execution trace (trace mode only);
// the memory model calls it for atomic actions.
func (e *Engine) TraceAppend(a *Action) {
	if e.cfg.Trace {
		e.trace = append(e.trace, a)
	}
}
