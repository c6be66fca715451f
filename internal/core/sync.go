package core

import (
	"fmt"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// Mutex and condition-variable semantics. Lock and unlock establish
// happens-before through the mutex's release clock (they behave like
// release/acquire operations on a private location, which is how the paper
// notes they can be implemented with atomic statements, Section 6).
//
// Blocking is modelled by leaving the thread's operation pending and marking
// the thread unschedulable; wakes mark it schedulable again and the
// operation is re-dispatched, which re-evaluates its guard. This gives
// wake-all retry semantics for mutexes (losers simply block again).

func (e *Engine) mutex(id memmodel.LocID) *mutexState {
	if int(id) >= len(e.mutexes) || e.mutexes[id] == nil {
		panic(fmt.Sprintf("core: unknown mutex %d", id))
	}
	return e.mutexes[id]
}

func (e *Engine) cond(id memmodel.LocID) *condState {
	if int(id) >= len(e.conds) || e.conds[id] == nil {
		panic(fmt.Sprintf("core: unknown cond %d", id))
	}
	return e.conds[id]
}

func (e *Engine) doLock(ts *ThreadState, op *capi.Op) {
	m := e.mutex(op.Loc)
	if m.owner != nil {
		e.block(ts)
		return
	}
	e.acquireMutex(ts, m)
	e.result.Stats.AtomicOps++
	e.complete(ts)
}

func (e *Engine) acquireMutex(ts *ThreadState, m *mutexState) {
	e.assignSeq(ts)
	m.owner = ts
	ts.C.Merge(&m.cv)
}

func (e *Engine) doTryLock(ts *ThreadState, op *capi.Op) {
	m := e.mutex(op.Loc)
	if m.owner == nil {
		e.acquireMutex(ts, m)
		op.OK = true
	} else {
		e.assignSeq(ts)
		op.OK = false
	}
	e.result.Stats.AtomicOps++
	e.complete(ts)
}

func (e *Engine) doUnlock(ts *ThreadState, op *capi.Op) {
	m := e.mutex(op.Loc)
	if m.owner != ts {
		e.failAssert(ts, fmt.Sprintf("unlock of mutex %q not owned by thread %d", m.name, ts.ID))
		e.complete(ts)
		return
	}
	e.assignSeq(ts)
	m.cv.Merge(ts.C)
	m.owner = nil
	e.wakeMutexWaiters(m)
	e.result.Stats.AtomicOps++
	e.complete(ts)
}

// wakeMutexWaiters marks every thread blocked on m schedulable: both plain
// lockers and cond-waiters that are re-acquiring after a signal.
func (e *Engine) wakeMutexWaiters(m *mutexState) {
	for _, w := range e.threads {
		if w.finished || e.schedulable(w) {
			continue
		}
		op := w.thr.Pending()
		if op == nil {
			continue
		}
		switch {
		case op.Kind == memmodel.KMutexLock && op.Loc == m.id:
			e.wake(w)
		case op.Kind == memmodel.KCondWait && op.Loc2 == m.id && w.condPhase == condReacquire:
			e.wake(w)
		}
	}
}

func (e *Engine) doCondWait(ts *ThreadState, op *capi.Op) {
	c := e.cond(op.Loc)
	m := e.mutex(op.Loc2)
	switch ts.condPhase {
	case condIdle:
		if m.owner != ts {
			e.failAssert(ts, fmt.Sprintf("cond wait on %q without holding mutex %q", c.name, m.name))
			e.complete(ts)
			return
		}
		// Atomically release the mutex and park on the condition variable.
		e.assignSeq(ts)
		m.cv.Merge(ts.C)
		m.owner = nil
		e.wakeMutexWaiters(m)
		ts.condPhase = condWaiting
		c.waiters = append(c.waiters, ts)
		e.result.Stats.AtomicOps++
		e.block(ts)
	case condWaiting:
		// Not signaled yet; stay parked.
		e.block(ts)
	case condReacquire:
		if m.owner != nil {
			e.block(ts)
			return
		}
		e.acquireMutex(ts, m)
		ts.C.Merge(&c.cv)
		ts.condPhase = condIdle
		ts.condSignaled = false
		e.result.Stats.AtomicOps++
		e.complete(ts)
	}
}

func (e *Engine) doCondSignal(ts *ThreadState, op *capi.Op, broadcast bool) {
	c := e.cond(op.Loc)
	e.assignSeq(ts)
	c.cv.Merge(ts.C)
	if len(c.waiters) > 0 {
		if broadcast {
			for _, w := range c.waiters {
				w.condPhase = condReacquire
				w.condSignaled = true
				e.wake(w)
			}
			c.waiters = c.waiters[:0]
		} else {
			i := e.Rand().Intn(len(c.waiters))
			w := c.waiters[i]
			c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
			w.condPhase = condReacquire
			w.condSignaled = true
			e.wake(w)
		}
	}
	e.result.Stats.AtomicOps++
	e.complete(ts)
}
