package core

import (
	"fmt"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// env implements capi.Env for one thread: every method packages the request
// as an Op and parks the thread until the engine has executed it. This is
// the runtime half of the instrumentation boundary (Figure 1).
//
// Each thread owns exactly one Op (the struct below), reused for every
// visible operation: a thread has at most one operation in flight — it parks
// until the engine replies — so the request fields can be overwritten once
// the previous call returned. prep zeroes the Op between uses so no stale
// request field leaks into the next operation. This removes the dominant
// per-operation allocation of the instrumentation boundary.
type env struct {
	e  *Engine
	ts *ThreadState
	op capi.Op
}

var _ capi.Env = (*env)(nil)

// prep resets the thread's reusable Op and returns it.
func (v *env) prep() *capi.Op {
	v.op = capi.Op{}
	return &v.op
}

func (v *env) call(op *capi.Op) *capi.Op {
	v.ts.thr.Call(op)
	return op
}

func (v *env) TID() memmodel.TID { return v.ts.ID }

func (v *env) NewLoc(name string, init memmodel.Value) capi.Loc {
	op := v.prep()
	op.Kind, op.NewName, op.Operand = memmodel.KAlloc, name, init
	return capi.Loc{ID: memmodel.LocID(v.call(op).Val)}
}

func (v *env) NewAtomic(name string, init memmodel.Value) capi.Loc {
	op := v.prep()
	op.Kind, op.NewName, op.Operand, op.NewAtomic = memmodel.KAlloc, name, init, true
	return capi.Loc{ID: memmodel.LocID(v.call(op).Val)}
}

func (v *env) Load(l capi.Loc, mo memmodel.MemoryOrder) memmodel.Value {
	op := v.prep()
	op.Kind, op.MO, op.Loc = memmodel.KLoad, mo, l.ID
	return v.call(op).Val
}

func (v *env) Store(l capi.Loc, val memmodel.Value, mo memmodel.MemoryOrder) {
	op := v.prep()
	op.Kind, op.MO, op.Loc, op.Operand = memmodel.KStore, mo, l.ID, val
	v.call(op)
}

func (v *env) FetchAdd(l capi.Loc, delta memmodel.Value, mo memmodel.MemoryOrder) memmodel.Value {
	op := v.prep()
	op.Kind, op.MO, op.Loc, op.RMW, op.Operand = memmodel.KRMW, mo, l.ID, capi.RMWAdd, delta
	return v.call(op).Val
}

func (v *env) Exchange(l capi.Loc, val memmodel.Value, mo memmodel.MemoryOrder) memmodel.Value {
	op := v.prep()
	op.Kind, op.MO, op.Loc, op.RMW, op.Operand = memmodel.KRMW, mo, l.ID, capi.RMWExchange, val
	return v.call(op).Val
}

func (v *env) CompareExchange(l capi.Loc, expected, desired memmodel.Value, succ, fail memmodel.MemoryOrder) (memmodel.Value, bool) {
	op := v.prep()
	op.Kind, op.MO, op.FailMO, op.Loc = memmodel.KRMW, succ, fail, l.ID
	op.RMW, op.Operand, op.Expected = capi.RMWCas, desired, expected
	v.call(op)
	return op.Val, op.OK
}

func (v *env) Fence(mo memmodel.MemoryOrder) {
	op := v.prep()
	op.Kind, op.MO = memmodel.KFence, mo
	v.call(op)
}

func (v *env) Read(l capi.Loc) memmodel.Value {
	op := v.prep()
	op.Kind, op.Loc = memmodel.KNALoad, l.ID
	return v.call(op).Val
}

func (v *env) Write(l capi.Loc, val memmodel.Value) {
	op := v.prep()
	op.Kind, op.Loc, op.Operand = memmodel.KNAStore, l.ID, val
	v.call(op)
}

func (v *env) Spawn(name string, fn func(capi.Env)) capi.Thread {
	op := v.prep()
	op.Kind, op.SpawnName, op.SpawnFn = memmodel.KThreadCreate, name, fn
	return capi.Thread{TID: memmodel.TID(v.call(op).Val)}
}

func (v *env) Join(t capi.Thread) {
	op := v.prep()
	op.Kind, op.Target = memmodel.KThreadJoin, t.TID
	v.call(op)
}

// Yield is a plain schedule point: the engine gives KYield a sequence
// number and completes it like any other operation, so the strategy may
// pick the yielding thread again at once (see capi.Env.Yield).
func (v *env) Yield() {
	op := v.prep()
	op.Kind = memmodel.KYield
	v.call(op)
}

func (v *env) Assert(cond bool, format string, args ...any) {
	if cond {
		return
	}
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	op := v.prep()
	op.Kind, op.AssertMsg = memmodel.KAssert, msg
	v.call(op)
}

// BeginAtomic and EndAtomic record block annotations directly on the engine
// without a dispatch Op: they have no memory-model or scheduling effect, so
// routing them through the scheduler would only perturb nothing at a handoff
// cost. Direct engine access is safe because threads run one at a time,
// totally ordered by the handoff channels.
func (v *env) BeginAtomic(name string) { v.e.beginBlock(v.ts, name) }
func (v *env) EndAtomic()              { v.e.endBlock(v.ts) }
