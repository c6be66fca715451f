// Package sched implements the controlled scheduler that stands in for
// C11Tester's fibers (Sections 7.3–7.4 of the paper).
//
// Every thread of the program under test runs on its own worker, but at most
// one of them executes at a time: a thread runs until its next visible
// operation and hands the operation to the tool, which decides who runs next.
// The tool (engine) therefore has full control of the interleaving, exactly
// like C11Tester's fiber scheduler.
//
// The tool's driver resumes the thread its last step chose (Resume). The
// running thread then takes the tool's steps itself, on its own coroutine
// (Thread.Call runs the step the tool installed with SetStep): while a step
// grants the thread that took it, the thread goes straight back to program
// code with no switch at all, and it parks only when a step chooses another
// thread, handing that choice to the driver. With no step installed every
// thread parks on every operation and the driver takes each step; one step
// function decides either way, so both run the same interleavings.
//
// A new thread is bound but not run. NewThread makes it schedulable at once —
// Ready, with no pending operation (Unstarted) — and it first runs when the
// driver resumes it after a step picked it. Its first Call then hands the
// tool the operation it was picked for, so starting a thread costs no handoff
// of its own: as in C11Tester, a thread's start is a scheduling point. A step
// therefore never resumes a thread; only the driver does.
//
// Workers form a pool: a Scheduler creates each worker once and parks it
// between executions; NewThread re-binds a parked worker to a fresh (name,
// body). Steady-state executions therefore start no goroutines and allocate
// nothing — the analogue of C11Tester reusing its fiber stacks across
// executions rather than paying thread creation per run (Section 7.3). The
// workers live as long as the scheduler: a tool keeps them warm across every
// execution it runs, and Shutdown ends them when the tool is closed.
//
// Each worker is a coroutine (iter.Pull), and a handoff is a direct
// coroutine switch between the driver and a thread that never passes through
// the Go run queue — the analogue of C11Tester's swapcontext fibers. A step
// that picks the running thread costs no handoff at all. The paper's Figure
// 14 compares this with tsan11rec's kernel-thread sequencing, where every
// handoff is an OS context switch; outcomes do not depend on the handoff, so
// that comparison is a price per handoff, which BenchmarkHandoff measures for
// both mechanisms.
package sched

import (
	"fmt"
	"time"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// State is a thread's scheduling state.
type State uint8

const (
	// Ready means the thread can be scheduled: it has issued a pending
	// operation, or it has not started yet (see Thread.Unstarted).
	Ready State = iota
	// Blocked means the tool has suspended the thread (an unfinished join);
	// it stays suspended until the tool completes its operation with Grant.
	Blocked
	// Running means the tool granted the thread's operation: the thread runs
	// on to its next operation (Ready) or the end of its function (Finished).
	Running
	// Finished means the thread's function has returned.
	Finished
)

func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Blocked:
		return "blocked"
	case Running:
		return "running"
	case Finished:
		return "finished"
	}
	return "invalid"
}

// abortSignal is panicked through a program thread to unwind it when the
// scheduler aborts the execution (step-limit hit or deadlock).
type abortSignal struct{}

// Thread is one managed thread of the program under test. The handle owns a
// persistent worker that serves one thread binding per execution and parks
// between executions.
type Thread struct {
	ID   memmodel.TID
	Name string

	sched   *Scheduler
	state   State
	pending *capi.Op

	// body is the worker's pending binding: NewThread sets it, the first
	// resume runs it, and the worker clears it when the binding finishes. A
	// nil body at resumption ends the worker (Shutdown).
	body func(*Thread)

	// live reports whether the worker is running. The worker clears it as it
	// exits (Shutdown, or a non-abort panic retired it), before its final
	// handoff; NewThread starts a replacement for a handle that is not live.
	live bool

	// next resumes the worker coroutine (tool side), yield suspends it
	// (thread side).
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// PanicValue records a non-abort panic that escaped the thread's
	// function, so the tool can surface it instead of crashing the host.
	PanicValue any
}

// State returns the thread's scheduling state. Only the tool goroutine may
// call it.
func (t *Thread) State() State { return t.state }

// Pending returns the operation the thread is waiting on (nil once granted,
// and before the thread started).
func (t *Thread) Pending() *capi.Op { return t.pending }

// Unstarted reports whether t is bound but has not run yet: it is Ready with
// no pending operation until the driver first resumes it.
func (t *Thread) Unstarted() bool { return t.state == Ready && t.pending == nil }

// Call hands op to the tool and returns once the tool has executed it. It
// must be called from t's own worker. If the execution is aborting, Call
// unwinds the thread instead of returning.
//
// Call runs the tool's step on t's own coroutine; for a thread's first Call
// that is the step that dispatches the operation the thread was picked for.
// If the step granted t, Call returns without a switch; otherwise t parks and
// the driver resumes the thread the step chose. With no step installed t
// always parks and the driver steps.
func (t *Thread) Call(op *capi.Op) {
	s := t.sched
	if s.aborting {
		panic(abortSignal{})
	}
	t.pending = op
	t.state = Ready
	if s.step != nil && s.stepInline(t) {
		return
	}
	t.park()
	if s.aborting {
		panic(abortSignal{})
	}
}

// stepInline runs one tool step on t's coroutine and reports whether the step
// granted t, which then carries on. Otherwise it leaves the step's choice for
// the driver, to which t's park hands the turn. A panic the step raises is
// recovered here and re-raised by the driver's Resume: on t's stack it would
// pass for a panic of the program. The step's time is taken out of the
// handoff wait, which the enclosing Resume measures, so the wait keeps
// counting only switches and program code.
func (s *Scheduler) stepInline(t *Thread) (cont bool) {
	var t0 time.Time
	if s.measureWait {
		t0 = time.Now()
	}
	defer func() {
		if s.measureWait {
			s.waitNS -= int64(time.Since(t0))
		}
		if r := recover(); r != nil {
			s.chosen, s.stepped, s.stepPanic = nil, true, r
			cont = false
		}
	}()
	next := s.step()
	if next == t {
		return true
	}
	s.chosen, s.stepped = next, true
	return false
}

// serve is the body of a worker: run the bound function, park as Finished,
// and repeat for every new binding, until Shutdown clears the binding or a
// non-abort panic retires the worker. A retired worker's stack may have
// unwound through arbitrary program state, so it is replaced rather than
// recycled (the tool observes the retirement through Thread.PanicValue).
func (t *Thread) serve() {
	for t.body != nil && !t.runOnce() {
		t.park()
	}
	t.live = false
}

// runOnce runs the worker's current binding to completion, converting an
// abort unwind into a clean finish, and reports whether the worker must be
// retired.
func (t *Thread) runOnce() (retire bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortSignal); !ok {
				t.PanicValue = r
				retire = true
			}
		}
		t.body = nil
		t.state = Finished
		t.pending = nil
	}()
	t.body(t)
	return
}

// park hands the turn back to the driver and returns when it resumes t.
func (t *Thread) park() { t.yield(struct{}{}) }

// Scheduler sequences the threads of one execution. One Scheduler instance
// serves many executions in sequence: its pool keeps one parked worker per
// thread slot, and Reset + NewThread re-bind those workers to the next
// execution's threads, so steady-state executions start no goroutines and
// allocate nothing.
type Scheduler struct {
	threads  []*Thread
	aborting bool

	// pool recycles Thread handles and their workers across executions;
	// pool[i] serves TID i. All threads of the previous execution have
	// settled as Finished by the time Reset hands a slot out again.
	pool []*Thread

	// spawns counts workers started over the scheduler's lifetime. It stops
	// growing once the pool covers the program's thread count — the
	// invariant the pool tests pin.
	spawns int

	// step is the tool's engine step that Call runs inline (see SetStep).
	// Only the driver's Resume runs a thread (Abort and Shutdown run one
	// only to unwind or end it), so every Call that reaches the step is
	// inside a Resume. An inline step that chose another thread leaves its
	// choice (nil: the execution is over) in chosen with stepped set, or the
	// panic it raised in stepPanic, for Resume to return.
	step      func() *Thread
	stepped   bool
	chosen    *Thread
	stepPanic any

	// resumes counts the execution's tool-side thread resumes: driver
	// resumes and abort unwinds.
	resumes int

	// measureWait, when set, times every resume — the tool-side half of a
	// handoff, where the tool waits for the program thread to reach its next
	// visible operation — accumulating into waitNS, and takes the inline
	// steps a resumed thread runs back out. Opt-in because it costs two
	// monotonic clock reads per resume and per inline step, which is most of
	// what it measures: campaigns count resumes instead and never enable it,
	// and its one user is the benchmark's traced pass. time.Now/Since never
	// allocate, so the instrumented handoff stays inside the zero-alloc
	// steady state.
	measureWait bool
	waitNS      int64
}

// New returns a scheduler. The same instance is reused across executions via
// Reset; call Shutdown when discarding it so the pooled workers exit.
func New() *Scheduler { return &Scheduler{} }

// Reset prepares the scheduler for a new execution. It must only be called
// after the previous execution fully ended (all threads Finished, via normal
// completion or Abort); every pooled worker is parked then, so the recycled
// scheduler starts from a clean handoff state.
func (s *Scheduler) Reset() {
	s.threads = s.threads[:0]
	s.aborting = false
	s.waitNS = 0
	s.resumes = 0
}

// SetStep installs the tool's engine step, which a thread runs inline on its
// own coroutine from Call: the step picks a thread, executes its operation
// and returns the granted thread (nil when the execution is over). With no
// step (nil) the driver takes every step.
func (s *Scheduler) SetStep(step func() *Thread) { s.step = step }

// SetMeasureWait toggles handoff-wait timing for subsequent executions. Only
// the benchmark's traced pass turns it on (through core's SetHandoffTiming).
func (s *Scheduler) SetMeasureWait(on bool) { s.measureWait = on }

// WaitNS returns the accumulated handoff wait of the current (or last)
// execution: total time the tool spent resuming program threads until the
// turn came back, less the tool steps the threads ran inline meanwhile. Zero
// unless SetMeasureWait enabled timing.
func (s *Scheduler) WaitNS() int64 { return s.waitNS }

// Resumes returns the number of tool-side thread resumes of the current (or
// last) execution: one per driver Resume — a thread's start included — and
// one per started thread an abort unwinds. Spawning a thread and same-thread
// continuations inside Call are not resumes.
func (s *Scheduler) Resumes() int { return s.resumes }

// Threads returns all threads created so far, indexed by TID.
func (s *Scheduler) Threads() []*Thread { return s.threads }

// Ready appends to dst the threads that can be scheduled: those that wait
// with a pending operation and those not started yet.
func (s *Scheduler) Ready(dst []*Thread) []*Thread {
	for _, t := range s.threads {
		if t.state == Ready {
			dst = append(dst, t)
		}
	}
	return dst
}

// AliveCount returns the number of unfinished threads.
func (s *Scheduler) AliveCount() int {
	n := 0
	for _, t := range s.threads {
		if t.state != Finished {
			n++
		}
	}
	return n
}

// WorkerCount returns the number of live pooled workers (retired workers
// excluded). It is bounded by the widest execution the scheduler has run,
// plus one replacement per retirement — the invariant the pool stress tests
// assert.
func (s *Scheduler) WorkerCount() int {
	n := 0
	for _, t := range s.pool {
		if t.live {
			n++
		}
	}
	return n
}

// Spawns returns the number of workers the scheduler has ever started; it is
// constant across steady-state executions.
func (s *Scheduler) Spawns() int { return s.spawns }

// NewThread binds a managed thread to body and returns it unstarted: it is
// Ready with no pending operation, and body runs nothing until the driver
// first resumes the thread (see Resume). body receives the thread handle.
//
// The thread is served by the slot's parked worker; a worker is only started
// when the slot is new or its previous worker was retired. Either way the
// worker stays parked until that first resume.
func (s *Scheduler) NewThread(name string, body func(*Thread)) *Thread {
	idx := len(s.threads)
	if idx == len(s.pool) {
		s.pool = append(s.pool, &Thread{sched: s})
	}
	t := s.pool[idx]
	t.ID = memmodel.TID(idx)
	t.Name = name
	t.state = Ready
	t.pending = nil
	t.PanicValue = nil
	t.body = body
	s.threads = append(s.threads, t)
	if !t.live {
		s.spawns++
		t.live = true
		t.startFiber()
	}
	return t
}

// resume runs t until it parks again: on its next visible operation, at the
// end of its binding, or as its worker exits.
func (s *Scheduler) resume(t *Thread) {
	s.resumes++
	var t0 time.Time
	if s.measureWait {
		t0 = time.Now()
	}
	t.next()
	if s.measureWait {
		s.waitNS += int64(time.Since(t0))
	}
}

// Block marks t suspended. The tool must not grant a blocked thread until it
// completes the thread's pending operation.
func (s *Scheduler) Block(t *Thread) {
	if t.state != Ready {
		panic(fmt.Sprintf("sched: blocking %s thread %d", t.state, t.ID))
	}
	t.state = Blocked
}

// Grant marks t's pending operation as executed: t is Running and may go on
// to its next operation. Granting resumes nothing. A thread that granted
// itself from an inline step carries on by itself; any other granted thread
// runs when the driver resumes it.
func (s *Scheduler) Grant(t *Thread) {
	if t.state != Ready && t.state != Blocked {
		panic(fmt.Sprintf("sched: granting %s thread %d", t.state, t.ID))
	}
	if t.pending == nil {
		panic(fmt.Sprintf("sched: granting unstarted thread %d", t.ID))
	}
	t.pending = nil
	t.state = Running
}

// Resume is the driver's handoff: it runs t — a granted thread, or an
// unstarted one, which starts here — until the turn comes back: t parked on
// its next operation, finished, or took inline steps until one chose another
// thread. In that last case stepped is true and next is that
// step's choice, nil when the execution is over; a panic the step raised is
// re-raised here instead.
func (s *Scheduler) Resume(t *Thread) (next *Thread, stepped bool) {
	if t.state != Running && !t.Unstarted() {
		panic(fmt.Sprintf("sched: resuming %s thread %d", t.state, t.ID))
	}
	s.resume(t)
	next, stepped, r := s.chosen, s.stepped, s.stepPanic
	s.chosen, s.stepped, s.stepPanic = nil, false, nil
	if r != nil {
		panic(r)
	}
	return next, stepped
}

// Abort unwinds every unfinished thread. A thread that never started
// finishes without running: its worker has not left its park, and its binding
// is dropped. After Abort returns, all threads have finished and every pooled
// worker is parked again awaiting its next binding; the execution is over and
// the scheduler must not be used again until Reset recycles it for the next
// execution (Reset relies on exactly this all-settled state). Workers unwound
// by an abort are recycled — only a non-abort panic retires one.
func (s *Scheduler) Abort() {
	s.aborting = true
	for _, t := range s.threads {
		switch {
		case t.Unstarted():
			t.body = nil
			t.state = Finished
		case t.state != Finished:
			s.resume(t)
		}
	}
}

// Shutdown ends every pooled worker. Threads still parked mid-binding (an
// execution a propagating panic cut short) are unwound first. The scheduler
// must not run further executions afterwards; tools call it when an engine
// is closed so long-lived processes do not accumulate parked workers.
func (s *Scheduler) Shutdown() {
	s.Abort()
	for _, t := range s.pool {
		if t.live {
			t.body = nil
			s.resume(t)
		}
	}
	s.pool = nil
	s.threads = nil
}
