// Package sched implements the controlled scheduler that stands in for
// C11Tester's fibers (Sections 7.3–7.4 of the paper).
//
// Every thread of the program under test runs on its own worker, but at most
// one of them executes at a time: a thread runs until its next visible
// operation and hands the operation to the tool, which decides who runs next.
// The tool (engine) therefore has full control of the interleaving, exactly
// like C11Tester's fiber scheduler.
//
// The thread that holds the turn takes the tool's steps itself, on its own
// coroutine (Thread.Call runs the step the tool installed with SetStep).
// While a step grants the thread that took it, the thread goes straight back
// to program code with no switch at all. When a step picks another thread,
// the fiber passes the turn on itself: a thread that is parked or not yet
// started is resumed from the fiber, which stays below it, so the driver
// (Drive) is only the bottom of a stack of fibers. A thread already in that
// stack gets the turn back by unwinding: each fiber above it parks to the
// fiber that resumed it. Either way a handoff costs one coroutine switch,
// where a round trip through the driver cost two. The stack holds only
// threads that have not finished, so it is at most as deep as the program
// has live threads. A finished thread parks too, and the fiber below it takes
// the next step, handling the finish first. A panic a step raises on a fiber
// unwinds the whole stack, and Drive re-raises it at the driver.
//
// Driver-stepped (SetStep with inline off, a test-only reference) every
// thread parks on every operation and the driver takes each step. That is
// the schedule of tsan11rec's kernel-thread sequencing; one step function
// decides either way, so both run the same interleavings.
//
// A new thread is bound but not run. NewThread makes it schedulable at once —
// Ready, with no pending operation (Unstarted) — and it first runs when the
// turn reaches it after a step picked it. Its first Call then hands the tool
// the operation it was picked for, so starting a thread costs no handoff of
// its own: as in C11Tester, a thread's start is a scheduling point.
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
// coroutine switch that never passes through the Go run queue — the
// analogue of C11Tester's swapcontext fibers. The paper's Figure 14 compares
// this with tsan11rec's kernel-thread sequencing, where every handoff is an
// OS context switch; outcomes do not depend on the handoff, so that
// comparison is a price per handoff, which BenchmarkHandoff measures for
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

	// resuming reports that t is in the fiber stack below its top: it
	// resumed the thread above it and waits for the turn to come back.
	resuming bool

	// next resumes the worker coroutine (resumer side), yield suspends it
	// (thread side), returning the turn to whoever resumed it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool

	// PanicValue records a non-abort panic that escaped the thread's
	// function, so the tool can surface it instead of crashing the host.
	PanicValue any
}

// State returns the thread's scheduling state. Only the thread holding the
// turn may call it.
func (t *Thread) State() State { return t.state }

// Pending returns the operation the thread is waiting on (nil once granted,
// and before the thread started).
func (t *Thread) Pending() *capi.Op { return t.pending }

// Unstarted reports whether t is bound but has not run yet: it is Ready with
// no pending operation until the turn first reaches it.
func (t *Thread) Unstarted() bool { return t.state == Ready && t.pending == nil }

// Call hands op to the tool and returns once the tool has executed it. It
// must be called from t's own worker. If the execution is aborting, Call
// unwinds the thread instead of returning.
//
// Call runs the tool's step on t's own coroutine; for a thread's first Call
// that is the step that dispatches the operation the thread was picked for.
// If the step granted t, Call returns without a switch; otherwise t passes
// the turn to the thread the step chose and returns when the turn comes back
// to it. Driver-stepped, t parks and the driver steps.
func (t *Thread) Call(op *capi.Op) {
	s := t.sched
	if s.aborting {
		panic(abortSignal{})
	}
	t.pending = op
	t.state = Ready
	switch {
	case !s.inline:
		t.park()
	case s.takeStep(nil) != t:
		s.pass(t)
	}
	if s.aborting {
		panic(abortSignal{})
	}
}

// takeStep takes one tool step and leaves its choice in turn. done is the
// thread that just finished, whose finish the step handles first, or nil. A
// step may run on a program fiber, where a panic it raised would pass for a
// panic of the program: it is recovered here instead and left in stepPanic,
// with turn nil so that the fiber stack unwinds to the driver, and Drive
// re-raises it. The step's time is taken out of the handoff wait Drive
// measures, so the wait keeps counting only switches and program code.
func (s *Scheduler) takeStep(done *Thread) *Thread {
	var t0 time.Time
	if s.measureWait {
		t0 = time.Now()
	}
	defer func() {
		if s.measureWait {
			s.waitNS -= int64(time.Since(t0))
		}
		if r := recover(); r != nil {
			s.turn, s.stepPanic = nil, r
		}
	}()
	s.turn = s.step(done)
	return s.turn
}

// pass carries the last step's choice (turn) from self, the top of the fiber
// stack (nil: the driver, with no fiber running), to the chosen thread, and
// returns once the turn is back at self. A chosen thread that is parked or
// unstarted is resumed from here, and self stays below it until it parks
// again. A chosen thread further down the stack, or the end of the execution
// (nil), is reached by unwinding: self parks, and the fiber below goes on
// passing. A thread that parks after finishing, or driver-stepped after
// reaching its next operation, leaves the next step to self.
//
// Every arrival of the turn at a thread a step chose counts one resume,
// whether the thread was resumed directly or unwound to.
func (s *Scheduler) pass(self *Thread) {
	for next := s.turn; next != self; next = s.turn {
		if next == nil || next.resuming {
			self.park()
			return
		}
		if next.state != Running && !next.Unstarted() {
			panic(fmt.Sprintf("sched: resuming %s thread %d", next.state, next.ID))
		}
		s.resumes++
		if self != nil {
			self.resuming = true
		}
		s.resume(next)
		if self != nil {
			self.resuming = false
		}
		switch {
		case next.state == Finished:
			s.takeStep(next)
		case !s.inline:
			s.takeStep(nil)
		}
	}
	if self != nil {
		s.resumes++
	}
}

// serve is the body of a worker: run the bound function, park as Finished,
// and repeat for every new binding, until Shutdown clears the binding or a
// non-abort panic retires the worker. A retired worker's stack may have
// unwound through arbitrary program state, so it is replaced rather than
// recycled (the tool observes the retirement through Thread.PanicValue).
// The worker's exit hands the turn back like a park.
func (t *Thread) serve() {
	for t.body != nil && !t.runOnce() {
		t.park()
	}
	t.live = false
	t.sched.switches++
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

// park hands the turn back to the thread (or driver) that resumed t, and
// returns when t is resumed again.
func (t *Thread) park() {
	t.sched.switches++
	t.yield(struct{}{})
}

// resume switches to t's coroutine and returns when t parks again: on its
// next visible operation, at the end of its binding, as its worker exits, or
// to pass the turn further down the stack.
func (s *Scheduler) resume(t *Thread) {
	s.switches++
	t.next()
}

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

	// step is the tool's engine step (see SetStep); inline says whether the
	// thread reaching an operation takes it (the engine's way) or the driver
	// does.
	step   func(done *Thread) *Thread
	inline bool

	// turn is the last step's choice on its way down the fiber stack to the
	// thread it names (nil: the execution is over); stepPanic is the panic
	// a step raised, for Drive to re-raise once the stack has unwound.
	turn      *Thread
	stepPanic any

	// resumes counts the execution's arrivals of the turn at a thread a step
	// chose (see pass) and abort unwinds; switches counts its coroutine
	// switches, resumes and parks alike.
	resumes, switches int

	// measureWait, when set, times Drive — the driver's wait while the turn
	// is on the program's fibers — accumulating into waitNS, and takes every
	// step out of it. Opt-in because it costs two monotonic clock reads per
	// step, which is most of what it measures: campaigns count resumes
	// instead and never enable it, and its one user is the benchmark's
	// traced pass. time.Now/Since never allocate, so the instrumented
	// handoff stays inside the zero-alloc steady state.
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
	s.resumes, s.switches = 0, 0
}

// SetStep installs the tool's engine step: it handles the finish of done
// when done is set, picks a thread, executes its operation and returns the
// granted thread — or an unstarted one it picked, whose first Call the next
// step dispatches — and nil when the execution is over. Inline, a thread
// takes the step from Call on its own coroutine; otherwise (driver-stepped,
// a test-only reference) every thread parks on every operation and the
// driver takes each step.
func (s *Scheduler) SetStep(step func(done *Thread) *Thread, inline bool) {
	s.step, s.inline = step, inline
}

// SetMeasureWait toggles handoff-wait timing for subsequent executions. Only
// the benchmark's traced pass turns it on (through core's SetHandoffTiming).
func (s *Scheduler) SetMeasureWait(on bool) { s.measureWait = on }

// WaitNS returns the accumulated handoff wait of the current (or last)
// execution: the time the driver spent in Drive while the turn was on the
// program's fibers, less every step taken meanwhile, wherever it ran. Zero
// unless SetMeasureWait enabled timing.
func (s *Scheduler) WaitNS() int64 { return s.waitNS }

// Resumes returns the number of thread resumes of the current (or last)
// execution: one each time the turn reaches a thread a step chose — by a
// direct resume, by unwinding the fiber stack, or as the fiber below a
// finished thread takes the next step and keeps the turn — thread starts
// included, and one per started thread an abort unwinds. Spawning a thread
// and same-thread continuations inside Call are not resumes.
func (s *Scheduler) Resumes() int { return s.resumes }

// Switches returns the number of coroutine switches of the current (or
// last) execution: resumes and parks, unwinding included. Tests pin a
// handoff's cost with it; the engine reports Resumes only.
func (s *Scheduler) Switches() int { return s.switches }

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
// Ready with no pending operation, and body runs nothing until a step picks
// the thread and the turn reaches it. body receives the thread handle.
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
// runs when the step returns it and the turn reaches it.
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

// Drive runs an execution from the driver: it hands the turn to next, the
// choice of the tool's first step (a granted thread, or an unstarted one,
// which starts here), and returns once a step ends the execution. Every
// later step is taken on the program's fibers, which pass the turn among
// themselves (see pass); the driver takes a step only when the thread at the
// bottom of the stack finishes, or driver-stepped. A panic a step raised is
// re-raised here, once the fiber stack has unwound.
func (s *Scheduler) Drive(next *Thread) {
	var t0 time.Time
	if s.measureWait {
		t0 = time.Now()
	}
	s.turn = next
	s.pass(nil)
	if s.measureWait {
		s.waitNS += int64(time.Since(t0))
	}
	if r := s.stepPanic; r != nil {
		s.stepPanic = nil
		panic(r)
	}
}

// Abort unwinds every unfinished thread. It runs on the driver once Drive
// returned or panicked, so no fiber is running. A thread that never started
// finishes without running: its worker has not left its park, and its
// binding is dropped. After Abort returns, all threads have finished and
// every pooled worker is parked again awaiting its next binding; the
// execution is over and the scheduler must not be used again until Reset
// recycles it for the next execution (Reset relies on exactly this
// all-settled state). Workers unwound by an abort are recycled — only a
// non-abort panic retires one.
func (s *Scheduler) Abort() {
	s.aborting = true
	for _, t := range s.threads {
		switch {
		case t.Unstarted():
			t.body = nil
			t.state = Finished
		case t.state != Finished:
			s.resumes++
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
