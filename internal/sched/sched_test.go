package sched

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// engineStep returns a step shaped like the engine's: a picked thread that
// has not started is returned to be resumed, and the step its first Call
// takes dispatches its operation without picking again; any other picked
// thread has its pending operation dispatched (run, then granted). pick
// chooses among the ready threads, or returns nil to end the execution; the
// step also ends it when none is ready, failing t if some thread is still
// alive.
func engineStep(t *testing.T, s *Scheduler, pick func([]*Thread) *Thread, run func(*Thread)) func(*Thread) *Thread {
	var picked *Thread
	return func(*Thread) *Thread {
		th := picked
		picked = nil
		if th == nil {
			ready := s.Ready(nil)
			if len(ready) == 0 {
				if s.AliveCount() != 0 {
					t.Error("deadlock: threads alive but none ready")
				}
				return nil
			}
			if th = pick(ready); th == nil || th.Unstarted() {
				picked = th
				return th
			}
		}
		run(th)
		s.Grant(th)
		return th
	}
}

// drive runs body as the main thread under an engine-shaped step, inline or
// driver-stepped, processing pending ops in the order pick() dictates until
// all threads finish. Each op's Val result is set to its own sequence in
// processing order.
func drive(t *testing.T, inline bool, body func(*Thread), pick func([]*Thread) *Thread) []memmodel.Kind {
	t.Helper()
	s := New()
	defer s.Shutdown()
	var processed []memmodel.Kind
	step := engineStep(t, s, pick, func(th *Thread) {
		op := th.Pending()
		processed = append(processed, op.Kind)
		op.Val = memmodel.Value(len(processed))
	})
	s.SetStep(step, inline)
	s.NewThread("main", body)
	s.Drive(step(nil))
	return processed
}

func first(ready []*Thread) *Thread { return ready[0] }

// newDriven returns a driver-stepped scheduler whose step ends every Drive,
// for tests that take the tool's part by hand: each Drive runs one thread
// until it parks again, and the test grants or blocks it in between.
func newDriven() *Scheduler {
	s := New()
	s.SetStep(func(*Thread) *Thread { return nil }, false)
	return s
}

// start is the first Drive of th, which NewThread left unstarted: th runs
// to its first operation (or to its end) and settles there.
func start(t *testing.T, s *Scheduler, th *Thread) State {
	t.Helper()
	if !th.Unstarted() {
		t.Fatalf("thread %d is %v with pending %v, want unstarted", th.ID, th.State(), th.Pending())
	}
	s.Drive(th)
	return th.State()
}

// mustNotRun is a thread body for threads that must never start.
func mustNotRun(t *testing.T) func(*Thread) {
	return func(th *Thread) { t.Errorf("thread %d (%s) ran", th.ID, th.Name) }
}

// reply grants th's pending operation and drives th until it settles again.
func reply(s *Scheduler, th *Thread) State {
	s.Grant(th)
	s.Drive(th)
	return th.State()
}

// TestInlineStepHandoff pins the inline path: a step that chooses another
// thread passes it the turn from the caller's fiber; a thread spawned inside
// a step stays unstarted and runs nothing until the turn reaches it; and the
// step its first Call takes executes the operation it was picked for without
// picking again, so each start is the one resume that runs the thread's
// first operation. (Same-thread continuations are pinned end to end by
// core's TestInlineContinuationResumes.)
func TestInlineStepHandoff(t *testing.T) {
	s := New()
	var order []memmodel.TID
	var last, child *Thread
	childRan := false
	step := engineStep(t, s, func(ready []*Thread) *Thread {
		th := ready[0]
		if th == last && len(ready) > 1 {
			th = ready[1]
		}
		last = th
		return th
	}, func(th *Thread) {
		if th.Pending().Kind == memmodel.KThreadCreate {
			child = s.NewThread("child", func(th *Thread) {
				childRan = true
				th.Call(&capi.Op{Kind: memmodel.KYield})
				th.Call(&capi.Op{Kind: memmodel.KYield})
			})
			if !child.Unstarted() || childRan {
				t.Fatalf("child spawned by a step: state %v, ran %v; want unstarted, not run", child.State(), childRan)
			}
		}
		order = append(order, th.ID)
	})
	s.SetStep(step, true)
	s.NewThread("main", func(th *Thread) {
		th.Call(&capi.Op{Kind: memmodel.KThreadCreate})
		th.Call(&capi.Op{Kind: memmodel.KYield})
		th.Call(&capi.Op{Kind: memmodel.KYield})
	})
	s.Drive(step(nil))
	want := []memmodel.TID{0, 1, 0, 1, 0}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("step order %v, want %v", order, want)
	}
	// One resume per handoff: main's start, the child's start, then main,
	// the child and main again after each step that chose the other thread.
	// The first four cost a switch each. The fifth is main taking the step
	// after the child's finish, which the child's finishing park already
	// paid for; main's own finish parks once more.
	if s.AliveCount() != 0 || !childRan || s.Resumes() != 5 || s.Switches() != 6 {
		t.Fatalf("%d threads alive, child ran %v, %d resumes, %d switches; want 0, true, 5, 6",
			s.AliveCount(), childRan, s.Resumes(), s.Switches())
	}
	s.Shutdown()
}

// TestInlineStepPanicReachesDriver pins the failure path of an inline step:
// its panic is re-raised by Drive — not recorded as a panic of the program
// thread, whose worker stays pooled — and Abort then unwinds the thread that
// ran the step.
func TestInlineStepPanicReachesDriver(t *testing.T) {
	s := New()
	calls := 0
	s.SetStep(func(*Thread) *Thread {
		if calls++; calls == 3 {
			panic("step failed")
		}
		th := s.Threads()[0]
		s.Grant(th)
		return th
	}, true)
	main := s.NewThread("main", func(th *Thread) {
		for {
			th.Call(&capi.Op{Kind: memmodel.KLoad})
		}
	})
	func() {
		defer func() {
			if r := recover(); r != "step failed" {
				t.Fatalf("Drive panicked with %v, want the step's panic", r)
			}
		}()
		s.Drive(main)
		t.Fatal("Drive returned despite the step's panic")
	}()
	s.Abort()
	if main.State() != Finished || main.PanicValue != nil || s.WorkerCount() != 1 {
		t.Fatalf("after abort: state %v, panic %v, %d workers; want finished, none, 1",
			main.State(), main.PanicValue, s.WorkerCount())
	}
	s.Shutdown()
}

func TestSingleThreadOpsInOrder(t *testing.T) {
	kinds := []memmodel.Kind{memmodel.KLoad, memmodel.KStore, memmodel.KFence}
	for _, inline := range []bool{true, false} {
		got := drive(t, inline, func(th *Thread) {
			for _, k := range kinds {
				op := &capi.Op{Kind: k}
				th.Call(op)
				if op.Val == 0 {
					t.Error("result not delivered")
				}
			}
		}, first)
		if fmt.Sprint(got) != fmt.Sprint(kinds) {
			t.Fatalf("inline %v: processed %v, want %v", inline, got, kinds)
		}
	}
}

func TestBlockAndWake(t *testing.T) {
	s := newDriven()
	order := []string{}
	main := s.NewThread("main", func(th *Thread) {
		th.Call(&capi.Op{Kind: memmodel.KYield})
		order = append(order, "main-after-op")
	})
	// Main starts and parks on its op; block it, then wake it.
	if start(t, s, main) != Ready {
		t.Fatal("main must be ready")
	}
	s.Block(main)
	if main.State() != Blocked {
		t.Fatal("main must be blocked")
	}
	if got := s.Ready(nil); len(got) != 0 {
		t.Fatal("blocked thread must not be ready")
	}
	if st := reply(s, main); st != Finished {
		t.Fatalf("main should have finished, state %v", st)
	}
	if len(order) != 1 {
		t.Fatal("main body did not resume")
	}
}

func TestNestedSpawn(t *testing.T) {
	s := newDriven()
	var childSeen bool
	main := s.NewThread("main", func(th *Thread) {
		op := &capi.Op{Kind: memmodel.KThreadCreate}
		th.Call(op)
	})
	start(t, s, main)
	// Process main's spawn op by creating the child: the child is bound and
	// schedulable, but it runs nothing until its first resume.
	child := s.NewThread("child", func(th *Thread) {
		childSeen = true
		th.Call(&capi.Op{Kind: memmodel.KLoad})
	})
	if childSeen || !child.Unstarted() || child.ID != 1 || len(s.Ready(nil)) != 2 {
		t.Fatalf("child ran %v, state %v, id %d, %d ready; want an unstarted, schedulable thread 1",
			childSeen, child.State(), child.ID, len(s.Ready(nil)))
	}
	if st := reply(s, main); st != Finished {
		t.Fatalf("main state %v", st)
	}
	if st := start(t, s, child); st != Ready || !childSeen {
		t.Fatalf("child state %v after its start, ran %v", st, childSeen)
	}
	if st := reply(s, child); st != Finished {
		t.Fatalf("child state %v", st)
	}
}

func TestAbortUnwindsThreads(t *testing.T) {
	s := newDriven()
	cleanedUp := false
	main := s.NewThread("main", func(th *Thread) {
		defer func() { cleanedUp = true }()
		for {
			th.Call(&capi.Op{Kind: memmodel.KLoad})
		}
	})
	start(t, s, main)
	s.Abort()
	if s.AliveCount() != 0 {
		t.Fatal("all threads must be finished after abort")
	}
	if !cleanedUp {
		t.Fatal("thread defers must run during abort")
	}
	testAbortReadyAndBlocked(t, s)
}

// testAbortReadyAndBlocked aborts an execution holding one Ready, one
// Blocked and one unstarted thread on s, then checks that the first two
// unwound through their defers, that the unstarted one finished without
// running, that the abort resumed only the started threads, and that the
// next execution reuses all three workers.
func testAbortReadyAndBlocked(t *testing.T, s *Scheduler) {
	t.Helper()
	s.Reset()
	unwound := 0
	loop := func(th *Thread) {
		defer func() { unwound++ }()
		for {
			th.Call(&capi.Op{Kind: memmodel.KYield})
		}
	}
	ready := s.NewThread("ready", loop)
	blocked := s.NewThread("blocked", loop)
	unstarted := s.NewThread("unstarted", mustNotRun(t))
	start(t, s, ready)
	start(t, s, blocked)
	s.Block(blocked)
	if ready.State() != Ready || blocked.State() != Blocked || !unstarted.Unstarted() {
		t.Fatalf("states %v/%v/%v before abort, want ready/blocked/unstarted", ready.State(), blocked.State(), unstarted.State())
	}
	resumes := s.Resumes()
	s.Abort()
	if unwound != 2 || s.AliveCount() != 0 || s.Resumes() != resumes+2 {
		t.Fatalf("abort unwound %d threads with %d resumes, %d alive; want 2 unwound, 2 resumes, 0 alive",
			unwound, s.Resumes()-resumes, s.AliveCount())
	}
	if ready.PanicValue != nil || blocked.PanicValue != nil || unstarted.PanicValue != nil {
		t.Fatalf("abort surfaced as a panic: %v / %v / %v", ready.PanicValue, blocked.PanicValue, unstarted.PanicValue)
	}
	spawns := s.Spawns()
	s.Reset()
	for i := 0; i < 3; i++ {
		if st := start(t, s, s.NewThread("again", func(*Thread) {})); st != Finished {
			t.Fatalf("thread %d state %v after an empty body", i, st)
		}
	}
	if s.Spawns() != spawns || s.WorkerCount() != 3 {
		t.Fatalf("aborted workers not reused: spawns %d → %d, %d live", spawns, s.Spawns(), s.WorkerCount())
	}
	s.Shutdown()
}

func TestPanicCaptured(t *testing.T) {
	s := newDriven()
	th := s.NewThread("main", func(th *Thread) {
		panic("boom")
	})
	if start(t, s, th) != Finished {
		t.Fatal("panicking thread must settle as finished")
	}
	if th.PanicValue != "boom" {
		t.Fatalf("panic value %v", th.PanicValue)
	}
}

// TestFiberPoolReusesWorkers pins the pool invariant: after the first
// execution warms the pool, further executions start zero workers.
func TestFiberPoolReusesWorkers(t *testing.T) {
	s := newDriven()
	runOnce := func() {
		for i := 0; i < 3; i++ {
			s.NewThread("t", func(t *Thread) {
				t.Call(&capi.Op{Kind: memmodel.KYield})
			})
		}
		for _, th := range s.Threads() {
			start(t, s, th)
			reply(s, th)
		}
	}
	runOnce()
	warm := s.Spawns()
	if warm != 3 {
		t.Fatalf("first execution spawned %d goroutines, want 3", warm)
	}
	for i := 0; i < 5; i++ {
		s.Reset()
		runOnce()
	}
	if got := s.Spawns(); got != warm {
		t.Errorf("steady state spawned %d extra goroutines, want 0", got-warm)
	}
	if got := s.WorkerCount(); got != 3 {
		t.Errorf("worker count = %d, want 3", got)
	}
	s.Shutdown()
	if got := s.WorkerCount(); got != 0 {
		t.Errorf("worker count after shutdown = %d, want 0", got)
	}
}

// fiberGoroutines counts the goroutines currently serving as coroutine
// workers, started or not (the scheduler is this package's only iter.Pull
// user). Coroutine exit is synchronous with the final switch, so the count
// is exact as soon as the call that ended a worker returns.
func fiberGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by iter.Pull["))
}

// TestShutdownEndsCoroutines pins worker lifetime:
// Shutdown ends every coroutine — those parked between bindings, those
// still parked mid-binding and those whose thread never started — and the
// goroutine count returns to its baseline.
func TestShutdownEndsCoroutines(t *testing.T) {
	base := fiberGoroutines()
	s := newDriven()
	for i := 0; i < 4; i++ {
		th := s.NewThread("t", func(th *Thread) { th.Call(&capi.Op{Kind: memmodel.KYield}) })
		start(t, s, th)
	}
	s.NewThread("never", mustNotRun(t))
	if got := fiberGoroutines(); got != base+5 {
		t.Fatalf("coroutine goroutines = %d with 5 parked workers, want %d", got, base+5)
	}
	// Finish two bindings; the other two stay parked mid-binding.
	reply(s, s.Threads()[0])
	reply(s, s.Threads()[1])
	s.Shutdown()
	if got := fiberGoroutines(); got != base {
		t.Fatalf("coroutine goroutines = %d after Shutdown, want baseline %d", got, base)
	}
	if s.WorkerCount() != 0 {
		t.Fatalf("worker count %d after Shutdown", s.WorkerCount())
	}
}

// TestWorkerRetiredAfterPanic pins the retirement rule: a worker whose body
// escaped with a non-abort panic must not be recycled — its coroutine ends
// and the next execution replaces it with a fresh one — while abort unwinds
// keep workers pooled.
func TestWorkerRetiredAfterPanic(t *testing.T) {
	base := fiberGoroutines()
	s := newDriven()
	th := s.NewThread("bomb", func(th *Thread) {
		panic("boom")
	})
	if start(t, s, th) != Finished || th.PanicValue != "boom" {
		t.Fatalf("panicking thread state %v panic %v", th.State(), th.PanicValue)
	}
	if got := s.WorkerCount(); got != 0 {
		t.Fatalf("worker count after panic = %d, want 0 (retired)", got)
	}
	if got := fiberGoroutines(); got != base {
		t.Fatalf("coroutine goroutines = %d after the panic, want baseline %d (retired)", got, base)
	}
	spawnsAfterPanic := s.Spawns()

	// The slot must be served by a fresh worker on the next execution, and
	// the panic must not leak into it.
	s.Reset()
	th2 := s.NewThread("clean", func(th *Thread) {
		th.Call(&capi.Op{Kind: memmodel.KYield})
	})
	if th2.PanicValue != nil {
		t.Fatalf("recycled panic value %v on fresh binding", th2.PanicValue)
	}
	if s.Spawns() != spawnsAfterPanic+1 {
		t.Fatalf("replacement worker not spawned: spawns %d → %d", spawnsAfterPanic, s.Spawns())
	}
	start(t, s, th2)
	if st := reply(s, th2); st != Finished {
		t.Fatalf("clean thread state %v", st)
	}
	if got := s.WorkerCount(); got != 1 {
		t.Fatalf("worker count = %d, want 1", got)
	}

	// Abort unwinds, by contrast, recycle the worker.
	s.Reset()
	start(t, s, s.NewThread("loop", func(th *Thread) {
		for {
			th.Call(&capi.Op{Kind: memmodel.KLoad})
		}
	}))
	s.Abort()
	if got := s.WorkerCount(); got != 1 {
		t.Fatalf("worker count after abort = %d, want 1 (abort must not retire)", got)
	}
	spawns := s.Spawns()
	s.Reset()
	s.NewThread("again", func(th *Thread) {})
	if s.Spawns() != spawns {
		t.Fatal("aborted worker was not reused")
	}
	s.Shutdown()
}

func TestSchedulerResetRecyclesThreads(t *testing.T) {
	s := newDriven()
	runOnce := func(wantRecycled []*Thread) []*Thread {
		var handles []*Thread
		for i := 0; i < 3; i++ {
			th := s.NewThread("t", func(t *Thread) {
				t.Call(&capi.Op{Kind: memmodel.KYield})
			})
			handles = append(handles, th)
			if wantRecycled != nil && th != wantRecycled[i] {
				t.Fatalf("thread %d not recycled after Reset", i)
			}
		}
		for _, th := range handles {
			if st := start(t, s, th); st != Ready {
				t.Fatalf("thread %d state %v, want ready", th.ID, st)
			}
			if st := reply(s, th); st != Finished {
				t.Fatalf("thread %d state after reply %v, want finished", th.ID, st)
			}
		}
		return handles
	}
	first := runOnce(nil)
	s.Reset()
	if len(s.Threads()) != 0 {
		t.Fatalf("Reset must clear the thread list, got %d", len(s.Threads()))
	}
	runOnce(first)
}

// stackProgram binds the scripted four-thread program the stacked-handoff
// tests run, inline or driver-stepped: main spawns three children, then yields twice, and each
// child yields twice — except child bomb (0: none), which panics after its
// first yield. The step is engine-shaped (see engineStep) and picks the
// threads in the order script lists them, after which it ends the
// execution. hook, when set, runs before each dispatch, on whichever fiber
// took the step, and may panic; count is its 1-based dispatch number.
func stackProgram(t *testing.T, s *Scheduler, inline bool, script []memmodel.TID, bomb memmodel.TID, hook func(count int)) []memmodel.TID {
	var order []memmodel.TID
	child := func(th *Thread) {
		th.Call(&capi.Op{Kind: memmodel.KYield})
		if th.ID == bomb {
			panic("boom")
		}
		th.Call(&capi.Op{Kind: memmodel.KYield})
	}
	step := engineStep(t, s, func([]*Thread) *Thread {
		if len(script) == 0 {
			return nil
		}
		th := s.Threads()[script[0]]
		script = script[1:]
		return th
	}, func(th *Thread) {
		order = append(order, th.ID)
		if hook != nil {
			hook(len(order))
		}
		if th.Pending().Kind == memmodel.KThreadCreate {
			s.NewThread("child", child)
		}
	})
	s.SetStep(step, inline)
	s.NewThread("main", func(th *Thread) {
		for i := 0; i < 3; i++ {
			th.Call(&capi.Op{Kind: memmodel.KThreadCreate})
		}
		th.Call(&capi.Op{Kind: memmodel.KYield})
		th.Call(&capi.Op{Kind: memmodel.KYield})
	})
	s.Drive(step(nil))
	return order
}

// stackScript is stackProgram's full schedule. Each thread resumes the next
// one directly until the stack holds main, child 1, child 2 and child 3; the
// step child 3 takes next picks main, three fibers down, and 3, 2 and 1
// unwind to it. Main then resumes 3, and each child's finish leaves the step
// to main, which resumes the next child, and at last itself. A thread's
// first operation is dispatched by the step it takes on starting, which
// picks nothing, so the dispatch order equals the script.
var stackScript = []memmodel.TID{0, 0, 0, 1, 2, 3, 0, 3, 2, 1, 0}

// stackDepth counts the fibers below the top of the stack.
func stackDepth(s *Scheduler) int {
	n := 0
	for _, th := range s.Threads() {
		if th.resuming {
			n++
		}
	}
	return n
}

// TestStackedUnwind pins the turn's path through a stack of four fibers: it
// reaches a thread three fibers down by unwinding, and every arrival counts
// one resume — nine, as many as a driver resuming each step's choice would
// count — for fourteen switches where the driver's round trips took
// eighteen.
func TestStackedUnwind(t *testing.T) {
	s := New()
	defer s.Shutdown()
	depth := -1
	order := stackProgram(t, s, true, stackScript, 0, func(count int) {
		if count == 7 { // child 3's step dispatches main's first yield
			depth = stackDepth(s)
		}
	})
	if fmt.Sprint(order) != fmt.Sprint(stackScript) {
		t.Fatalf("dispatch order %v, want %v", order, stackScript)
	}
	if depth != 3 {
		t.Fatalf("%d fibers below the step that picked main, want 3", depth)
	}
	if s.AliveCount() != 0 || stackDepth(s) != 0 || s.Resumes() != 9 || s.Switches() != 14 {
		t.Fatalf("%d alive, depth %d, %d resumes, %d switches; want 0, 0, 9, 14",
			s.AliveCount(), stackDepth(s), s.Resumes(), s.Switches())
	}
}

// TestStackedStepPanic raises a step's panic on the top of a full stack (the
// engine's InfeasibleError path): it unwinds every fiber to Drive, which
// re-raises it; Abort then unwinds the four threads, none of which records a
// program panic, and the next execution reuses all four workers.
func TestStackedStepPanic(t *testing.T) {
	s := New()
	defer s.Shutdown()
	depth := -1
	func() {
		defer func() {
			if r := recover(); r != "step failed" {
				t.Fatalf("Drive panicked with %v, want the step's panic", r)
			}
		}()
		stackProgram(t, s, true, stackScript, 0, func(count int) {
			if count == 7 {
				depth = stackDepth(s)
				panic("step failed")
			}
		})
		t.Fatal("Drive returned despite the step's panic")
	}()
	if depth != 3 || stackDepth(s) != 0 {
		t.Fatalf("panic raised %d fibers deep, %d left below after Drive; want 3, 0", depth, stackDepth(s))
	}
	testStackAborted(t, s)
}

// TestStackedAbort ends an execution the way a deadlock or the step limit
// does, with a step that returns nil on the top of a full stack: the stack
// unwinds to Drive, which returns, and Abort unwinds the four threads.
func TestStackedAbort(t *testing.T) {
	s := New()
	defer s.Shutdown()
	depth := -1
	stackProgram(t, s, true, stackScript[:6], 0, func(count int) {
		if count == 6 { // child 3's start; its next step ends the execution
			depth = stackDepth(s)
		}
	})
	if depth != 3 || stackDepth(s) != 0 {
		t.Fatalf("execution ended %d fibers deep, %d left below after Drive; want 3, 0", depth, stackDepth(s))
	}
	testStackAborted(t, s)
}

// testStackAborted aborts stackProgram's four unfinished threads on s, with
// one resume each and no program panic recorded, and checks that the next
// execution reuses every worker.
func testStackAborted(t *testing.T, s *Scheduler) {
	t.Helper()
	if s.AliveCount() != 4 {
		t.Fatalf("%d threads alive before the abort, want 4", s.AliveCount())
	}
	resumes := s.Resumes()
	s.Abort()
	if s.AliveCount() != 0 || s.Resumes() != resumes+4 {
		t.Fatalf("abort left %d alive with %d resumes; want 0 alive, 4 resumes", s.AliveCount(), s.Resumes()-resumes)
	}
	for _, th := range s.Threads() {
		if th.PanicValue != nil {
			t.Fatalf("thread %d recorded panic %v", th.ID, th.PanicValue)
		}
	}
	spawns := s.Spawns()
	s.Reset()
	stackProgram(t, s, true, stackScript, 0, nil)
	if s.AliveCount() != 0 || s.Spawns() != spawns || s.WorkerCount() != 4 {
		t.Fatalf("next execution: %d alive, spawns %d → %d, %d workers; want 0, unchanged, 4",
			s.AliveCount(), spawns, s.Spawns(), s.WorkerCount())
	}
}

// TestStackedRetire lets child 3 panic on the top of the stack: its worker
// retires, the fiber below it (child 2) takes the step after its finish and
// unwinds to main, and the execution completes. The next execution replaces
// the retired worker and reuses the other three.
func TestStackedRetire(t *testing.T) {
	base := fiberGoroutines()
	s := New()
	depth := -1
	// After 3's panic: 2 dispatches main's first yield, main resumes 2, and
	// each finish leaves the step to main.
	script := []memmodel.TID{0, 0, 0, 1, 2, 3, 0, 2, 1, 0}
	order := stackProgram(t, s, true, script, 3, func(count int) {
		if count == 7 {
			depth = stackDepth(s)
		}
	})
	if fmt.Sprint(order) != fmt.Sprint(script) {
		t.Fatalf("dispatch order %v, want %v", order, script)
	}
	bomb := s.Threads()[3]
	if depth != 2 || s.AliveCount() != 0 || bomb.PanicValue != "boom" || s.WorkerCount() != 3 {
		t.Fatalf("step after the panic %d fibers deep, %d alive, panic %v, %d workers; want 2, 0, boom, 3",
			depth, s.AliveCount(), bomb.PanicValue, s.WorkerCount())
	}
	spawns := s.Spawns()
	s.Reset()
	stackProgram(t, s, true, stackScript, 0, nil)
	if s.AliveCount() != 0 || s.Spawns() != spawns+1 || s.WorkerCount() != 4 {
		t.Fatalf("next execution: %d alive, spawns %d → %d, %d workers; want 0, one more, 4",
			s.AliveCount(), spawns, s.Spawns(), s.WorkerCount())
	}
	s.Shutdown()
	if got := fiberGoroutines(); got != base {
		t.Fatalf("coroutine goroutines = %d after Shutdown, want baseline %d", got, base)
	}
}

// TestShutdownAfterCutShort shuts a scheduler down straight after a step's
// panic cut an execution short, with no Abort: Shutdown unwinds the four
// parked threads and ends every coroutine.
func TestShutdownAfterCutShort(t *testing.T) {
	base := fiberGoroutines()
	s := New()
	func() {
		defer func() { recover() }()
		stackProgram(t, s, true, stackScript, 0, func(count int) {
			if count == 7 {
				panic("step failed")
			}
		})
	}()
	if got := fiberGoroutines(); got != base+4 {
		t.Fatalf("coroutine goroutines = %d with 4 parked workers, want %d", got, base+4)
	}
	s.Shutdown()
	if got := fiberGoroutines(); got != base || s.WorkerCount() != 0 {
		t.Fatalf("after Shutdown: %d coroutine goroutines, %d workers; want baseline %d, 0", got, s.WorkerCount(), base)
	}
}

// TestDriverSteppedDrive runs stackProgram driver-stepped, through the same
// Drive: the dispatch order is the inline one, but every thread parks to the
// driver on every operation, so no fiber ever stacks, and a resume is a round
// trip of two switches. It resumes once per granted operation and once per
// thread start — 11 + 4 — where inline took 9.
func TestDriverSteppedDrive(t *testing.T) {
	s := New()
	defer s.Shutdown()
	depth := 0
	order := stackProgram(t, s, false, stackScript, 0, func(int) { depth = max(depth, stackDepth(s)) })
	if fmt.Sprint(order) != fmt.Sprint(stackScript) {
		t.Fatalf("dispatch order %v, want %v", order, stackScript)
	}
	if depth != 0 || s.AliveCount() != 0 || s.Resumes() != 15 || s.Switches() != 30 {
		t.Fatalf("depth %d, %d alive, %d resumes, %d switches; want 0, 0, 15, 30",
			depth, s.AliveCount(), s.Resumes(), s.Switches())
	}
}
