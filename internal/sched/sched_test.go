package sched

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// drive runs a trivial tool loop over the scheduler: process pending ops in
// the order pick() dictates until all threads finish. A picked thread that
// has not started is started first (see start). Each op's Val result is set
// to its own sequence in processing order.
func drive(t *testing.T, body func(*Thread), pick func([]*Thread) *Thread) []memmodel.Kind {
	t.Helper()
	s := New()
	var processed []memmodel.Kind
	s.NewThread("main", body)
	for {
		ready := s.Ready(nil)
		if len(ready) == 0 {
			if s.AliveCount() == 0 {
				return processed
			}
			t.Fatal("deadlock: threads alive but none ready")
		}
		th := pick(ready)
		if th.Unstarted() {
			start(t, s, th)
			continue
		}
		op := th.Pending()
		processed = append(processed, op.Kind)
		op.Val = memmodel.Value(len(processed))
		reply(s, th)
	}
}

func first(ready []*Thread) *Thread { return ready[0] }

// start is the driver's first resume of th, which NewThread left unstarted:
// th runs to its first operation (or to its end) and settles there.
func start(t *testing.T, s *Scheduler, th *Thread) State {
	t.Helper()
	if !th.Unstarted() {
		t.Fatalf("thread %d is %v with pending %v, want unstarted", th.ID, th.State(), th.Pending())
	}
	s.Resume(th)
	return th.State()
}

// mustNotRun is a thread body for threads that must never start.
func mustNotRun(t *testing.T) func(*Thread) {
	return func(th *Thread) { t.Errorf("thread %d (%s) ran", th.ID, th.Name) }
}

// reply is the driver's handoff with no inline step installed: grant th's
// pending operation and resume th until it settles again.
func reply(s *Scheduler, th *Thread) State {
	s.Grant(th)
	s.Resume(th)
	return th.State()
}

// driveInline runs main under an engine-shaped driver with step installed as
// the inline step: resume the thread the last step chose (granted, or picked
// unstarted), take its handed-off choice, or step on the driver when it
// returns without one.
func driveInline(s *Scheduler, main func(*Thread), step func() *Thread) {
	s.SetStep(step)
	s.NewThread("main", main)
	next := step()
	for next != nil {
		thr, stepped := s.Resume(next)
		if stepped {
			next = thr
		} else {
			next = step()
		}
	}
}

// TestInlineStepHandoff pins the inline path: a step that
// chooses another thread parks the caller and hands the choice to the
// driver; a thread spawned inside a step stays unstarted and runs nothing
// until the driver resumes it; and the step its first Call takes executes
// the operation it was picked for without picking again, so each start is
// the one resume that runs the thread's first operation. (Same-thread
// continuations are pinned end to end by core's
// TestInlineContinuationResumes.)
func TestInlineStepHandoff(t *testing.T) {
	s := New()
	var order []memmodel.TID
	var last, picked, child *Thread
	childRan := false
	step := func() *Thread {
		th := picked
		picked = nil
		if th == nil {
			ready := s.Ready(nil)
			if len(ready) == 0 {
				return nil
			}
			th = ready[0]
			if th == last && len(ready) > 1 {
				th = ready[1]
			}
			last = th
			if th.Unstarted() {
				picked = th
				return th
			}
		}
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
		s.Grant(th)
		return th
	}
	driveInline(s, func(th *Thread) {
		th.Call(&capi.Op{Kind: memmodel.KThreadCreate})
		th.Call(&capi.Op{Kind: memmodel.KYield})
		th.Call(&capi.Op{Kind: memmodel.KYield})
	}, step)
	want := []memmodel.TID{0, 1, 0, 1, 0}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("step order %v, want %v", order, want)
	}
	// One resume per handoff: main's start, the child's start, then main,
	// the child and main again after each step that chose the other thread.
	if s.AliveCount() != 0 || !childRan || s.Resumes() != 5 {
		t.Fatalf("%d threads alive, child ran %v, %d resumes; want 0, true, 5", s.AliveCount(), childRan, s.Resumes())
	}
	s.Shutdown()
}

// TestInlineStepPanicReachesDriver pins the failure path of an inline step:
// its panic is re-raised by the driver's Resume — not recorded as a panic of
// the program thread, whose worker stays pooled — and Abort then unwinds the
// thread that ran the step.
func TestInlineStepPanicReachesDriver(t *testing.T) {
	s := New()
	calls := 0
	s.SetStep(func() *Thread {
		if calls++; calls == 3 {
			panic("step failed")
		}
		th := s.Threads()[0]
		s.Grant(th)
		return th
	})
	main := s.NewThread("main", func(th *Thread) {
		for {
			th.Call(&capi.Op{Kind: memmodel.KLoad})
		}
	})
	func() {
		defer func() {
			if r := recover(); r != "step failed" {
				t.Fatalf("Resume panicked with %v, want the step's panic", r)
			}
		}()
		s.Resume(main)
		t.Fatal("Resume returned despite the step's panic")
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
	got := drive(t, func(th *Thread) {
		for _, k := range kinds {
			op := &capi.Op{Kind: k}
			th.Call(op)
			if op.Val == 0 {
				t.Error("result not delivered")
			}
		}
	}, first)
	if len(got) != len(kinds) {
		t.Fatalf("processed %d ops, want %d", len(got), len(kinds))
	}
	for i, k := range kinds {
		if got[i] != k {
			t.Fatalf("op %d = %v, want %v", i, got[i], k)
		}
	}
}

func TestBlockAndWake(t *testing.T) {
	s := New()
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
	s := New()
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
	s := New()
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
	s := New()
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
	s := New()
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
	s := New()
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
	s := New()
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
	s := New()
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
