package sched

import (
	"runtime"
	"sync"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

const (
	handoffThreads = 2
	handoffYields  = 32
	handoffOps     = handoffThreads * (handoffYields + 1)
)

// BenchmarkHandoff measures the paper's Figure 14 question: what one
// scheduler handoff costs as a user-level fiber switch versus as
// condition-variable sequencing on kernel threads, the regime of tsan11rec.
// Each fiber iteration runs one execution on a warm scheduler — Reset, spawn
// two threads that each issue handoffYields KYield operations, and drive
// them with an engine-shaped inline step until both finish.
//
// In the fiber row every step passes the turn to the other thread, so every
// operation after a thread's start is a handoff: the thread that took the
// step resumes the other directly, or unwinds to it when it is the fiber
// below, one coroutine switch either way. A handoff is one resume, and the
// reported ns/handoff is the wall time of an iteration divided by its
// resumes (Scheduler.Resumes).
//
// The fiber-inline row's step grants its caller, the case of a schedule that
// picks the thread that just ran. From its start on a thread runs every
// operation inline and returns to program code with no switch, so there a
// handoff is a same-thread continuation: its ns/handoff divides by the
// operations and starts, handoffOps.
//
// The kernel-thread row is the price of tsan11rec's handoff, which the
// scheduler does not implement: outcomes do not depend on the handoff, so
// README prices that regime as resumes times this number (see
// benchKernelHandoff).
func BenchmarkHandoff(b *testing.B) {
	b.Run("fiber", func(b *testing.B) { benchHandoff(b, true) })
	b.Run("fiber-inline", func(b *testing.B) { benchHandoff(b, false) })
	b.Run("kernel-thread", benchKernelHandoff)
}

func benchHandoff(b *testing.B, alternate bool) {
	s := New()
	defer s.Shutdown()
	// One op per thread slot, so the bodies allocate nothing.
	var ops [handoffThreads]capi.Op
	// caller is the thread whose Call takes the step; picked is an unstarted
	// thread whose first Call the next step dispatches.
	var caller, picked *Thread
	body := func(th *Thread) {
		op := &ops[th.ID]
		for i := 0; i < handoffYields; i++ {
			*op = capi.Op{Kind: memmodel.KYield}
			caller = th
			th.Call(op)
		}
	}
	other := func(th *Thread) *Thread { return s.Threads()[1-th.ID] }
	s.SetStep(func(done *Thread) *Thread {
		th := picked
		picked = nil
		switch {
		case th != nil:
		case done != nil:
			if th = other(done); th.State() == Finished {
				return nil
			}
		case alternate && other(caller).State() != Finished:
			th = other(caller)
		default:
			th = caller
		}
		if th.Unstarted() {
			picked = th
			return th
		}
		s.Grant(th)
		return th
	}, true)
	execute := func() {
		s.Reset()
		for i := 0; i < handoffThreads; i++ {
			s.NewThread("yield", body)
		}
		picked = s.Threads()[0]
		s.Drive(picked)
	}
	execute() // warm the pool: the workers start once
	handoffs := handoffOps
	if alternate {
		handoffs = s.Resumes()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execute()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*handoffs), "ns/handoff")
}

// benchKernelHandoff times the handoff of tsan11rec's kernel-thread
// sequencing, which the scheduler does not implement. A program thread runs
// on a goroutine pinned to its own kernel thread (runtime.LockOSThread), and
// the driver, an ordinary goroutine as the engine's is, passes it the turn
// through one condition variable. A handoff is one resume, as in the fiber
// rows: the driver hands the thread the turn and waits until the thread hands
// it back, a kernel context switch on each half. With two goroutines at most
// one waits at a time, so Signal always wakes the other.
func benchKernelHandoff(b *testing.B) {
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	threadTurn, done := false, false
	exited := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		defer close(exited)
		mu.Lock()
		defer mu.Unlock()
		for {
			for !threadTurn && !done {
				cond.Wait()
			}
			if done {
				return
			}
			threadTurn = false
			cond.Signal()
		}
	}()
	resume := func() {
		mu.Lock()
		threadTurn = true
		cond.Signal()
		for threadTurn {
			cond.Wait()
		}
		mu.Unlock()
	}
	for i := 0; i < 2*handoffOps; i++ { // warm both kernel threads
		resume()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*handoffOps; i++ {
		resume()
	}
	b.StopTimer()
	mu.Lock()
	done = true
	cond.Signal()
	mu.Unlock()
	<-exited
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*handoffOps), "ns/handoff")
}
