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
	handoffs       = handoffThreads * (handoffYields + 1)
)

// BenchmarkHandoff measures the paper's Figure 14 question: what one
// scheduler handoff costs as a user-level fiber switch versus as
// condition-variable sequencing on kernel threads, the regime of tsan11rec.
// Each fiber iteration runs one execution on a warm scheduler — Reset, spawn
// two threads that each issue handoffYields KYield operations, and grant and
// resume them alternately until both finish — so every handoff passes the
// turn to the other thread.
//
// A handoff is one resume: the driver hands the turn to a thread and waits
// until the thread parks on its next operation (or finishes). A thread's
// first resume starts it and runs it to its first operation, so each thread
// costs handoffYields+1 of them. The reported ns/handoff is the wall time of
// an iteration divided by its handoff count.
//
// The fiber-inline row installs an inline step that grants its caller, the
// case of a schedule that picks the thread that just ran. From its first
// resume on a thread runs every operation inline and returns to program code
// with no switch, so there a handoff is a same-thread continuation, at the
// same handoff count.
//
// The kernel-thread row is the price of tsan11rec's handoff, which the
// scheduler does not implement: outcomes do not depend on the handoff, so
// README prices that regime as resumes times this number (see
// benchKernelHandoff).
func BenchmarkHandoff(b *testing.B) {
	b.Run("fiber", func(b *testing.B) { benchHandoff(b, false) })
	b.Run("fiber-inline", func(b *testing.B) { benchHandoff(b, true) })
	b.Run("kernel-thread", benchKernelHandoff)
}

func benchHandoff(b *testing.B, inline bool) {
	s := New()
	defer s.Shutdown()
	// One op per thread slot, so the bodies allocate nothing.
	var ops [handoffThreads]capi.Op
	var caller *Thread
	body := func(th *Thread) {
		op := &ops[th.ID]
		for i := 0; i < handoffYields; i++ {
			*op = capi.Op{Kind: memmodel.KYield}
			caller = th
			th.Call(op)
		}
	}
	if inline {
		s.SetStep(func() *Thread {
			s.Grant(caller)
			return caller
		})
	}
	execute := func() {
		s.Reset()
		for i := 0; i < handoffThreads; i++ {
			s.NewThread("yield", body)
		}
		for live := true; live; {
			live = false
			for _, th := range s.Threads() {
				if th.State() != Finished {
					if !th.Unstarted() {
						s.Grant(th)
					}
					s.Resume(th)
					live = true
				}
			}
		}
	}
	execute() // warm the pool: the workers start once
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
	for i := 0; i < 2*handoffs; i++ { // warm both kernel threads
		resume()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N*handoffs; i++ {
		resume()
	}
	b.StopTimer()
	mu.Lock()
	done = true
	cond.Signal()
	mu.Unlock()
	<-exited
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*handoffs), "ns/handoff")
}
