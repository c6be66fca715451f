package sched

import (
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
// condition-variable sequencing on kernel threads. Each iteration runs one
// execution on a warm scheduler — Reset, spawn two threads that each issue
// handoffYields KYield operations, and grant and resume them alternately
// until both finish — so every handoff passes the turn to the other thread.
//
// A handoff is one resume: the driver hands the turn to a thread and waits
// until the thread parks on its next operation (or finishes). A thread's
// first resume starts it and runs it to its first operation, so each thread
// costs handoffYields+1 of them. The reported ns/handoff is the wall time of
// an iteration divided by its handoff count.
//
// The fiber-inline row is the fiber regime with an inline step installed
// that grants its caller, the case of a schedule that picks the thread that
// just ran. From its first resume on a thread runs every operation inline
// and returns to program code with no switch, so there a handoff is a
// same-thread continuation, at the same handoff count.
func BenchmarkHandoff(b *testing.B) {
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) { benchHandoff(b, r.cfg, false) })
	}
	b.Run("fiber-inline", func(b *testing.B) { benchHandoff(b, Config{}, true) })
}

func benchHandoff(b *testing.B, cfg Config, inline bool) {
	s := New(cfg)
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
