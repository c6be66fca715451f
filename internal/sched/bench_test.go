package sched

import (
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// BenchmarkHandoff measures the paper's Figure 14 question: what one
// scheduler handoff costs as a user-level fiber switch versus as
// condition-variable sequencing on kernel threads. Each iteration runs one
// execution on a warm scheduler — Reset, spawn two threads that each issue
// handoffYields KYield operations, and reply to them alternately until both
// finish — so every handoff passes the turn to the other thread.
//
// A handoff is one resume: the tool hands the turn to a thread and waits
// until the thread parks on its next operation (or finishes). Spawning a
// thread runs it to its first operation, so each thread costs
// handoffYields+1 of them. The reported ns/handoff is the wall time of an
// iteration divided by its handoff count.
func BenchmarkHandoff(b *testing.B) {
	const (
		threads       = 2
		handoffYields = 32
		handoffs      = threads * (handoffYields + 1)
	)
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			s := New(r.cfg)
			defer s.Shutdown()
			// One op per thread slot, so the bodies allocate nothing.
			var ops [threads]capi.Op
			body := func(th *Thread) {
				op := &ops[th.ID]
				for i := 0; i < handoffYields; i++ {
					*op = capi.Op{Kind: memmodel.KYield}
					th.Call(op)
				}
			}
			execute := func() {
				s.Reset()
				for i := 0; i < threads; i++ {
					s.NewThread("yield", body)
				}
				for live := true; live; {
					live = false
					for _, th := range s.Threads() {
						if th.State() != Finished {
							s.Reply(th)
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
		})
	}
}
