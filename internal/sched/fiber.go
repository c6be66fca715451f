//go:build go1.23

package sched

import "iter"

// startFiber gives t a fresh coroutine worker; the first resume runs it.
// Resuming a coroutine (next) and suspending it (yield) switch directly
// between the tool's goroutine and the worker's, bypassing the run queue.
func (t *Thread) startFiber() {
	t.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		t.serve()
	})
}
