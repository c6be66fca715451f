package trace

import (
	"fmt"

	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

// Recorder wraps an exploration strategy and logs every choice it makes.
// Interposed via Engine.SetStrategy, it captures the complete Schedule of
// each execution; Seed (called by Engine.Execute) starts a fresh log, so one
// Recorder serves a whole run of executions.
type Recorder struct {
	inner core.Strategy
	sched Schedule
}

// NewRecorder wraps inner (nil means the default random strategy).
func NewRecorder(inner core.Strategy) *Recorder {
	if inner == nil {
		inner = core.NewRandomStrategy()
	}
	return &Recorder{inner: inner}
}

// Seed implements core.Strategy: re-seed the inner strategy and reset the
// log, keeping its arrays — Schedule copies out — so a warm Recorder logs an
// execution without allocating.
func (r *Recorder) Seed(seed int64) {
	r.inner.Seed(seed)
	r.sched.Threads = r.sched.Threads[:0]
	r.sched.Indices = r.sched.Indices[:0]
}

// PickThread implements core.Strategy.
func (r *Recorder) PickThread(ready []*core.ThreadState) *core.ThreadState {
	t := r.inner.PickThread(ready)
	r.sched.Threads = append(r.sched.Threads, int32(t.ID))
	return t
}

// PickIndex implements core.Strategy.
func (r *Recorder) PickIndex(n int) int {
	i := r.inner.PickIndex(n)
	r.sched.Indices = append(r.sched.Indices, int32(i))
	return i
}

// Schedule returns a copy of the choices recorded since the last Seed.
func (r *Recorder) Schedule() Schedule {
	return Schedule{
		Threads: append([]int32(nil), r.sched.Threads...),
		Indices: append([]int32(nil), r.sched.Indices...),
	}
}

// Replayer is a strategy that re-drives a recorded Schedule. When the
// recorded stream is exhausted or names a choice the current execution
// cannot take (a thread that is not ready, an index out of range) it falls
// back to a fixed deterministic choice — first ready thread, index 0 — and
// notes the first such divergence. An exact replay of an unedited trace never
// diverges; minimization relies on the tolerant fallback to run truncated
// schedules to completion.
type Replayer struct {
	sched Schedule
	ti    int
	ii    int

	// effective logs the choices actually taken, fallbacks included; it is
	// the canonical schedule of the replayed execution.
	effective Schedule
	diverged  string
}

// NewReplayer returns a Replayer for sched.
func NewReplayer(sched Schedule) *Replayer {
	return &Replayer{sched: sched}
}

// Seed implements core.Strategy: rewind to the start of the schedule.
func (r *Replayer) Seed(int64) {
	r.ti, r.ii = 0, 0
	r.effective = Schedule{}
	r.diverged = ""
}

func (r *Replayer) note(format string, args ...any) {
	if r.diverged == "" {
		r.diverged = fmt.Sprintf(format, args...)
	}
}

// PickThread implements core.Strategy.
func (r *Replayer) PickThread(ready []*core.ThreadState) *core.ThreadState {
	if r.ti < len(r.sched.Threads) {
		want := memmodel.TID(r.sched.Threads[r.ti])
		r.ti++
		for _, t := range ready {
			if t.ID == want {
				r.effective.Threads = append(r.effective.Threads, int32(t.ID))
				return t
			}
		}
		r.note("recorded thread %d not ready at scheduling point %d", want, r.ti-1)
	} else {
		r.note("thread schedule exhausted after %d choices", len(r.sched.Threads))
	}
	t := ready[0]
	r.effective.Threads = append(r.effective.Threads, int32(t.ID))
	return t
}

// PickIndex implements core.Strategy.
func (r *Replayer) PickIndex(n int) int {
	i := 0
	if r.ii < len(r.sched.Indices) {
		rec := int(r.sched.Indices[r.ii])
		r.ii++
		if rec < n {
			i = rec
		} else {
			r.note("recorded index %d out of range %d at choice point %d", rec, n, r.ii-1)
		}
	} else {
		r.note("index schedule exhausted after %d choices", len(r.sched.Indices))
	}
	r.effective.Indices = append(r.effective.Indices, int32(i))
	return i
}

// Diverged returns the first divergence description, or "".
func (r *Replayer) Diverged() string { return r.diverged }

// Effective returns the choices actually taken, fallbacks included.
func (r *Replayer) Effective() Schedule {
	return Schedule{
		Threads: append([]int32(nil), r.effective.Threads...),
		Indices: append([]int32(nil), r.effective.Indices...),
	}
}
