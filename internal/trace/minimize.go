package trace

import (
	"fmt"
)

// MinimizeStats summarizes a minimization run. The After lengths describe
// the stored schedule, which is re-expanded to the full effective choice
// stream so the minimized trace replays exactly; the Core lengths are the
// minimal recorded choices that still drive the signal before that
// expansion (everything beyond them is the trivial first-ready/index-0
// fallback made explicit).
type MinimizeStats struct {
	Replays       int `json:"replays"`
	ThreadsBefore int `json:"threads_before"`
	ThreadsAfter  int `json:"threads_after"`
	IndicesBefore int `json:"indices_before"`
	IndicesAfter  int `json:"indices_after"`
	CoreThreads   int `json:"core_threads"`
	CoreIndices   int `json:"core_indices"`
}

// DefaultMinimizeBudget caps the number of replays one Minimize call may
// spend.
const DefaultMinimizeBudget = 600

// Minimize shrinks a trace's schedule to a smaller one that still exhibits
// the same signal: every recorded race key (and, for litmus traces, the same
// outcome). It combines a monotone prefix cut — a race that fired inside the
// first k choices still fires when the tail is dropped — with ddmin over the
// thread-choice stream and then the index-choice stream. Candidate schedules
// run under the tolerant replayer (truncations fall back to a deterministic
// first-ready/index-0 scheduler), and only candidates that reproduce the
// signal are accepted, so the result is always a verified trace. budget <= 0
// uses DefaultMinimizeBudget.
func Minimize(tr *Trace, s Subject, budget int) (*Trace, MinimizeStats, error) {
	stats := MinimizeStats{
		ThreadsBefore: len(tr.Schedule.Threads),
		IndicesBefore: len(tr.Schedule.Indices),
	}
	if budget <= 0 {
		budget = DefaultMinimizeBudget
	}
	if len(tr.RaceKeys) == 0 && tr.Outcome == "" {
		return nil, stats, fmt.Errorf("trace: nothing to minimize (no race keys and no outcome recorded)")
	}
	eng := s.Engine
	eng.SetTrace(true)

	satisfies := func(rr *ReplayResult) bool {
		for _, want := range tr.RaceKeys {
			found := false
			for _, got := range rr.RaceKeys {
				if got == want {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return tr.Outcome == "" || rr.Outcome == tr.Outcome
	}

	var last *ReplayResult
	attempt := func(sched Schedule) bool {
		if stats.Replays >= budget {
			return false
		}
		stats.Replays++
		rp := NewReplayer(sched)
		eng.SetStrategy(rp)
		rr, err := replayOnce(tr, s, eng, rp)
		if err != nil || !satisfies(rr) {
			return false
		}
		last = rr
		return true
	}

	if !attempt(tr.Schedule) {
		return nil, stats, fmt.Errorf("trace: does not reproduce its own race keys/outcome; cannot minimize")
	}

	// Monotone prefix cut on the thread stream: find the shortest prefix that
	// still reproduces. Every accepted cut is itself tested, so correctness
	// does not depend on monotonicity — only the search efficiency does.
	threads := tr.Schedule.Threads
	lo, hi := 0, len(threads)
	for lo < hi {
		mid := (lo + hi) / 2
		if attempt(Schedule{Threads: threads[:mid], Indices: tr.Schedule.Indices}) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	threads = threads[:hi]

	threads = ddmin(threads, func(cand []int32) bool {
		return attempt(Schedule{Threads: cand, Indices: tr.Schedule.Indices})
	})
	indices := ddmin(tr.Schedule.Indices, func(cand []int32) bool {
		return attempt(Schedule{Threads: threads, Indices: cand})
	})

	// Canonical final run: replay the minimized choice stream once more
	// (outside the budget — the engine state Record reads below must come
	// from this execution) and record its *effective* schedule (fallback
	// choices made explicit), so the minimized trace replays exactly, with
	// no divergence. The (threads, indices) combination was accepted above,
	// and the engine is deterministic, so this run reproduces the signal.
	stats.Replays++
	rp := NewReplayer(Schedule{Threads: threads, Indices: indices})
	eng.SetStrategy(rp)
	rr, err := replayOnce(tr, s, eng, rp)
	if err != nil {
		return nil, stats, err
	}
	if !satisfies(rr) {
		return nil, stats, fmt.Errorf("trace: minimized schedule failed to reproduce on the final run")
	}
	last = rr
	min, err := Record(eng, last.Result, last.Effective, Meta{
		Tool: tr.Tool, Program: tr.Program, Litmus: tr.Litmus,
		Seed: tr.Seed, Outcome: last.Outcome,
	})
	if err != nil {
		return nil, stats, err
	}
	stats.ThreadsAfter = len(min.Schedule.Threads)
	stats.IndicesAfter = len(min.Schedule.Indices)
	stats.CoreThreads = len(threads)
	stats.CoreIndices = len(indices)
	return min, stats, nil
}

// ddmin is the complement-removal half of Zeller's ddmin: repeatedly try
// dropping chunks of the input, refining granularity until no single chunk
// at maximal granularity can be removed. test must return true when the
// candidate still exhibits the target behaviour; it is never called with the
// unmodified input.
func ddmin(input []int32, test func([]int32) bool) []int32 {
	cur := input
	if len(cur) == 0 {
		return cur
	}
	if test(nil) {
		return nil
	}
	n := 2
	for len(cur) >= 2 {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]int32, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if test(cand) {
				cur = cand
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(cur) {
				break
			}
			n *= 2
			if n > len(cur) {
				n = len(cur)
			}
		}
	}
	return cur
}
