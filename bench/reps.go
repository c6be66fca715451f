package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"c11tester/internal/campaign"
)

// setupRuns is how many Runs=1 campaigns the set-up step times.
const setupRuns = 21

// setupResult holds the wall times of the set-up step's Runs=1 campaigns:
// program and tool construction, fiber-pool spawn and the first execution of
// every cell, with nothing left to amortize them over.
type setupResult struct {
	Seconds []float64 `json:"seconds"`
}

// runSetup times setupRuns identical Runs=1 campaigns in one process. The
// first pays the process's own first-use costs as well; the median leaves it
// out, because cold-process page faults and cache misses swing with load on
// a shared host far more than the campaign's own set-up does.
func runSetup(w workload, o options) (*setupResult, error) {
	spec, err := w.spec(o.seed, 1)
	if err != nil {
		return nil, err
	}
	r := &setupResult{}
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		t0 := time.Now()
		sum := campaign.Run(spec)
		r.Seconds = append(r.Seconds, time.Since(t0).Seconds())
		if sum.Failed() {
			return nil, fmt.Errorf("setup campaign failed:\n%s", sum)
		}
	}
	return r, nil
}

// cellOutcome is what one (tool, program) cell produced: its race keys and,
// for litmus cells, its outcome histogram. The traced pass must reproduce the
// campaign's exactly.
type cellOutcome struct {
	RaceKeys []string       `json:"race_keys,omitempty"`
	Outcomes map[string]int `json:"outcomes,omitempty"`
}

// repsResult is the timed part of a workload: identical campaign.Run reps of
// the workload's budget, untraced.
type repsResult struct {
	Rates        []float64 `json:"rates"`          // executions ÷ campaign.Run wall time, per rep
	AllocPerExec []float64 `json:"alloc_per_exec"` // heap bytes allocated ÷ executions, per rep
	Execs        int       `json:"execs"`          // executions per rep
	Attempted    int       `json:"attempted"`      // over all reps, failed executions included
	Failed       int       `json:"failed"`         // over all reps

	Races        int                    `json:"races"`
	Weak         int                    `json:"weak"`
	ExecsToRaces int                    `json:"execs_to_races"`
	Cells        map[string]cellOutcome `json:"cells"`
	Errors       []string               `json:"errors,omitempty"`
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runReps runs at least o.reps reps and keeps going until o.seconds have
// passed. Every rep uses the same seeds, so each does identical work: a rep
// whose canonical summary differs from rep 1's is a determinism failure.
func runReps(w workload, o options) (*repsResult, error) {
	spec, err := w.spec(o.seed, w.budget(o.scale))
	if err != nil {
		return nil, err
	}
	r := &repsResult{}
	var first []byte
	start := time.Now()
	for rep := 0; rep < o.reps || time.Since(start).Seconds() < o.seconds; rep++ {
		runtime.GC()
		a0 := heapAllocBytes()
		t0 := time.Now()
		sum := campaign.Run(spec)
		wall := time.Since(t0)
		a1 := heapAllocBytes()

		execs, failed := 0, executionFailures(sum)
		for _, ts := range sum.Tools {
			execs += ts.Execs
		}
		r.Rates = append(r.Rates, float64(execs)/wall.Seconds())
		r.AllocPerExec = append(r.AllocPerExec, float64(a1-a0)/float64(execs))
		r.Attempted += execs + sum.EngineFailures()
		r.Failed += failed
		if failed > 0 {
			r.Errors = append(r.Errors, fmt.Sprintf("rep %d: %d failed executions:\n%s", rep+1, failed, sum))
		}

		canon, err := json.Marshal(sum.Canonical())
		if err != nil {
			return nil, err
		}
		if rep == 0 {
			first = canon
			r.Execs = execs
			r.detections(sum)
		} else if !bytes.Equal(canon, first) {
			r.Errors = append(r.Errors, fmt.Sprintf("rep %d: canonical summary differs from rep 1's", rep+1))
		}
	}
	return r, nil
}

// executionFailures counts the failure events of a campaign: engine
// failures, forbidden litmus outcomes, races inside (race-free) litmus
// programs and axiom violations.
func executionFailures(sum *campaign.Summary) int {
	n := sum.EngineFailures() + len(sum.UnexpectedRaces()) + sum.AxiomViolations()
	for _, f := range sum.Forbidden() {
		n += f.Count
	}
	return n
}

// detections reads the detection metrics and per-cell outcomes of a summary.
func (r *repsResult) detections(sum *campaign.Summary) {
	r.Cells = map[string]cellOutcome{}
	for _, ts := range sum.Tools {
		for _, c := range ts.Benchmarks {
			r.Races += len(c.RaceKeys)
			r.Cells[ts.Tool+"/"+c.Program] = cellOutcome{RaceKeys: c.RaceKeys}
		}
		for _, l := range ts.Litmus {
			r.Weak += len(l.WeakSeen)
			r.Cells[ts.Tool+"/"+l.Test] = cellOutcome{Outcomes: l.Outcomes}
		}
		// A race's repro seed is its first sighting: index = seed − seed
		// base. A cell has found all its races after its latest first
		// sighting.
		last := map[string]int{}
		for _, rc := range ts.Races {
			last[rc.Repro.Program] = max(last[rc.Repro.Program], int(rc.Repro.Seed-sum.Spec.SeedBase)+1)
		}
		for _, n := range last {
			r.ExecsToRaces += n
		}
	}
}
