package campaign

import (
	"fmt"
	"io"
	"sync"
)

// telemetry is one campaign's progress state behind the stderr progress
// lines: the executions done against the plan, and the distinct races and
// failures found so far. Run builds one per campaign from Spec.Progress. The
// per-cell histograms are not telemetry state: they ride the campaign's fold
// (see hists).
type telemetry struct {
	progress     io.Writer // nil: no lines
	spec         Spec
	execsPlanned int
	lineEvery    int

	mu        sync.Mutex
	raceKeys  map[[2]string]bool // {tool, key} — campaign-distinct races
	failures  int
	execsDone int
	lastLine  int // execsDone at the last periodic progress line
}

// newTelemetry plans spec's progress lines.
func newTelemetry(spec Spec) *telemetry {
	t := &telemetry{progress: spec.Progress, spec: spec, raceKeys: map[[2]string]bool{}}
	// A sharded run only plans its share of each cell's chunk sequence (every
	// cell deals identically, so one cell's share scales).
	cellExecs := 0
	for _, c := range chunkDeal(spec) {
		cellExecs += c[1] - c[0]
	}
	t.execsPlanned = cellExecs * t.cells()
	// Aim for ~10 periodic progress lines on uniform campaigns; wave
	// barriers print their own lines either way.
	t.lineEvery = t.execsPlanned / 10
	if t.lineEvery < spec.ShardSize {
		t.lineEvery = spec.ShardSize
	}
	return t
}

// unitDone folds one completed unit into the progress state and prints a
// periodic progress line when one is due.
func (t *telemetry) unitDone(j job, frag *fragment) {
	tool := t.spec.Tools[j.tool].Name
	t.mu.Lock()
	for key := range frag.Races {
		t.raceKeys[[2]string{tool, key}] = true
	}
	t.failures += frag.Failed
	t.execsDone += frag.Execs
	var line string
	if t.progress != nil && t.lineEvery > 0 && t.execsDone-t.lastLine >= t.lineEvery {
		t.lastLine = t.execsDone
		line = fmt.Sprintf("progress: %d/%d execs, %d distinct race(s), %d failure(s)\n",
			t.execsDone, t.execsPlanned, len(t.raceKeys), t.failures)
	}
	t.mu.Unlock()
	if line != "" {
		fmt.Fprint(t.progress, line)
	}
}

// cells counts the campaign's matrix cells.
func (t *telemetry) cells() int {
	return len(t.spec.Tools) * (len(t.spec.Benchmarks) + len(t.spec.Litmus))
}

// waveEnd prints the per-wave progress line; converged counts the cells
// whose statistics have converged so far.
func (t *telemetry) waveEnd(wave, converged int) {
	if t.progress == nil {
		return
	}
	t.mu.Lock()
	done, races, fails := t.execsDone, len(t.raceKeys), t.failures
	t.mu.Unlock()
	fmt.Fprintf(t.progress, "wave %d: %d/%d execs, %d/%d cells converged, %d distinct race(s), %d failure(s)\n",
		wave, done, t.execsPlanned, converged, t.cells(), races, fails)
}
