package campaign

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"c11tester/internal/analysis"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
)

// TestZeroAllocSteadyState pins the fiber-pool tentpole target exactly: once
// a tool instance's pools, arenas, fiber workers, and program instance are
// warm, an execution allocates NOTHING — no goroutines, closures, results,
// race reports, or outcome strings — on every tool × program cell of the
// standard matrix. testing.AllocsPerRun counts mallocs exactly (unlike
// process-wide heap counters, which also see other goroutines), so this is
// the strictest form of the ≤ 64 B/exec acceptance gate.
//
// The measured loop carries the full campaign instrumentation — the
// worker slot's per-cell histogram accumulator fed by the runner's own
// hists.observe, wall-clock timing on timed indices, engine exec stats and
// layer counts on every execution, the reset and run spans toggled per
// execution index by the runner's own sampleTiming (nothing is clocked per
// operation), plus an armed trace-sink recorder fed a digest per execution —
// so the observability fabric is itself held to the zero-alloc bar the
// runner's hot path relies on, exactly as a -record campaign runs it. Every
// path is measured: a wall-time index, a span index and an unsampled one. The subtest is named for the run's random source, the
// PCG-DXSM generator of internal/rng.
func TestZeroAllocSteadyState(t *testing.T) {
	t.Run("pcg", testZeroAllocSteadyState)
}

func testZeroAllocSteadyState(t *testing.T) {
	benches, err := SelectBenchmarks("all")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range StandardToolNames() {
		spec, err := StandardTool(name, ToolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// One worker slot over the whole matrix, built exactly as
		// campaign.Run builds it: every accumulator exists before the hot
		// loop.
		wt := newWorkerTools(Spec{
			Tools:      []ToolSpec{spec},
			Benchmarks: benches,
			Litmus:     lits,
			Workers:    1,
		})
		check := func(j job, program string, prog capi.Program, reset func()) {
			tool := spec.New()
			defer closeTool(tool)
			met := &wt[0].hists[j.key().index(len(benches), len(lits))]
			eng, _ := tool.(*core.Engine)
			fr := obs.NewFlightRecorder(obs.FlightRecorderConfig{On: obs.Of(obs.TriggerSlowSteps)})
			// run executes seed as execution index seed of the cell.
			run := func(seed int64) {
				if reset != nil {
					reset()
				}
				if eng != nil {
					sampleTiming(eng, int(seed))
				}
				var dur time.Duration
				var res *capi.Result
				if wallSampled(int(seed)) {
					t0 := time.Now()
					res = tool.Execute(prog, seed)
					dur = time.Since(t0)
				} else {
					res = tool.Execute(prog, seed)
				}
				met.observe(int(seed), dur, eng)
				d := obs.ExecDigest{Index: int(seed), NewRace: len(res.NewRaces) > 0}
				if eng != nil {
					st := eng.ExecStats()
					d.Steps, d.Choices = st.Steps, st.Choices
				}
				fr.Check(d)
			}
			// Warm the pools across several seeds, both samples and
			// unsampled, so capacity growth and the race-dedup map are
			// settled before measuring.
			for seed := int64(0); seed <= 8; seed++ {
				run(seed)
			}
			for _, seed := range []int64{0, timingSample / 2, 3} {
				if n := testing.AllocsPerRun(10, func() { run(seed) }); n != 0 {
					t.Errorf("%s/%s index %d (wall=%v spans=%v): %.1f allocs/exec in steady state, want 0",
						name, program, seed, wallSampled(int(seed)), spansSampled(int(seed)), n)
				}
			}
			if eng != nil && met.PhaseNS[core.PhaseRun].Count() == 0 {
				t.Errorf("%s/%s: the span index ran untimed", name, program)
			}
		}
		for b, bench := range benches {
			check(job{kind: jobBench, tool: 0, cell: b}, bench.Name, bench.New(), nil)
		}
		for l, lit := range lits {
			var out string
			prog := lit.Make(&out)
			check(job{kind: jobLitmus, tool: 0, cell: l}, lit.Name, prog, func() { out = "" })
		}
	}
}

// TestRunnerZeroAllocSteadyState extends the zero-alloc bar from
// tool.Execute to the campaign runner's whole per-execution path: runOne,
// with its signal stage (detection or litmus verdict), race dedup
// (recordRaces), the execution's race keys (raceKeysOf), the worker slot's
// cell histograms and the armed trace sink: the recorder strategy wrapper
// logging every choice, the engine's action trace where the model keeps one,
// and the record stage's trigger check. Validation and analyzers stay off;
// they are duties with their own costs. One runner per tool × program cell
// is warmed over several indices, so its fragment maps, the worker's
// race-key intern table, the wrapper's log and the tool's pools are settled,
// and then a wall-time, a span and an unsampled index must allocate nothing.
// The measured indices repeat executions the recorder has seen, so none is
// a slow_steps outlier: the sink records nothing while it is measured.
func TestRunnerZeroAllocSteadyState(t *testing.T) {
	benches, err := SelectBenchmarks("all")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range StandardToolNames() {
		spec := Spec{
			Tools:      []ToolSpec{mustTool(t, name, ToolOptions{})},
			Benchmarks: benches,
			Litmus:     lits,
			Workers:    1,
			RecordDir:  t.TempDir(),
			RecordOn:   obs.Of(obs.TriggerSlowSteps),
		}
		wt := newWorkerTools(spec)
		check := func(j job, program string) {
			r := wt.unit(spec, 0, j)
			for i := 0; i <= 8; i++ {
				r.runOne(i)
			}
			recorded := len(r.frag.Captures)
			for _, i := range []int{0, timingSample / 2, 3} {
				if n := testing.AllocsPerRun(10, func() { r.runOne(i) }); n != 0 {
					t.Errorf("%s/%s index %d (wall=%v spans=%v): %.1f allocs/exec in runOne, want 0",
						name, program, i, wallSampled(i), spansSampled(i), n)
				}
			}
			if len(r.frag.Captures) != recorded {
				t.Errorf("%s/%s: a measured execution was recorded", name, program)
			}
		}
		for b, bench := range benches {
			check(job{kind: jobBench, cell: b}, bench.Name)
		}
		for l, lit := range lits {
			check(job{kind: jobLitmus, cell: l}, lit.Name)
		}
		wt.close()
	}
}

// TestUnitStartZeroAlloc pins runner reuse: once a worker has run one unit
// of a cell, each later unit of that cell allocates nothing. Each measured
// unit starts as a campaign unit starts, with the tool's Rearm and the
// runner's arm, which empties the unit's fragment, execution context and
// strategy wrappers in place. It then runs 25 executions, both sampled
// indices included, and folds the finished fragment into the runner's
// accumulator as the wave loop does. The cells cover a benchmark that
// reports no race, a racy one (ms-queue, three race keys: the winning
// reports are kept by value and described only at the edges), and the duty
// shape — axiom validation plus every analyzer — on the cells where the
// analyzers find something (atomic-counter, SB+rlx). The sink case runs the
// plain cells with the trace sink armed on slow_steps: a unit that records
// nothing must allocate nothing, and a unit that records a trace (seqlock's
// unit holds one slow outlier) must record the same entries every time.
func TestUnitStartZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name      string
		benches   []string
		litmus    string
		duties    bool
		sink      bool
		races     int // distinct race keys the first benchmark cell must report
		findCells bool
	}{
		{name: "plain", benches: []string{"seqlock", "ms-queue"}, litmus: "SB+rlx"},
		{name: "duties", benches: []string{"atomic-counter"}, litmus: "SB+rlx", duties: true},
		{name: "sink", benches: []string{"seqlock", "ms-queue"}, litmus: "SB+rlx", sink: true},
	} {
		spec := Spec{
			Tools:   []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Litmus:  []*litmus.Test{mustLitmus(t, tc.litmus)},
			Workers: 1,
		}
		if tc.sink {
			spec.RecordDir, spec.RecordOn = t.TempDir(), obs.Of(obs.TriggerSlowSteps)
		}
		for _, b := range tc.benches {
			spec.Benchmarks = append(spec.Benchmarks, benchSpec(t, b))
		}
		if tc.duties {
			spec.ValidateAxioms = true
			spec.Analyzers = analysis.Names()
		}
		wt := newWorkerTools(spec)
		jobs := []job{{kind: jobLitmus, hi: 25}}
		for b := range spec.Benchmarks {
			jobs = append(jobs, job{kind: jobBench, cell: b, hi: 25})
		}
		for _, j := range jobs {
			program := tc.name + "/" + spec.programOf(j.key())
			var r *cellRunner
			units := 0
			unit := func() {
				units++
				r = wt.unit(spec, 0, j)
				r.run(j.lo, j.hi, nil)
				r.acc.add(&r.frag, j.hi)
			}
			unit()
			first := r
			recorded := slices.Clone(r.frag.Captures)
			if len(recorded) > 0 {
				unit()
				if !reflect.DeepEqual(r.frag.Captures, recorded) {
					t.Errorf("%s: a later unit recorded %+v, the first %+v", program, r.frag.Captures, recorded)
				}
			} else if n := testing.AllocsPerRun(5, unit); n != 0 {
				t.Errorf("%s: %.1f allocs per unit after the first, want 0", program, n)
			}
			if r != first {
				t.Errorf("%s: the worker built a second runner for the cell", program)
			}
			if want := units * 25; r.acc.frag.Execs != want {
				t.Errorf("%s: accumulator holds %d executions, want %d", program, r.acc.frag.Execs, want)
			}
			if spec.programOf(j.key()) == "ms-queue" && len(r.acc.frag.Races) != 3 {
				t.Errorf("%s: %d race keys, want 3", program, len(r.acc.frag.Races))
			}
			if tc.duties {
				if r.acc.frag.Checked == 0 || len(r.acc.frag.Findings) == 0 {
					t.Errorf("%s: %d executions validated and %d findings; the duty cells must exercise both",
						program, r.acc.frag.Checked, len(r.acc.frag.Findings))
				}
			}
		}
		wt.close()
	}
}
