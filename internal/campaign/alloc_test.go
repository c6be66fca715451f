package campaign

import (
	"testing"
	"time"
	"unsafe"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/obs"
	"c11tester/internal/rng"
	"c11tester/internal/sched"
)

// TestZeroAllocSteadyState pins the fiber-pool tentpole target exactly: once
// a tool instance's pools, arenas, fiber workers, and program instance are
// warm, an execution allocates NOTHING — no goroutines, closures, results,
// race reports, or outcome strings — on every tool × program cell of the
// standard matrix. testing.AllocsPerRun counts mallocs exactly (unlike the
// span-granular runtime/metrics counters BENCH_perf.json reports), so this
// is the strictest form of the ≤ 64 B/exec acceptance gate.
//
// The measured loop carries the full campaign telemetry instrumentation —
// pre-bound CellMetrics handles, wall-clock timing, engine exec stats with
// handoff-wait and per-phase span measurement toggled per execution index by
// the runner's own sampleTiming, plus an armed flight recorder fed a digest
// per execution — so the observability fabric is itself held to the
// zero-alloc bar the runner's hot path relies on, exactly as a -capture
// campaign runs it. Both paths are measured: a sampled (timed) index and an
// unsampled one. Both rng sources must hold the bar: the pcg fast path is
// allocation-free by construction, and the legacy source reuses its
// materialized math/rand state across re-seeds.
func TestZeroAllocSteadyState(t *testing.T) {
	for _, src := range rng.Names() {
		t.Run(src, func(t *testing.T) { testZeroAllocSteadyState(t, src) })
	}
}

func testZeroAllocSteadyState(t *testing.T, rngSource string) {
	benches, err := SelectBenchmarks("all")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range StandardToolNames() {
		spec, err := StandardTool(name, ToolOptions{RNG: rngSource})
		if err != nil {
			t.Fatal(err)
		}
		// One telemetry fabric over the whole matrix, bound exactly as
		// campaign.Run binds it: every handle exists before the hot loop.
		tel := NewTelemetry(TelemetryOptions{})
		tel.bind(Spec{
			Tools:      []ToolSpec{spec},
			Benchmarks: benches,
			Litmus:     lits,
		})
		check := func(j job, program string, prog capi.Program, reset func()) {
			tool := spec.New()
			defer closeTool(tool)
			met := tel.cellMetrics(j)
			eng, _ := tool.(*core.Engine)
			fr := obs.NewFlightRecorder(obs.FlightRecorderConfig{})
			// run executes seed as execution index seed of the cell.
			run := func(seed int64) {
				if reset != nil {
					reset()
				}
				if eng != nil {
					sampleTiming(eng, int(seed))
				}
				t0 := time.Now()
				res := tool.Execute(prog, seed)
				dur := time.Since(t0)
				met.ObserveExec(dur, eng)
				d := obs.ExecDigest{Index: int(seed), NS: int64(dur),
					NewRace: len(res.NewRaces) > 0}
				if eng != nil {
					st := eng.ExecStats()
					d.Steps, d.Choices = st.Steps, st.Choices
				}
				fr.Check(d)
			}
			// Warm the pools across several seeds, timed and untimed, so
			// capacity growth and the race-dedup map are settled before
			// measuring.
			for seed := int64(0); seed <= 6; seed++ {
				run(seed)
			}
			for _, seed := range []int64{0, 3} {
				if n := testing.AllocsPerRun(10, func() { run(seed) }); n != 0 {
					t.Errorf("%s/%s index %d (sampled=%v): %.1f allocs/exec in steady state, want 0",
						name, program, seed, seed%timingSample == 0, n)
				}
			}
			if eng != nil && met.PhaseNS[core.PhaseRun].Count() == 0 {
				t.Errorf("%s/%s: the sampled index ran untimed", name, program)
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

// TestCellRunnerSizeClass pins cellRunner inside the 1024 B malloc size
// class. Every campaign unit allocates one runner; one field past 1024 B
// moves it into the next size class (1152 B), which costs the litmus
// workload ~5% alloc_bytes_per_exec. That is why the timing sample is
// derived from the execution index instead of a per-runner flag.
func TestCellRunnerSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(cellRunner{}); n > 1024 {
		t.Fatalf("cellRunner is %d B, past the 1024 B size class", n)
	}
}

// TestHandoffRegimeEquivalence pins the Figure 14 invariant that makes the
// handoff matrix a pure performance comparison: scheduling decisions are
// driven by the strategy alone, so campaign outcomes are byte-identical
// across the fiber and osthread handoff regimes.
func TestHandoffRegimeEquivalence(t *testing.T) {
	benches, err := SelectBenchmarks("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("IRIW+acq")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 3
	type cellDigests []execDigest
	digestsFor := func(opts ToolOptions) cellDigests {
		spec, err := StandardTool("c11tester", opts)
		if err != nil {
			t.Fatal(err)
		}
		var out []execDigest
		tool, eng, rec := newTracedTool(spec)
		prog := benches[0].New()
		for i := 0; i < runs; i++ {
			res := tool.Execute(prog, int64(i+1))
			out = append(out, digestOf(t, eng, rec, res, benches[0].Name, false, "", int64(i+1)))
		}
		var lit string
		litProg := lits[0].Make(&lit)
		for i := 0; i < runs; i++ {
			lit = ""
			res := tool.Execute(litProg, int64(i+1))
			out = append(out, digestOf(t, eng, rec, res, lits[0].Name, true, lit, int64(i+1)))
		}
		eng.Close()
		return out
	}

	base := digestsFor(ToolOptions{})
	for _, regime := range sched.HandoffRegimes() {
		got := digestsFor(ToolOptions{Handoff: regime})
		for i := range base {
			if diff := digestEqual(base[i], got[i]); diff != "" {
				t.Fatalf("%s: execution %d diverged from the default regime: %s", regime, i, diff)
			}
		}
	}
}

// TestRunHandoffMatrix exercises the Figure 14 measurement path end to end
// at a tiny run count.
func TestRunHandoffMatrix(t *testing.T) {
	lits, err := SelectLitmus("SB+rlx")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := RunHandoffMatrix(PerfSpec{Litmus: lits, Runs: 2, Warmup: 1, SeedBase: 1},
		[]string{"c11tester"}, ToolOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(sched.HandoffRegimes()) {
		t.Fatalf("matrix has %d cells, want %d", len(cells), len(sched.HandoffRegimes()))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if c.Execs != 2 || c.NsPerExec <= 0 {
			t.Errorf("cell %+v: want 2 execs and positive ns/exec", c)
		}
		if seen[c.Handoff] {
			t.Errorf("duplicate matrix cell %s", c.Handoff)
		}
		seen[c.Handoff] = true
	}
	if HandoffMatrixString(cells) == "" {
		t.Error("empty matrix table")
	}

	// A prior summary over the same spec short-circuits its own regime
	// instead of re-measuring it.
	prior := &PerfSummary{
		SchemaVersion: PerfSchemaVersion,
		Spec:          PerfSpecInfo{Handoff: "fiber"},
		Tools:         []PerfToolSummary{{Tool: "c11tester", Execs: 99, NsPerExec: 123}},
	}
	cells, err = RunHandoffMatrix(PerfSpec{Litmus: lits, Runs: 2, Warmup: 1, SeedBase: 1},
		[]string{"c11tester"}, ToolOptions{}, prior)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Handoff == "fiber" {
			if c.Execs != 99 || c.NsPerExec != 123 {
				t.Errorf("prior aggregate not reused: %+v", c)
			}
		} else if c.Execs != 2 {
			t.Errorf("non-prior cell not measured: %+v", c)
		}
	}
}
