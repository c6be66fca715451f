package campaign

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
	"c11tester/internal/obs"
	"c11tester/internal/sched"
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
// hists.observe, wall-clock timing on timed indices, engine exec stats with
// handoff-wait and per-phase span measurement toggled per execution index by
// the runner's own sampleTiming, plus an armed flight recorder fed a digest
// per execution — so the observability fabric is itself held to the
// zero-alloc bar the runner's hot path relies on, exactly as a -capture
// campaign runs it. Both paths are measured: a sampled (timed) index and an
// unsampled one. The subtest is named for the run's random source, the
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
			fr := obs.NewFlightRecorder(obs.FlightRecorderConfig{})
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
				if seed%timingSample == 0 {
					t0 := time.Now()
					res = tool.Execute(prog, seed)
					dur = time.Since(t0)
				} else {
					res = tool.Execute(prog, seed)
				}
				met.observe(int(seed), dur, eng)
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

// TestRunnerZeroAllocSteadyState extends the zero-alloc bar from
// tool.Execute to the campaign runner's whole per-execution path: runOne,
// with its signal stage (detection or litmus verdict), race dedup
// (recordRaces), the execution's race keys (raceKeysOf), the worker slot's
// cell histograms and the flight-recorder check. Validation and analyzers stay off;
// they are duties with their own costs. One runner per tool × program cell
// is warmed over several indices, so its fragment maps, the worker's
// race-key intern table and the tool's pools are settled, and then one
// sampled and one unsampled index must allocate nothing.
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
		}
		wt := newWorkerTools(spec)
		check := func(j job, program string) {
			r := wt.unit(spec, 0, j)
			for i := 0; i <= 6; i++ {
				r.runOne(i)
			}
			for _, i := range []int{0, 3} {
				if n := testing.AllocsPerRun(10, func() { r.runOne(i) }); n != 0 {
					t.Errorf("%s/%s index %d (sampled=%v): %.1f allocs/exec in runOne, want 0",
						name, program, i, i%timingSample == 0, n)
				}
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

// TestCellRunnerSizeClass pins cellRunner inside the 1024 B malloc size
// class. Every campaign unit allocates one runner, and since Go 1.22 an
// object over 512 B that holds pointers carries an 8-byte malloc header, so
// the runner itself may use at most 1024 − 8 = 1016 B. One field more moves
// it into the next size class (1152 B), which costs the litmus workload ~5%
// alloc_bytes_per_exec. That is why the timing sample is derived from the
// execution index instead of a per-runner flag, and why one workerSlot
// pointer reaches both the axiom workspace and the race-key intern table.
func TestCellRunnerSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(cellRunner{}); n > 1016 {
		t.Fatalf("cellRunner is %d B; with the 8 B malloc header it is past the 1024 B size class", n)
	}
}

// startShapes are programs whose threads start on something other than a
// plain first operation: a first operation that blocks on a held mutex, one
// that joins a thread that may not have started, and a thread spawned by a
// thread other than main.
var startShapes = []capi.Program{
	{Name: "first-op-blocks", Run: func(env capi.Env) {
		m := env.NewMutex("m")
		d := env.NewLoc("d", 0)
		env.Lock(m)
		env.Spawn("w", func(env capi.Env) {
			env.Lock(m)
			env.Write(d, env.Read(d)+1)
			env.Unlock(m)
		})
		env.Write(d, 1)
		env.Unlock(m)
	}},
	{Name: "first-op-join", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		a := env.Spawn("a", func(env capi.Env) { env.Store(x, 1, memmodel.Relaxed) })
		b := env.Spawn("b", func(env capi.Env) {
			env.Join(a)
			env.Store(x, env.Load(x, memmodel.Relaxed)+1, memmodel.Release)
		})
		env.Load(x, memmodel.Acquire)
		env.Join(b)
	}},
	{Name: "nested-spawn", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		d := env.NewLoc("d", 0)
		env.Join(env.Spawn("parent", func(env capi.Env) {
			env.Write(d, 1)
			c := env.Spawn("child", func(env capi.Env) {
				env.Write(d, 2)
				env.Store(x, 1, memmodel.Release)
			})
			env.Load(x, memmodel.Acquire)
			env.Join(c)
		}))
		env.Read(d)
	}},
}

// TestHandoffRegimeEquivalence pins the Figure 14 invariant that makes the
// handoff regimes a pure performance comparison: scheduling decisions are
// driven by the strategy alone, so outcomes are byte-identical across the
// fiber and osthread handoffs. c11tester is built exactly as StandardTool
// builds it, once per scheduler configuration; tsan11rec is checked across
// -faithful-handoff, the one regime switch the CLIs expose. Besides the
// paper's programs it runs startShapes.
func TestHandoffRegimeEquivalence(t *testing.T) {
	benches, err := SelectBenchmarks("ms-queue,seqlock")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("IRIW+acq,SB+rlx,MP+rlx")
	if err != nil {
		t.Fatal(err)
	}
	const seeds = 5
	digestsFor := func(spec ToolSpec) []execDigest {
		var out []execDigest
		tool, eng, rec := newTracedTool(spec)
		defer eng.Close()
		for _, bench := range benches {
			prog := bench.New()
			for seed := int64(1); seed <= seeds; seed++ {
				res := tool.Execute(prog, seed)
				out = append(out, digestOf(t, eng, rec, res, bench.Name, false, "", seed))
			}
		}
		for _, lit := range lits {
			var outcome string
			prog := lit.Make(&outcome)
			for seed := int64(1); seed <= seeds; seed++ {
				outcome = ""
				res := tool.Execute(prog, seed)
				out = append(out, digestOf(t, eng, rec, res, lit.Name, true, outcome, seed))
			}
		}
		for _, prog := range startShapes {
			for seed := int64(1); seed <= 4*seeds; seed++ {
				res := tool.Execute(prog, seed)
				out = append(out, digestOf(t, eng, rec, res, prog.Name, false, "", seed))
			}
		}
		return out
	}
	same := func(label string, base, got []execDigest) {
		t.Helper()
		for i := range base {
			if diff := digestEqual(base[i], got[i]); diff != "" {
				t.Fatalf("%s: execution %d diverged from the default regime: %s", label, i, diff)
			}
		}
	}

	base := digestsFor(mustTool(t, "c11tester", ToolOptions{}))
	for _, cfg := range []sched.Config{{}, {LockOSThread: true}} {
		spec := ToolSpec{Name: "c11tester", New: func() capi.Tool {
			return core.New("c11tester", core.NewC11Model(), core.Config{Sched: cfg, StoreBurst: true})
		}}
		same(fmt.Sprintf("c11tester %+v", cfg), base, digestsFor(spec))
	}

	base = digestsFor(mustTool(t, "tsan11rec", ToolOptions{}))
	same("tsan11rec -faithful-handoff", base, digestsFor(mustTool(t, "tsan11rec", ToolOptions{FaithfulHandoff: true})))
}
