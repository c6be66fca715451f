package core_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"c11tester/internal/campaign"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
	"c11tester/internal/structures"
	"c11tester/internal/trace"
)

// TestReadyListKeptAcrossTools runs the 22 programs of the paper matrix
// under each tool, tsan11rec driver-stepped included, and requires the ready
// list pick keeps between steps to equal a fresh rebuild at every pick.
func TestReadyListKeptAcrossTools(t *testing.T) {
	var out string
	var progs []capi.Program
	for _, b := range structures.All() {
		progs = append(progs, b.New())
	}
	for _, lt := range litmus.Tests() {
		progs = append(progs, lt.Make(&out))
	}
	for _, tc := range []struct {
		tool   string
		driver bool
		seeds  int64
	}{{"c11tester", false, 50}, {"tsan11", false, 50}, {"tsan11rec", false, 50}, {"tsan11rec", true, 10}} {
		spec, err := campaign.StandardTool(tc.tool, campaign.ToolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		name := spec.Name
		if tc.driver {
			name += "-driver-stepped"
		}
		t.Run(name, func(t *testing.T) {
			picks := 0
			defer core.CheckReadyLists(t, &picks)()
			for _, p := range progs {
				eng := spec.New().(*core.Engine)
				if tc.driver {
					core.DriverStepped(eng)
				}
				for seed := int64(0); seed < tc.seeds && !t.Failed(); seed++ {
					eng.Execute(p, seed)
				}
				eng.Close()
			}
			if picks == 0 {
				t.Fatal("no pick used the kept ready list")
			}
		})
	}
}

// TestReadyListKeptInEngineTests reruns the engine's join, deadlock, abort
// and stacked-handoff tests with the same check.
func TestReadyListKeptInEngineTests(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"DeadlockDetected", core.TestDeadlockDetected},
		{"TruncationGuard", core.TestTruncationGuard},
		{"FirstOpBlocksOnHeldMutex", core.TestFirstOpBlocksOnHeldMutex},
		{"FirstOpIsJoin", core.TestFirstOpIsJoin},
		{"SpawnFromNonMain", core.TestSpawnFromNonMain},
		{"ZeroOpThreadRunsOnce", core.TestZeroOpThreadRunsOnce},
		{"PanicBeforeFirstOp", core.TestPanicBeforeFirstOp},
		{"NeverStartedThreadsPooledEqualsFresh", core.TestNeverStartedThreadsPooledEqualsFresh},
		{"InfeasiblePanicIsRecoveredAndEngineStaysUsable", core.TestInfeasiblePanicIsRecoveredAndEngineStaysUsable},
		{"InlineStepFailurePaths", core.TestInlineStepFailurePaths},
		{"PanickingProgramAlternationOnPooledEngine", core.TestPanickingProgramAlternationOnPooledEngine},
		{"StackedInfeasible", core.TestStackedInfeasible},
		{"StackedRetire", core.TestStackedRetire},
		{"StackedAbort", core.TestStackedAbort},
	} {
		t.Run(tc.name, func(t *testing.T) {
			picks := 0
			defer core.CheckReadyLists(t, &picks)()
			tc.run(t)
			if picks == 0 {
				t.Fatal("no pick used the kept ready list")
			}
		})
	}
}

// startShapes are programs whose threads start on something other than a
// plain first operation: a first operation that blocks on a join of the
// still-running main, one that joins a thread that may not have started, and
// a thread spawned by a thread other than main.
var startShapes = []capi.Program{
	{Name: "first-op-blocks", Run: func(env capi.Env) {
		main := capi.Thread{TID: env.TID()}
		d := env.NewLoc("d", 0)
		env.Spawn("w", func(env capi.Env) {
			env.Join(main)
			env.Write(d, env.Read(d)+1)
		})
		env.Write(d, 1)
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

// execDigest is what an execution decided: its race keys, litmus outcome,
// final values, termination, steps and choices, and, for a model that
// exposes modification orders, its whole serialized trace.
type execDigest struct {
	Races          []string
	Outcome        string
	Finals         map[string]memmodel.Value
	Deadlocked     bool
	Truncated      bool
	Asserts        int
	Steps, Choices uint64
	Trace          string
}

// TestHandoffRegimeEquivalence pins the Figure 14 invariant that makes the
// handoff a pure matter of cost: one step function takes every decision, so
// an engine whose threads take their steps inline decides byte for byte what
// the driver-stepped schedule of tsan11rec's kernel-thread sequencing
// decides. Both engines are built exactly as the campaign builds them, for
// c11tester and tsan11rec, on ms-queue, seqlock, IRIW+acq, SB+rlx, MP+rlx and
// startShapes.
func TestHandoffRegimeEquivalence(t *testing.T) {
	type subject struct {
		prog    capi.Program
		outcome *string
		seeds   int64
	}
	var subjects []subject
	for _, name := range []string{"ms-queue", "seqlock"} {
		b, err := structures.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{b.New(), new(string), 5})
	}
	for _, name := range []string{"IRIW+acq", "SB+rlx", "MP+rlx"} {
		lt, ok := litmus.ByName(name)
		if !ok {
			t.Fatalf("no litmus test %s", name)
		}
		out := new(string)
		subjects = append(subjects, subject{lt.Make(out), out, 5})
	}
	for _, p := range startShapes {
		subjects = append(subjects, subject{p, new(string), 20})
	}

	digests := func(spec campaign.ToolSpec, driver bool) []execDigest {
		eng := spec.New().(*core.Engine)
		defer eng.Close()
		if driver {
			core.DriverStepped(eng)
		}
		rec := trace.NewRecorder(eng.Strategy())
		eng.SetStrategy(rec)
		_, hasMO := eng.Model().(core.MOProvider)
		eng.SetTrace(hasMO)
		var out []execDigest
		for _, s := range subjects {
			for seed := int64(1); seed <= s.seeds; seed++ {
				*s.outcome = ""
				res := eng.Execute(s.prog, seed)
				st := eng.ExecStats()
				d := execDigest{Outcome: *s.outcome, Finals: map[string]memmodel.Value{},
					Deadlocked: res.Deadlocked, Truncated: res.Truncated, Asserts: len(res.AssertFailures),
					Steps: st.Steps, Choices: st.Choices}
				for _, r := range res.Races {
					d.Races = append(d.Races, r.Key())
				}
				for k, v := range eng.FinalValues() {
					d.Finals[k] = v
				}
				if hasMO {
					tr, err := trace.Record(eng, res, rec.Schedule(), trace.Meta{
						Tool: trace.ToolConfig{Name: eng.Name()}, Program: s.prog.Name, Seed: seed})
					if err != nil {
						t.Fatalf("record %s seed %d: %v", s.prog.Name, seed, err)
					}
					data, err := json.Marshal(tr)
					if err != nil {
						t.Fatal(err)
					}
					d.Trace = string(data)
				}
				out = append(out, d)
			}
		}
		return out
	}

	for _, name := range []string{"c11tester", "tsan11rec"} {
		spec, err := campaign.StandardTool(name, campaign.ToolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		inline, driver := digests(spec, false), digests(spec, true)
		for i := range inline {
			if !reflect.DeepEqual(inline[i], driver[i]) {
				t.Fatalf("%s: execution %d diverged:\ninline         %+v\ndriver-stepped %+v", name, i, inline[i], driver[i])
			}
		}
	}
}
