package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
	"c11tester/internal/structures"
)

// regime is one way an engine's steps are taken.
type regime struct {
	name   string
	driver bool
}

// regimeConfigs are inline, where the program thread that reached an
// operation takes the step on its own fiber (the engine's way), and
// driver-stepped, where every thread parks on every operation and the driver
// takes each step (see DriverStepped) — the schedule tsan11rec's
// kernel-thread sequencing runs, kept as the reference for the inline steps.
var regimeConfigs = []regime{{"inline", false}, {"driver-stepped", true}}

// engine builds a c11tester engine for cfg that takes its steps in regime r.
func (r regime) engine(cfg Config) *Engine { return r.apply(newTool(cfg)) }

// apply makes e take its steps in regime r.
func (r regime) apply(e *Engine) *Engine {
	if r.driver {
		DriverStepped(e)
	}
	return e
}

// loadsProg is a single-thread program of k relaxed loads after the
// location's allocation: with one thread, every step after the first grants
// the thread that is running it.
func loadsProg(k int) capi.Program {
	return capi.Program{Name: "loads", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		for i := 0; i < k; i++ {
			env.Load(x, rlx)
		}
	}}
}

// matrixPrograms returns the 22 programs of the paper matrix: the data
// structures and the litmus tests (whose outcome strings are discarded).
func matrixPrograms() []capi.Program {
	var out string
	var progs []capi.Program
	for _, b := range structures.All() {
		progs = append(progs, b.New())
	}
	for _, lt := range litmus.Tests() {
		progs = append(progs, lt.Make(&out))
	}
	return progs
}

func mustBench(t *testing.T, name string) capi.Program {
	t.Helper()
	b, err := structures.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b.New()
}

// TestInlineContinuationResumes pins ExecStats.Resumes in both regimes.
// Inline, a single thread costs one resume, its start, however many
// operations it issues: the step its first operation takes on its own fiber
// dispatches that operation, and every later step grants it inline.
// Driver-stepped, the started thread parks on its first operation, and every
// granted operation costs a resume, so there the start adds one. On the
// paper's structures the inline regime resumes fewer times than it steps,
// while the steps and results match the driver-stepped regime's.
func TestInlineContinuationResumes(t *testing.T) {
	for _, k := range []int{1, 8, 64} {
		for _, r := range regimeConfigs {
			eng := r.engine(Config{})
			st := eng.Execute(loadsProg(k), 1)
			stats := eng.ExecStats()
			want := uint64(1)
			if r.driver {
				want = uint64(k + 2)
			}
			if stats.Steps != uint64(k+1) || stats.Resumes != want {
				t.Errorf("%s, %d loads: steps %d, resumes %d; want %d, %d",
					r.name, k, stats.Steps, stats.Resumes, k+1, want)
			}
			if st.Deadlocked || st.Truncated || st.Stats.AtomicOps != uint64(k+1) {
				t.Errorf("%s, %d loads: result %+v", r.name, k, st)
			}
			eng.Close()
		}
	}

	inline := newTool(Config{})
	driver := DriverStepped(newTool(Config{}))
	defer inline.Close()
	defer driver.Close()
	for _, name := range []string{"ms-queue", "seqlock"} {
		prog := mustBench(t, name)
		for seed := int64(1); seed <= 20; seed++ {
			got := poolDigestOf(inline, inline.Execute(prog, seed))
			is := inline.ExecStats()
			want := poolDigestOf(driver, driver.Execute(prog, seed))
			ds := driver.ExecStats()
			if !reflect.DeepEqual(got, want) || is.Steps != ds.Steps || is.Choices != ds.Choices {
				t.Fatalf("%s seed %d: inline %+v (steps %d, choices %d) != driver-stepped %+v (steps %d, choices %d)",
					name, seed, got, is.Steps, is.Choices, want, ds.Steps, ds.Choices)
			}
			if is.Resumes >= is.Steps {
				t.Errorf("%s seed %d: inline resumes %d, not below its %d steps", name, seed, is.Resumes, is.Steps)
			}
		}
	}
}

// TestHandoffWaitDisjointFromModelWork pins the handoff-wait accounting
// that the benchmark's traced pass reads: the wait (switches and program
// code) is a sub-interval of the run phase, even though a fiber runs engine
// steps inside the driver's timed resume, and the engine times no race span
// (race checks are counted, in ExecStats.RaceChecks).
func TestHandoffWaitDisjointFromModelWork(t *testing.T) {
	eng := newTool(Config{})
	defer eng.Close()
	eng.SetHandoffTiming(true)
	eng.SetPhaseTiming(true)
	for _, name := range []string{"ms-queue", "seqlock", "mcs-lock"} {
		prog := mustBench(t, name)
		for seed := int64(1); seed <= 50; seed++ {
			eng.Execute(prog, seed)
			st := eng.ExecStats()
			wait, run := st.HandoffWaitNS, st.PhaseNS[PhaseRun]
			if wait < 0 || wait > run {
				t.Fatalf("%s seed %d: handoff wait %d ns vs run %d ns; want 0 ≤ wait ≤ run", name, seed, wait, run)
			}
			if race := st.PhaseNS[PhaseRace]; race != 0 || st.RaceChecks == 0 {
				t.Fatalf("%s seed %d: race span %d ns over %d race checks; want no span and some checks",
					name, seed, race, st.RaceChecks)
			}
		}
	}
}

// panickyModel panics with value on the nth atomic load.
type panickyModel struct {
	*C11Model
	loads, n int
	value    any
}

func (m *panickyModel) AtomicLoad(t *ThreadState, op *capi.Op) memmodel.Value {
	if m.loads++; m.loads == m.n {
		panic(m.value)
	}
	return m.C11Model.AtomicLoad(t, op)
}

// TestInlineStepFailurePaths drives the failure paths of a step that runs on
// a program thread's fiber. Single-thread programs make every step after the
// first one inline. An engine failure there must surface exactly as it does
// from the driver: an infeasible state as EngineError, any other panic out of
// Execute, truncation and deadlock as result flags; and none of them may pass
// for a panic of the program, which would retire the worker.
func TestInlineStepFailurePaths(t *testing.T) {
	t.Run("infeasible", func(t *testing.T) {
		fm := &faultyModel{C11Model: NewC11Model()}
		eng := New("c11tester", fm, Config{StoreBurst: true})
		defer eng.Close()
		prog := loadsProg(4)
		eng.Execute(prog, 1)
		spawns := eng.WorkerSpawns()

		fm.failLoad, fm.loads = 2, 0
		res := eng.Execute(prog, 2)
		var ie *InfeasibleError
		if !errors.As(res.EngineError, &ie) {
			t.Fatalf("EngineError = %v, want the injected *InfeasibleError", res.EngineError)
		}
		for _, f := range res.AssertFailures {
			if strings.Contains(f.Message, "panic in thread") {
				t.Fatalf("engine failure reported as a program panic: %s", f.Message)
			}
		}
		if eng.WorkerSpawns() != spawns || eng.Workers() != 1 {
			t.Fatalf("recovery retired the worker: spawns %d → %d, %d live", spawns, eng.WorkerSpawns(), eng.Workers())
		}

		fm.failLoad = 0
		for seed := int64(3); seed < 8; seed++ {
			for _, p := range []capi.Program{prog, cleanCrossProg} {
				fresh := newTool(Config{})
				want := poolDigestOf(fresh, fresh.Execute(p, seed))
				wantStats := fresh.ExecStats()
				fresh.Close()
				got := poolDigestOf(eng, eng.Execute(p, seed))
				gotStats := eng.ExecStats()
				if !reflect.DeepEqual(got, want) || gotStats.Steps != wantStats.Steps || gotStats.Resumes != wantStats.Resumes {
					t.Fatalf("seed %d %s: after recovery %+v %+v != fresh %+v %+v", seed, p.Name, got, gotStats, want, wantStats)
				}
			}
		}
		if eng.WorkerSpawns() != spawns+1 {
			t.Fatalf("clean executions spawned workers: %d → %d (cross program needs one more)", spawns, eng.WorkerSpawns())
		}
	})

	t.Run("model-panic", func(t *testing.T) {
		type bug struct{ detail string }
		value := &bug{"model bug"}
		eng := New("c11tester", &panickyModel{C11Model: NewC11Model(), n: 3, value: value}, Config{StoreBurst: true})
		defer eng.Close()
		defer func() {
			if r := recover(); r != value {
				t.Fatalf("Execute panicked with %v, want the model's own value", r)
			}
		}()
		eng.Execute(loadsProg(4), 1)
		t.Fatal("a model panic did not propagate out of Execute")
	})

	t.Run("truncation", func(t *testing.T) {
		eng := newTool(Config{MaxSteps: 50})
		defer eng.Close()
		spin := capi.Program{Name: "spin", Run: func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			for {
				env.Load(x, rlx)
			}
		}}
		for seed := int64(1); seed <= 5; seed++ {
			res := eng.Execute(spin, seed)
			if st := eng.ExecStats(); !res.Truncated || st.Steps != 50 || len(res.AssertFailures) != 0 {
				t.Fatalf("seed %d: truncated %v after %d steps, failures %v; want truncation at 50",
					seed, res.Truncated, st.Steps, res.AssertFailures)
			}
		}
		if eng.WorkerSpawns() != 1 || eng.Workers() != 1 {
			t.Fatalf("truncation did not keep the pool warm: %d spawns, %d live", eng.WorkerSpawns(), eng.Workers())
		}
	})

	t.Run("self-deadlock", func(t *testing.T) {
		eng := newTool(Config{})
		defer eng.Close()
		selfJoin := capi.Program{Name: "self-join", Run: func(env capi.Env) {
			env.NewAtomic("x", 0)
			env.Join(capi.Thread{TID: env.TID()})
		}}
		for seed := int64(1); seed <= 5; seed++ {
			res := eng.Execute(selfJoin, seed)
			if !res.Deadlocked || res.Truncated || len(res.AssertFailures) != 0 {
				t.Fatalf("seed %d: deadlocked %v truncated %v failures %v; want a deadlock",
					seed, res.Deadlocked, res.Truncated, res.AssertFailures)
			}
		}
		if eng.WorkerSpawns() != 1 || eng.Workers() != 1 {
			t.Fatalf("deadlock did not keep the pool warm: %d spawns, %d live", eng.WorkerSpawns(), eng.Workers())
		}
	})
}

// TestDriverSteppedResumeCount pins the count README's Figure 14 prices:
// driver-stepped, an execution in which every thread finishes costs one
// resume per granted operation and one per thread start, so
//
//	Resumes = Steps − blocked dispatches + threads
//
// A dispatch that blocks is a step that grants nothing; the thread is
// re-dispatched, one step more, once it is woken. It runs the 22 programs
// of the paper matrix, and requires some executions to block so that the
// blocked term is exercised. The blocked dispatches are ExecStats.Blocked.
func TestDriverSteppedResumeCount(t *testing.T) {
	eng := DriverStepped(newTool(Config{}))
	defer eng.Close()
	blocked := 0
	for _, p := range matrixPrograms() {
		for seed := int64(1); seed <= 30; seed++ {
			res := eng.Execute(p, seed)
			st := eng.ExecStats()
			if res.Deadlocked || res.Truncated {
				t.Fatalf("%s seed %d: deadlocked %v, truncated %v", p.Name, seed, res.Deadlocked, res.Truncated)
			}
			if want := st.Steps - st.Blocked + uint64(len(eng.threads)); st.Resumes != want {
				t.Fatalf("%s seed %d: %d resumes; want %d steps − %d blocked + %d threads = %d",
					p.Name, seed, st.Resumes, st.Steps, st.Blocked, len(eng.threads), want)
			}
			if st.Blocked > 0 {
				blocked++
			}
		}
	}
	if blocked == 0 {
		t.Fatal("no execution blocked a dispatch; the blocked term is not covered")
	}
}
