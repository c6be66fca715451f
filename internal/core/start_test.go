package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// Thread start: a spawned thread is bound but not run. It is schedulable
// from its spawn, its code first runs when a step picks it, and the step its
// first operation takes dispatches that operation without a second pick (see
// Engine.step). These tests cover the shapes where a thread's start meets
// something other than a plain first operation.

// regimeRun executes prog on a fresh engine per regime for seeds
// [1, seeds], checks each execution with check, and requires the two regimes
// to agree execution by execution on the outcome, the steps and the choices.
func regimeRun(t *testing.T, prog capi.Program, seeds int64, check func(seed int64, res *capi.Result, st ExecStats)) {
	t.Helper()
	type outcome struct {
		digest         poolDigest
		steps, choices uint64
	}
	var runs [2][]outcome
	for i, r := range regimeConfigs {
		eng := r.engine(Config{})
		for seed := int64(1); seed <= seeds; seed++ {
			res := eng.Execute(prog, seed)
			st := eng.ExecStats()
			if res.Deadlocked || res.Truncated || res.EngineError != nil {
				t.Fatalf("%s seed %d: deadlocked %v truncated %v engine error %v",
					r.name, seed, res.Deadlocked, res.Truncated, res.EngineError)
			}
			if check != nil {
				check(seed, res, st)
			}
			runs[i] = append(runs[i], outcome{poolDigestOf(eng, res), st.Steps, st.Choices})
		}
		eng.Close()
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("%s: the inline and driver-stepped regimes diverged:\n%+v\n%+v", prog.Name, runs[0], runs[1])
	}
}

// TestZeroOpThreadRunsOnce: a thread that issues no visible operation is a
// scheduling choice until it is picked, then runs once and finishes. Nothing
// deadlocks, whether it is joined, left running when main returns, or is
// main itself.
func TestZeroOpThreadRunsOnce(t *testing.T) {
	ran := 0
	idle := func(capi.Env) { ran++ }
	progs := []struct {
		prog           capi.Program
		steps, choices uint64
	}{
		// Spawn, then a Join that may block once before the idle thread runs.
		{capi.Program{Name: "joined", Run: func(env capi.Env) { env.Join(env.Spawn("idle", idle)) }}, 0, 0},
		// Spawn is the only operation. The strategy picks main, then the
		// idle thread.
		{capi.Program{Name: "detached", Run: func(env capi.Env) { env.Spawn("idle", idle) }}, 1, 2},
		// Main itself is picked once and issues nothing.
		{capi.Program{Name: "empty", Run: idle}, 0, 1},
	}
	for _, p := range progs {
		regimeRun(t, p.prog, 20, func(seed int64, res *capi.Result, st ExecStats) {
			if ran != 1 || len(res.AssertFailures) != 0 {
				t.Fatalf("%s seed %d: the idle body ran %d times, failures %v; want once, none", p.prog.Name, seed, ran, res.AssertFailures)
			}
			if p.choices != 0 && (st.Steps != p.steps || st.Choices != p.choices) {
				t.Fatalf("%s seed %d: %d steps, %d choices; want %d, %d", p.prog.Name, seed, st.Steps, st.Choices, p.steps, p.choices)
			}
			ran = 0
		})
	}

	// The trace records the spawn with the child's id, main's finish (the
	// spawn is main's last operation), then the child's.
	eng := newTool(Config{Trace: true})
	defer eng.Close()
	eng.Execute(progs[1].prog, 1)
	var got []string
	for _, a := range eng.Trace() {
		got = append(got, fmt.Sprintf("%v t%d v%d", a.Kind, a.TID, a.Value))
	}
	want := []string{
		fmt.Sprintf("%v t0 v1", memmodel.KThreadCreate),
		fmt.Sprintf("%v t0 v0", memmodel.KThreadFinish),
		fmt.Sprintf("%v t1 v0", memmodel.KThreadFinish),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trace %q, want %q", got, want)
	}
}

// TestPanicBeforeFirstOp: a thread that panics before its first operation is
// recorded once, when it is picked and runs, and its worker is retired and
// replaced by the next execution.
func TestPanicBeforeFirstOp(t *testing.T) {
	bomb := capi.Program{Name: "early-bomb", Run: func(env capi.Env) {
		env.Join(env.Spawn("bomb", func(capi.Env) { panic("early") }))
	}}
	const execs = 6
	for _, r := range regimeConfigs {
		eng := r.engine(Config{})
		for seed := int64(1); seed <= execs; seed++ {
			res := eng.Execute(bomb, seed)
			if res.Deadlocked || res.EngineError != nil || len(res.AssertFailures) != 1 ||
				!strings.Contains(res.AssertFailures[0].Message, `panic in thread "bomb": early`) {
				t.Fatalf("%s seed %d: deadlocked %v, engine error %v, failures %+v; want the panic recorded once",
					r.name, seed, res.Deadlocked, res.EngineError, res.AssertFailures)
			}
		}
		// Main's worker stays pooled; the bomb's slot gets a fresh worker
		// in every execution after the first.
		if eng.WorkerSpawns() != execs+1 || eng.Workers() != 1 {
			t.Fatalf("%s: %d worker spawns, %d live; want %d, 1", r.name, eng.WorkerSpawns(), eng.Workers(), execs+1)
		}
		want := poolDigestOf(eng, eng.Execute(cleanCrossProg, 99))
		fresh := r.engine(Config{})
		if got := poolDigestOf(fresh, fresh.Execute(cleanCrossProg, 99)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: after the panics %+v != fresh %+v", r.name, want, got)
		}
		fresh.Close()
		eng.Close()
	}
}

// TestFirstOpBlocksOnHeldMutex: a thread whose first operation blocks is
// blocked by that first dispatch, woken and re-dispatched, exactly like a
// later operation would be. The programs have no mutex (the name predates
// their removal), so the blocking operation is a join of the still-running
// main, which wakes the thread when main finishes.
func TestFirstOpBlocksOnHeldMutex(t *testing.T) {
	prog := capi.Program{Name: "first-op-blocks", Run: func(env capi.Env) {
		main := capi.Thread{TID: env.TID()}
		d := env.NewLoc("d", 0)
		env.Spawn("w", func(env capi.Env) {
			env.Join(main)
			v := env.Read(d)
			env.Assert(v == 1, "read %d after the join, want 1", v)
		})
		env.Write(d, 1)
	}}
	// Main issues 3 operations and w 2. The join may block once, and one
	// blocked dispatch is one more step.
	blocked := 0
	regimeRun(t, prog, 40, func(seed int64, res *capi.Result, st ExecStats) {
		if len(res.AssertFailures) != 0 || len(res.Races) != 0 || (st.Steps != 5 && st.Steps != 6) {
			t.Fatalf("seed %d: failures %v, races %v, %d steps; want none, none, 5 or 6", seed, res.AssertFailures, res.Races, st.Steps)
		}
		if st.Steps == 6 {
			blocked++
		}
	})
	if blocked == 0 {
		t.Fatal("no execution blocked the first operation; the shape is not covered")
	}
}

// TestFirstOpIsJoin: a thread whose first operation joins another thread
// blocks until that thread finishes, a target that has not started yet
// included, and then sees its writes.
func TestFirstOpIsJoin(t *testing.T) {
	aRan, early := false, 0
	prog := capi.Program{Name: "first-op-join", Run: func(env capi.Env) {
		aRan = false
		x := env.NewAtomic("x", 0)
		a := env.Spawn("a", func(env capi.Env) {
			aRan = true
			env.Store(x, 1, rlx)
		})
		b := env.Spawn("b", func(env capi.Env) {
			// b's join is dispatched by the step that picked b, so no other
			// thread runs between here and the join.
			if !aRan {
				early++
			}
			env.Join(a)
			env.Assert(env.Load(x, rlx) == 1, "load after join read the initial value")
		})
		env.Join(b)
	}}
	regimeRun(t, prog, 40, func(seed int64, res *capi.Result, _ ExecStats) {
		if len(res.AssertFailures) != 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures)
		}
	})
	if early == 0 {
		t.Fatal("no execution joined a thread that had not started; the shape is not covered")
	}
}

// TestSpawnFromNonMain: a thread spawned by a thread other than main starts
// on its first pick like any other, inheriting its parent's clock.
func TestSpawnFromNonMain(t *testing.T) {
	prog := capi.Program{Name: "nested-spawn", Run: func(env capi.Env) {
		d := env.NewLoc("d", 0)
		env.Join(env.Spawn("parent", func(env capi.Env) {
			env.Write(d, 1)
			env.Join(env.Spawn("child", func(env capi.Env) {
				env.Assert(env.Read(d) == 1, "child missed its parent's write")
				env.Write(d, 2)
			}))
		}))
		env.Assert(env.Read(d) == 2, "main missed the grandchild's write")
	}}
	regimeRun(t, prog, 40, func(seed int64, res *capi.Result, _ ExecStats) {
		if len(res.AssertFailures) != 0 || len(res.Races) != 0 {
			t.Fatalf("seed %d: failures %v, races %v", seed, res.AssertFailures, res.Races)
		}
	})
}

// spinnersProg spawns three threads that load x forever while main does
// the same, so truncation and injected failures end executions in which some
// threads never started. *started counts the threads that did.
func spinnersProg(started *int) capi.Program {
	return capi.Program{Name: "spinners", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		spin := func(env capi.Env) {
			*started++
			for {
				env.Load(x, rlx)
			}
		}
		for i := 0; i < 3; i++ {
			env.Spawn("spinner", spin)
		}
		spin(env)
	}}
}

// TestNeverStartedThreadsPooledEqualsFresh: a MaxSteps truncation or an
// InfeasibleError abort that ends an execution before some threads started
// leaves the pooled engine exactly as a fresh one, execution by execution,
// in both regimes.
func TestNeverStartedThreadsPooledEqualsFresh(t *testing.T) {
	started := 0
	prog := spinnersProg(&started)
	for _, r := range regimeConfigs {
		cases := []struct {
			name string
			new  func() (*Engine, func())
		}{
			{"truncation", func() (*Engine, func()) {
				return r.engine(Config{MaxSteps: 6}), func() {}
			}},
			{"infeasible", func() (*Engine, func()) {
				fm := &faultyModel{C11Model: NewC11Model(), failLoad: 2}
				return r.apply(New("c11tester", fm, Config{StoreBurst: true})), func() { fm.loads = 0 }
			}},
		}
		for _, c := range cases {
			pooled, rearm := c.new()
			short := 0
			for seed := int64(1); seed <= 30; seed++ {
				rearm()
				started = 0
				res := pooled.Execute(prog, seed)
				got, gotStats, gotStarted := poolDigestOf(pooled, res), pooled.ExecStats(), started
				if c.name == "truncation" && !res.Truncated || c.name == "infeasible" && res.EngineError == nil {
					t.Fatalf("%s %s seed %d: truncated %v, engine error %v", r.name, c.name, seed, res.Truncated, res.EngineError)
				}
				fresh, _ := c.new()
				started = 0
				want := poolDigestOf(fresh, fresh.Execute(prog, seed))
				wantStats := fresh.ExecStats()
				fresh.Close()
				if !reflect.DeepEqual(got, want) || gotStarted != started || gotStats.Steps != wantStats.Steps ||
					gotStats.Choices != wantStats.Choices || gotStats.Resumes != wantStats.Resumes {
					t.Fatalf("%s %s seed %d: pooled %+v %+v (%d started) != fresh %+v %+v (%d started)",
						r.name, c.name, seed, got, gotStats, gotStarted, want, wantStats, started)
				}
				if gotStarted < 4 {
					short++
				}
			}
			if short == 0 {
				t.Fatalf("%s %s: every execution started all threads; the shape is not covered", r.name, c.name)
			}
			pooled.Close()
		}
	}
}

// firstReady is a deterministic strategy: the lowest ready thread, the first
// candidate.
type firstReady struct{}

func (firstReady) Seed(int64)                                   {}
func (firstReady) PickThread(ready []*ThreadState) *ThreadState { return ready[0] }
func (firstReady) PickIndex(int) int                            { return 0 }

// TestStartCostsNoExtraResume pins resumes on a 3-thread MP program under
// a fixed schedule. Main runs until its first join blocks, a runs to its
// end, main joins it and blocks on b, b runs to its end, main finishes.
// Inline that is 5 resumes: main's start, a's start, main, b's start, main.
// A spawn that ran the new thread to its first operation would add one per
// thread, 8 in all. Driver-stepped, every granted operation costs a resume
// (10: 12 steps less the 2 joins that blocked) and every start one (3): 13,
// the same as such a spawn, since there a started thread parks on its first
// operation.
func TestStartCostsNoExtraResume(t *testing.T) {
	prog := capi.Program{Name: "mp3", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		a := env.Spawn("a", func(env capi.Env) {
			env.Store(x, 1, rlx)
			env.Store(y, 1, rel)
		})
		b := env.Spawn("b", func(env capi.Env) {
			env.Load(y, acq)
			env.Load(x, rlx)
		})
		env.Join(a)
		env.Join(b)
	}}
	for _, r := range regimeConfigs {
		eng := r.engine(Config{Strategy: firstReady{}})
		res := eng.Execute(prog, 1)
		st := eng.ExecStats()
		want := uint64(5)
		if r.driver {
			want = 13
		}
		if res.Deadlocked || len(res.AssertFailures) != 0 || st.Resumes != want {
			t.Fatalf("%s: deadlocked %v, failures %v, %d resumes; want %d", r.name, res.Deadlocked, res.AssertFailures, st.Resumes, want)
		}
		eng.Close()
	}
}
