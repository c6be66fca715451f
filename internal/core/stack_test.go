package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
	"c11tester/internal/sched"
)

// The fiber stack: a thread whose step picks another passes it the turn from
// its own fiber and stays below it (see package sched). These tests drive
// the engine's failure paths while fibers are stacked, and pin what the
// stacked handoff saves.

// fiberDepth counts the program fibers below the top of the fiber stack:
// each waits in sched's resume for the thread above it to pass the turn
// back.
func fiberDepth() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
		if bytes.Contains(g, []byte("created by iter.Pull[")) && bytes.Contains(g, []byte("sched.(*Scheduler).resume(")) {
			n++
		}
	}
	return n
}

// stackedLoads is main and three children, each issuing two relaxed loads;
// main then joins the three.
var stackedLoads = capi.Program{Name: "stacked-loads", Run: func(env capi.Env) {
	x := env.NewAtomic("x", 0)
	loads := func(env capi.Env) {
		env.Load(x, rlx)
		env.Load(x, rlx)
	}
	var ths [3]capi.Thread
	for i := range ths {
		ths[i] = env.Spawn("loads", loads)
	}
	loads(env)
	for _, th := range ths {
		env.Join(th)
	}
}}

// depthModel records the fiber depth at the model's nth atomic load, and
// panics there with fail when fail is set.
type depthModel struct {
	*C11Model
	loads, n int
	depth    int
	fail     any
}

func (m *depthModel) AtomicLoad(t *ThreadState, op *capi.Op) memmodel.Value {
	if m.loads++; m.loads == m.n {
		m.depth = fiberDepth()
		if m.fail != nil {
			panic(m.fail)
		}
	}
	return m.C11Model.AtomicLoad(t, op)
}

// TestStackedInfeasible injects an InfeasibleError at every atomic load of
// stackedLoads, over several seeds: the execution ends with EngineError set
// wherever the failing step runs, including on fibers two deep, no
// failure passes for a program panic, the pool stays warm, and the next
// clean execution matches a fresh engine's.
func TestStackedInfeasible(t *testing.T) {
	dm := &depthModel{C11Model: NewC11Model()}
	eng := New("c11tester", dm, Config{StoreBurst: true})
	defer eng.Close()
	eng.Execute(stackedLoads, 0)
	spawns := eng.WorkerSpawns()
	deepest := 0
	for seed := int64(1); seed <= 30; seed++ {
		for n := 1; n <= 8; n++ {
			dm.loads, dm.n, dm.fail = 0, n, &InfeasibleError{Stage: "load", Detail: "injected for test"}
			res := eng.Execute(stackedLoads, seed)
			var ie *InfeasibleError
			if !errors.As(res.EngineError, &ie) {
				t.Fatalf("seed %d load %d: EngineError = %v, want the injected *InfeasibleError", seed, n, res.EngineError)
			}
			for _, f := range res.AssertFailures {
				if strings.Contains(f.Message, "panic in thread") {
					t.Fatalf("seed %d load %d: engine failure reported as a program panic: %s", seed, n, f.Message)
				}
			}
			deepest = max(deepest, dm.depth)
			if eng.WorkerSpawns() != spawns || eng.Workers() != 4 {
				t.Fatalf("seed %d load %d: recovery retired a worker: spawns %d → %d, %d live",
					seed, n, spawns, eng.WorkerSpawns(), eng.Workers())
			}
			dm.n = 0
			fresh := newTool(Config{})
			want := poolDigestOf(fresh, fresh.Execute(stackedLoads, seed))
			wantStats := fresh.ExecStats()
			fresh.Close()
			got := poolDigestOf(eng, eng.Execute(stackedLoads, seed))
			if gotStats := eng.ExecStats(); !reflect.DeepEqual(got, want) || gotStats.Steps != wantStats.Steps || gotStats.Resumes != wantStats.Resumes {
				t.Fatalf("seed %d load %d: after recovery %+v %+v != fresh %+v %+v", seed, n, got, gotStats, want, wantStats)
			}
		}
	}
	if deepest < 2 {
		t.Fatalf("deepest failing step ran %d fibers deep, want ≥ 2", deepest)
	}
}

// TestStackedRetire panics a child of stackedLoads after its first load, on
// every seed: the child's worker retires while fibers may be stacked below
// it, the panic is reported as the program's, the execution completes, and
// the pool replaces exactly the retired worker.
func TestStackedRetire(t *testing.T) {
	deepest := 0
	bomb := capi.Program{Name: "stacked-bomb", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		var ths [3]capi.Thread
		for i := range ths {
			ths[i] = env.Spawn("loads", func(env capi.Env) {
				env.Load(x, rlx)
				if env.TID() == 3 {
					deepest = max(deepest, fiberDepth())
					panic("kaboom")
				}
				env.Load(x, rlx)
			})
		}
		env.Load(x, rlx)
		for _, th := range ths {
			env.Join(th)
		}
	}}
	eng := newTool(Config{})
	defer eng.Close()
	for seed := int64(1); seed <= 30; seed++ {
		res := eng.Execute(bomb, seed)
		if res.Deadlocked || res.EngineError != nil || len(res.AssertFailures) != 1 || !strings.Contains(res.AssertFailures[0].Message, "kaboom") {
			t.Fatalf("seed %d: deadlocked %v, engine error %v, failures %+v; want the one program panic",
				seed, res.Deadlocked, res.EngineError, res.AssertFailures)
		}
		if eng.WorkerSpawns() != 4+int(seed-1) || eng.Workers() != 3 {
			t.Fatalf("seed %d: %d spawns, %d live; want one replacement per execution and 3 live",
				seed, eng.WorkerSpawns(), eng.Workers())
		}
	}
	if deepest < 2 {
		t.Fatalf("deepest panicking worker ran %d fibers deep, want ≥ 2", deepest)
	}
}

// probeEnd gives e a scheduler whose inline step records, in *depth, the
// deepest fiber stack a step ended the execution on.
func probeEnd(e *Engine) (depth *int) {
	depth = new(int)
	e.Close()
	e.sch = sched.New()
	e.sch.SetStep(func(done *sched.Thread) *sched.Thread {
		next := e.step(done)
		if next == nil {
			*depth = max(*depth, fiberDepth())
		}
		return next
	}, true)
	return depth
}

// TestStackedAbort ends executions by deadlock and by the step limit with
// every live thread in the fiber stack: the stack unwinds to the driver,
// Abort unwinds the threads, and the pool stays warm.
func TestStackedAbort(t *testing.T) {
	for _, c := range []struct {
		name string
		prog capi.Program
		max  uint64
		want func(*capi.Result) bool
	}{
		{"deadlock", capi.Program{Name: "join-main", Run: func(env capi.Env) {
			main := capi.Thread{TID: env.TID()}
			x := env.NewAtomic("x", 0)
			var child capi.Thread
			for i := 0; i < 3; i++ {
				child = env.Spawn("joiner", func(env capi.Env) {
					env.Load(x, rlx)
					env.Join(main)
				})
			}
			env.Load(x, rlx)
			env.Join(child)
		}}, 0, func(r *capi.Result) bool { return r.Deadlocked && !r.Truncated }},
		{"truncation", capi.Program{Name: "spinners", Run: func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			spin := func(env capi.Env) {
				for {
					env.Load(x, rlx)
				}
			}
			for i := 0; i < 3; i++ {
				env.Spawn("spin", spin)
			}
			spin(env)
		}}, 40, func(r *capi.Result) bool { return r.Truncated && !r.Deadlocked }},
	} {
		t.Run(c.name, func(t *testing.T) {
			eng := newTool(Config{MaxSteps: c.max})
			defer eng.Close()
			depth := probeEnd(eng)
			full := 0
			for seed := int64(1); seed <= 30; seed++ {
				*depth = 0
				res := eng.Execute(c.prog, seed)
				if !c.want(res) || len(res.AssertFailures) != 0 {
					t.Fatalf("seed %d: deadlocked %v, truncated %v, failures %v", seed, res.Deadlocked, res.Truncated, res.AssertFailures)
				}
				if *depth == 3 {
					full++
				}
				if eng.WorkerSpawns() != 4 || eng.Workers() != 4 {
					t.Fatalf("seed %d: %d spawns, %d live; want 4 warm workers", seed, eng.WorkerSpawns(), eng.Workers())
				}
			}
			if full == 0 {
				t.Fatal("no execution ended with all four threads in the fiber stack")
			}
		})
	}
}

// TestSwitchesPerResume pins what the stacked handoff saves: over the 22
// programs of the paper matrix, each program's coroutine switches stay
// within 1.3 times its resumes, where a driver that resumes every step's
// choice and takes the turn back costs exactly two switches per resume (the
// driver-stepped regime, checked per execution).
func TestSwitchesPerResume(t *testing.T) {
	inline := newTool(Config{})
	driver := DriverStepped(newTool(Config{}))
	defer inline.Close()
	defer driver.Close()
	for _, p := range matrixPrograms() {
		var switches, resumes int
		for seed := int64(1); seed <= 30; seed++ {
			inline.Execute(p, seed)
			switches += inline.sch.Switches()
			resumes += inline.sch.Resumes()
			driver.Execute(p, seed)
			if ds, dr := driver.sch.Switches(), driver.sch.Resumes(); ds != 2*dr {
				t.Fatalf("%s seed %d: driver-stepped %d switches for %d resumes, want twice as many", p.Name, seed, ds, dr)
			}
		}
		if float64(switches) > 1.3*float64(resumes) {
			t.Errorf("%s: %d switches for %d resumes, want ≤ 1.3 per resume", p.Name, switches, resumes)
		}
	}
}
