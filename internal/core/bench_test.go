package core

import (
	"fmt"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// Benchmark programs covering the engine's hot-path shapes: release/acquire
// message passing (the litmus shape), RMW contention (mo-graph chains with
// RMW migration), store bursts (long same-location histories), and mixed
// atomic/non-atomic traffic through the race detector. Every benchmark runs
// repeated executions on ONE engine instance — the steady state the arenas
// and pools are built for — and reports allocations per execution.

func benchProgMP() capi.Program {
	return capi.Program{Name: "bench-mp", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Store(x, 1, rlx)
			env.Store(y, 1, rel)
		})
		b := env.Spawn("B", func(env capi.Env) {
			if env.Load(y, acq) == 1 {
				env.Load(x, rlx)
			}
		})
		env.Join(a)
		env.Join(b)
	}}
}

func benchProgRMW(iters, threads int) capi.Program {
	return capi.Program{Name: "bench-rmw", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		var ths []capi.Thread
		for i := 0; i < threads; i++ {
			ths = append(ths, env.Spawn(fmt.Sprintf("t%d", i), func(env capi.Env) {
				for k := 0; k < iters; k++ {
					env.FetchAdd(x, 1, rlx)
				}
			}))
		}
		for _, th := range ths {
			env.Join(th)
		}
	}}
}

func benchProgStoreHeavy(iters int) capi.Program {
	return capi.Program{Name: "bench-stores", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		a := env.Spawn("producer", func(env capi.Env) {
			for i := 1; i <= iters; i++ {
				env.Store(x, memmodel.Value(i), rlx)
			}
		})
		for i := 0; i < iters/4; i++ {
			env.Load(x, rlx)
		}
		env.Join(a)
	}}
}

func benchProgMixed() capi.Program {
	return capi.Program{Name: "bench-mixed", Run: func(env capi.Env) {
		d := env.NewLoc("data", 0)
		f := env.NewAtomic("flag", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Write(d, env.Read(d)+1)
			env.Store(f, 1, rel)
			env.Fence(sc)
		})
		if env.Load(f, acq) == 1 {
			env.Read(d)
		}
		env.Join(a) // blocks while A runs
		env.Write(d, env.Read(d)+1)
	}}
}

func benchExecute(b *testing.B, tool *Engine, prog capi.Program) {
	b.Helper()
	// Warm the pools so the measured window reflects steady state.
	for i := 0; i < 3; i++ {
		tool.Execute(prog, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tool.Execute(prog, int64(i))
	}
}

func BenchmarkExecuteMessagePassing(b *testing.B) {
	benchExecute(b, newTool(Config{}), benchProgMP())
}

func BenchmarkExecuteRMWContention(b *testing.B) {
	benchExecute(b, newTool(Config{}), benchProgRMW(8, 4))
}

func BenchmarkExecuteStoreHeavy(b *testing.B) {
	benchExecute(b, newTool(Config{}), benchProgStoreHeavy(128))
}

func BenchmarkExecuteMixedSync(b *testing.B) {
	benchExecute(b, newTool(Config{}), benchProgMixed())
}

// BenchmarkExecuteTraceMode measures the recording overhead: the trace slice
// and its arena Actions are recycled, so trace mode must not re-introduce
// per-action heap allocation.
func BenchmarkExecuteTraceMode(b *testing.B) {
	benchExecute(b, newTool(Config{Trace: true}), benchProgStoreHeavy(64))
}

// spawnJoin is a program whose main spawns n threads that each do one
// relaxed store, then joins them. The child body and the handles live on the
// program value, so its executions allocate nothing.
type spawnJoin struct {
	n       int
	x       capi.Loc
	child   func(capi.Env)
	threads [3]capi.Thread
}

func spawnJoinProg(n int) capi.Program {
	p := &spawnJoin{n: n}
	p.child = func(env capi.Env) { env.Store(p.x, 1, rlx) }
	return capi.Program{Name: "spawn-join", Run: p.run}
}

func (p *spawnJoin) run(env capi.Env) {
	p.x = env.NewAtomic("x", 0)
	for i := 0; i < p.n; i++ {
		p.threads[i] = env.Spawn("w", p.child)
	}
	for i := 0; i < p.n; i++ {
		env.Join(p.threads[i])
	}
}

// BenchmarkSpawnJoin prices thread start and join, the fixed per-thread
// cost of short executions: one execution of spawnJoinProg on a warm engine
// per iteration, reported as ns/exec and resumes/exec (one per thread's
// start plus one per handoff back to a thread that parked).
func BenchmarkSpawnJoin(b *testing.B) {
	for _, n := range []int{1, 3} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			eng := newTool(Config{})
			defer eng.Close()
			prog := spawnJoinProg(n)
			for i := 0; i < 3; i++ {
				eng.Execute(prog, int64(i))
			}
			var resumes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Execute(prog, int64(i))
				resumes += eng.ExecStats().Resumes
			}
			b.StopTimer() // the deferred Close is not an execution
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/exec")
			b.ReportMetric(float64(resumes)/float64(b.N), "resumes/exec")
		})
	}
}

// TestArenaSteadyStateStopsGrowing pins the arena contract: after the first
// execution of a program, repeated executions re-use the arena storage
// instead of growing it.
func TestArenaSteadyStateStopsGrowing(t *testing.T) {
	tool := newTool(Config{})
	prog := benchProgRMW(6, 3)
	tool.Execute(prog, 1)
	actions := tool.ActionCount()
	cvCap := tool.cvs.Cap()
	for seed := int64(2); seed < 12; seed++ {
		tool.Execute(prog, seed)
		if got := tool.cvs.Cap(); got > cvCap {
			// Different schedules may create slightly different counts, but
			// the arena capacity must settle, not grow per execution.
			cvCap = got
		}
	}
	settled := tool.cvs.Cap()
	for seed := int64(12); seed < 22; seed++ {
		tool.Execute(prog, seed)
	}
	if tool.cvs.Cap() != settled {
		t.Fatalf("clock arena still growing in steady state: %d → %d", settled, tool.cvs.Cap())
	}
	if tool.ActionCount() == 0 || actions == 0 {
		t.Fatal("executions must allocate arena actions")
	}
}
