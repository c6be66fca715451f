package baseline

import (
	"fmt"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

const (
	rlx = memmodel.Relaxed
	acq = memmodel.Acquire
	rel = memmodel.Release
	sc  = memmodel.SeqCst
)

func outcomes(t *testing.T, tool capi.Tool, n int, out *string, body func(capi.Env)) map[string]int {
	t.Helper()
	hist := map[string]int{}
	prog := capi.Program{Name: t.Name(), Run: body}
	for seed := 0; seed < n; seed++ {
		*out = ""
		res := tool.Execute(prog, int64(seed))
		if res.Deadlocked || res.Truncated {
			t.Fatalf("seed %d: deadlock/truncation", seed)
		}
		hist[*out]++
	}
	return hist
}

func tools() []capi.Tool {
	return []capi.Tool{NewTsan11(), NewTsan11rec()}
}

// commitModel is the baselines' memory model with the given history bound
// and record log, under the conservative tsan-runtime clocks or precise C11
// ones.
func commitModel(historyLimit int, record, conservative bool) *CommitModel {
	m := NewCommitModel(historyLimit, record)
	m.SetConservativeSync(conservative)
	return m
}

func TestBaselinesAllowStaleRelaxedReads(t *testing.T) {
	// With precise C11 clocks, the commit-order model does explore stale
	// values within its history.
	for _, tool := range []capi.Tool{
		core.New("tsan11", commitModel(0, false, false), core.Config{Strategy: core.NewQuantumStrategy(tsan11Quantum)}),
		core.New("tsan11rec", commitModel(0, true, false), core.Config{}),
	} {
		var out string
		hist := outcomes(t, tool, 400, &out, func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			y := env.NewAtomic("y", 0)
			a := env.Spawn("A", func(env capi.Env) {
				env.Store(x, 1, rlx)
				env.Store(y, 1, rlx)
			})
			b := env.Spawn("B", func(env capi.Env) {
				r1 := env.Load(y, rlx)
				r2 := env.Load(x, rlx)
				out = fmt.Sprintf("r1=%d r2=%d", r1, r2)
			})
			env.Join(a)
			env.Join(b)
		})
		if hist["r1=1 r2=0"] == 0 {
			t.Errorf("%s: never produced the stale-read MP outcome: %v", tool.Name(), hist)
		}
	}
}

func TestBaselinesRespectReleaseAcquire(t *testing.T) {
	for _, tool := range tools() {
		var out string
		hist := outcomes(t, tool, 400, &out, func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			y := env.NewAtomic("y", 0)
			a := env.Spawn("A", func(env capi.Env) {
				env.Store(x, 1, rlx)
				env.Store(y, 1, rel)
			})
			b := env.Spawn("B", func(env capi.Env) {
				r1 := env.Load(y, acq)
				r2 := env.Load(x, rlx)
				out = fmt.Sprintf("r1=%d r2=%d", r1, r2)
			})
			env.Join(a)
			env.Join(b)
		})
		if hist["r1=1 r2=0"] != 0 {
			t.Errorf("%s: release/acquire MP violated: %v", tool.Name(), hist)
		}
	}
}

func TestBaselinesForbidSeqCstSBBothZero(t *testing.T) {
	for _, tool := range tools() {
		var out string
		hist := outcomes(t, tool, 300, &out, func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			y := env.NewAtomic("y", 0)
			var r1, r2 memmodel.Value
			a := env.Spawn("A", func(env capi.Env) {
				env.Store(x, 1, sc)
				r1 = env.Load(y, sc)
			})
			b := env.Spawn("B", func(env capi.Env) {
				env.Store(y, 1, sc)
				r2 = env.Load(x, sc)
			})
			env.Join(a)
			env.Join(b)
			out = fmt.Sprintf("%d%d", r1, r2)
		})
		if hist["00"] != 0 {
			t.Errorf("%s: seq_cst SB produced 00: %v", tool.Name(), hist)
		}
	}
}

// mowSeparator is the behaviour that separates the memory-model fragments
// (Section 1.1): two relaxed stores whose *commit* order is pinned by a
// relaxed flag chain, read fresh-then-stale by a third thread. Legal under
// C/C++11 (no hb between the stores, so mo may oppose commit order); illegal
// when hb ∪ sc ∪ rf ∪ mo must be acyclic with mo = commit order.
func mowSeparator(out *string) func(capi.Env) {
	return func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		f := env.NewAtomic("f", 0)
		g := env.NewAtomic("g", 0)
		w1 := env.Spawn("w1", func(env capi.Env) {
			env.Store(x, 1, rlx)
			env.Store(f, 1, rlx)
		})
		w2 := env.Spawn("w2", func(env capi.Env) {
			for i := 0; i < 200 && env.Load(f, rlx) == 0; i++ {
				env.Yield()
			}
			if env.Load(f, rlx) == 0 {
				return // scheduling starved the flag; skip this run
			}
			env.Store(x, 2, rlx)
			env.Store(g, 1, rlx)
		})
		r := env.Spawn("r", func(env capi.Env) {
			for i := 0; i < 200 && env.Load(g, rlx) == 0; i++ {
				env.Yield()
			}
			if env.Load(g, rlx) == 0 {
				return
			}
			a := env.Load(x, rlx)
			b := env.Load(x, rlx)
			*out = fmt.Sprintf("%d%d", a, b)
		})
		env.Join(w1)
		env.Join(w2)
		env.Join(r)
	}
}

func TestSeparatorAllowedByC11Tester(t *testing.T) {
	tool := core.New("c11tester", core.NewC11Model(), core.Config{StoreBurst: true})
	var out string
	hist := outcomes(t, tool, 3000, &out, mowSeparator(&out))
	if hist["21"] == 0 {
		t.Errorf("C11Tester never produced the 2-then-1 read (mo opposing commit order): %v", hist)
	}
}

func TestSeparatorForbiddenByBaselines(t *testing.T) {
	for _, tool := range tools() {
		var out string
		hist := outcomes(t, tool, 1500, &out, mowSeparator(&out))
		if hist["21"] != 0 {
			t.Errorf("%s produced 2-then-1, which its memory model forbids: %v", tool.Name(), hist)
		}
	}
}

func TestConservativeSyncHidesRelaxedPublicationRace(t *testing.T) {
	// The default (conservative) clock treatment turns relaxed atomics into
	// synchronization, hiding races behind relaxed flag chains — the
	// mechanism by which the real tools miss the Section 8.1 injected bugs.
	// C11Tester's precise treatment reports them (TestRelaxedPublicationRaces
	// in internal/core).
	prog := capi.Program{Name: "badpub", Run: func(env capi.Env) {
		d := env.NewLoc("data", 0)
		f := env.NewAtomic("flag", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Write(d, 42)
			env.Store(f, 1, rlx)
		})
		b := env.Spawn("B", func(env capi.Env) {
			if env.Load(f, rlx) == 1 {
				env.Read(d)
			}
		})
		env.Join(a)
		env.Join(b)
	}}
	for _, tool := range tools() {
		for seed := 0; seed < 200; seed++ {
			if res := tool.Execute(prog, int64(seed)); len(res.Races) > 0 {
				t.Fatalf("%s: conservative sync should hide this race: %v", tool.Name(), res.Races[0])
			}
		}
	}
}

func TestBaselinesDetectPlainRaces(t *testing.T) {
	for _, mk := range []func() capi.Tool{
		func() capi.Tool {
			return core.New("tsan11", commitModel(0, false, true), core.Config{Strategy: core.NewQuantumStrategy(3)})
		},
		func() capi.Tool { return NewTsan11rec() },
	} {
		tool := mk()
		prog := capi.Program{Name: "race", Run: func(env capi.Env) {
			d := env.NewLoc("data", 0)
			a := env.Spawn("A", func(env capi.Env) { env.Write(d, 1) })
			env.Write(d, 2)
			env.Join(a)
		}}
		raced := 0
		for seed := 0; seed < 50; seed++ {
			if res := tool.Execute(prog, int64(seed)); len(res.Races) > 0 {
				raced++
			}
		}
		if raced == 0 {
			t.Errorf("%s never detected the unsynchronized race", tool.Name())
		}
	}
}

func TestRMWAlwaysReadsCommitLatest(t *testing.T) {
	for _, tool := range tools() {
		prog := capi.Program{Name: "rmw", Run: func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			var threads []capi.Thread
			for i := 0; i < 3; i++ {
				threads = append(threads, env.Spawn("t", func(env capi.Env) {
					for k := 0; k < 4; k++ {
						env.FetchAdd(x, 1, rlx)
					}
				}))
			}
			for _, th := range threads {
				env.Join(th)
			}
			env.Assert(env.Load(x, sc) == 12, "lost update")
		}}
		for seed := 0; seed < 100; seed++ {
			res := tool.Execute(prog, int64(seed))
			if len(res.AssertFailures) > 0 {
				t.Fatalf("%s seed %d: %v", tool.Name(), seed, res.AssertFailures[0])
			}
		}
	}
}

func TestHistoryBoundEnforced(t *testing.T) {
	// Reads must never reach past the history bound: with the bound at 4,
	// a reader can lag at most 4 stores behind.
	tool := core.New("tsan11rec", commitModel(4, true, true), core.Config{})
	prog := capi.Program{Name: "hist", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		a := env.Spawn("w", func(env capi.Env) {
			for i := 1; i <= 100; i++ {
				env.Store(x, memmodel.Value(i), rlx)
			}
		})
		env.Join(a)
		v := env.Load(x, rlx)
		env.Assert(v >= 97, "read %d, beyond the history bound", v)
	}}
	for seed := 0; seed < 100; seed++ {
		res := tool.Execute(prog, int64(seed))
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
	}
}

func TestRecordLogPopulated(t *testing.T) {
	model := NewCommitModel(0, true)
	tool := core.New("tsan11rec", model, core.Config{
		// Plain handoff keeps the test fast; the log is what's under test.
	})
	prog := capi.Program{Name: "log", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		env.Store(x, 1, rlx)
		env.Load(x, rlx)
		env.FetchAdd(x, 1, rlx)
		env.Fence(sc)
	}}
	tool.Execute(prog, 1)
	if n := model.RecordLogLen(); n < 4 {
		t.Errorf("record log holds %d entries, want at least 4", n)
	}
}

func TestBaselineCoherenceMonotoneReads(t *testing.T) {
	for _, tool := range tools() {
		prog := capi.Program{Name: "corr", Run: func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			a := env.Spawn("w", func(env capi.Env) {
				for i := 1; i <= 50; i++ {
					env.Store(x, memmodel.Value(i), rlx)
				}
			})
			last := memmodel.Value(0)
			for i := 0; i < 50; i++ {
				v := env.Load(x, rlx)
				env.Assert(v >= last, "reads went backwards: %d after %d", v, last)
				last = v
			}
			env.Join(a)
		}}
		for seed := 0; seed < 50; seed++ {
			res := tool.Execute(prog, int64(seed))
			if len(res.AssertFailures) > 0 {
				t.Fatalf("%s seed %d: %v", tool.Name(), seed, res.AssertFailures[0])
			}
		}
	}
}
