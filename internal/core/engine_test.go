package core

import (
	"fmt"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

const (
	rlx = memmodel.Relaxed
	acq = memmodel.Acquire
	rel = memmodel.Release
	sc  = memmodel.SeqCst
)

func newTool(cfg Config) *Engine {
	cfg.StoreBurst = true
	return New("c11tester", NewC11Model(), cfg)
}

// outcomes runs prog n times and histograms the string written to *out by
// each execution.
func outcomes(t *testing.T, tool *Engine, n int, out *string, body func(capi.Env)) map[string]int {
	t.Helper()
	hist := map[string]int{}
	prog := capi.Program{Name: t.Name(), Run: body}
	for seed := 0; seed < n; seed++ {
		*out = ""
		res := tool.Execute(prog, int64(seed))
		if res.Deadlocked {
			t.Fatalf("seed %d: unexpected deadlock", seed)
		}
		if res.Truncated {
			t.Fatalf("seed %d: unexpected truncation", seed)
		}
		hist[*out]++
	}
	return hist
}

func TestMessagePassingRelaxedAllowsStaleRead(t *testing.T) {
	var out string
	hist := outcomes(t, newTool(Config{}), 400, &out, func(env capi.Env) {
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
	// The counter-intuitive weak behaviour of Figure 2 must be producible.
	if hist["r1=1 r2=0"] == 0 {
		t.Errorf("relaxed MP never produced r1=1 r2=0: %v", hist)
	}
	// And the SC behaviours as well.
	for _, want := range []string{"r1=0 r2=0", "r1=1 r2=1"} {
		if hist[want] == 0 {
			t.Errorf("missing outcome %q: %v", want, hist)
		}
	}
}

func TestMessagePassingReleaseAcquireForbidsStaleRead(t *testing.T) {
	var out string
	hist := outcomes(t, newTool(Config{}), 400, &out, func(env capi.Env) {
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
		t.Errorf("release/acquire MP produced the forbidden r1=1 r2=0: %v", hist)
	}
	if hist["r1=1 r2=1"] == 0 {
		t.Errorf("release/acquire MP never synchronized: %v", hist)
	}
}

func TestStoreBufferingRelaxedAllowsBothZero(t *testing.T) {
	var out string
	hist := outcomes(t, newTool(Config{}), 300, &out, func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		var r1, r2 memmodel.Value
		a := env.Spawn("A", func(env capi.Env) {
			env.Store(x, 1, rlx)
			r1 = env.Load(y, rlx)
		})
		b := env.Spawn("B", func(env capi.Env) {
			env.Store(y, 1, rlx)
			r2 = env.Load(x, rlx)
		})
		env.Join(a)
		env.Join(b)
		out = fmt.Sprintf("r1=%d r2=%d", r1, r2)
	})
	if hist["r1=0 r2=0"] == 0 {
		t.Errorf("relaxed SB never produced r1=r2=0: %v", hist)
	}
}

func TestStoreBufferingSeqCstForbidsBothZero(t *testing.T) {
	var out string
	hist := outcomes(t, newTool(Config{}), 300, &out, func(env capi.Env) {
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
		out = fmt.Sprintf("r1=%d r2=%d", r1, r2)
	})
	if hist["r1=0 r2=0"] != 0 {
		t.Errorf("seq_cst SB produced the forbidden r1=r2=0: %v", hist)
	}
}

func TestLoadBufferingForbidden(t *testing.T) {
	// Out-of-thin-air / load buffering requires an rf ∪ sb cycle, which the
	// model forbids (hb ∪ sc ∪ rf acyclic, Section 2.2 change 2).
	var out string
	hist := outcomes(t, newTool(Config{}), 300, &out, func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		var r1, r2 memmodel.Value
		a := env.Spawn("A", func(env capi.Env) {
			r1 = env.Load(y, rlx)
			env.Store(x, 1, rlx)
		})
		b := env.Spawn("B", func(env capi.Env) {
			r2 = env.Load(x, rlx)
			env.Store(y, 1, rlx)
		})
		env.Join(a)
		env.Join(b)
		out = fmt.Sprintf("r1=%d r2=%d", r1, r2)
	})
	if hist["r1=1 r2=1"] != 0 {
		t.Errorf("load buffering outcome produced: %v", hist)
	}
}

func TestCoherenceSameThreadStores(t *testing.T) {
	var out string
	hist := outcomes(t, newTool(Config{}), 400, &out, func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Store(x, 1, rlx)
			env.Store(x, 2, rlx)
		})
		b := env.Spawn("B", func(env capi.Env) {
			r1 := env.Load(x, rlx)
			r2 := env.Load(x, rlx)
			out = fmt.Sprintf("%d%d", r1, r2)
		})
		env.Join(a)
		env.Join(b)
	})
	for o := range hist {
		if o == "21" || o == "10" || o == "20" {
			t.Errorf("coherence violation %q observed: %v", o, hist)
		}
	}
	if hist["12"] == 0 {
		t.Errorf("never observed the 1-then-2 progression: %v", hist)
	}
}

func TestFigure4BiasIsRemoved(t *testing.T) {
	// With the store-burst rule, r1 should read 1 and 2 about equally often
	// (Section 3, Figure 4).
	var out string
	hist := outcomes(t, newTool(Config{}), 2000, &out, func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Store(x, 1, rlx)
			env.Store(x, 2, rlx)
		})
		b := env.Spawn("B", func(env capi.Env) {
			out = fmt.Sprintf("%d", env.Load(x, rlx))
		})
		env.Join(a)
		env.Join(b)
	})
	ones, twos := hist["1"], hist["2"]
	if ones == 0 || twos == 0 {
		t.Fatalf("missing outcomes: %v", hist)
	}
	ratio := float64(ones) / float64(twos)
	if ratio < 0.6 || ratio > 1.67 {
		t.Errorf("store-burst rule should balance 1 and 2: ones=%d twos=%d", ones, twos)
	}
}

func TestIRIWSeqCstForbidden(t *testing.T) {
	var out string
	hist := outcomes(t, newTool(Config{}), 500, &out, func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		var a1, a2, b1, b2 memmodel.Value
		w1 := env.Spawn("w1", func(env capi.Env) { env.Store(x, 1, sc) })
		w2 := env.Spawn("w2", func(env capi.Env) { env.Store(y, 1, sc) })
		r1 := env.Spawn("r1", func(env capi.Env) { a1 = env.Load(x, sc); a2 = env.Load(y, sc) })
		r2 := env.Spawn("r2", func(env capi.Env) { b1 = env.Load(y, sc); b2 = env.Load(x, sc) })
		for _, th := range []capi.Thread{w1, w2, r1, r2} {
			env.Join(th)
		}
		out = fmt.Sprintf("%d%d%d%d", a1, a2, b1, b2)
	})
	if hist["1010"] != 0 {
		t.Errorf("seq_cst IRIW produced forbidden 1010: %v", hist)
	}
}

func TestIRIWAcquireAllowed(t *testing.T) {
	var out string
	hist := outcomes(t, newTool(Config{}), 1500, &out, func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		var a1, a2, b1, b2 memmodel.Value
		w1 := env.Spawn("w1", func(env capi.Env) { env.Store(x, 1, rel) })
		w2 := env.Spawn("w2", func(env capi.Env) { env.Store(y, 1, rel) })
		r1 := env.Spawn("r1", func(env capi.Env) { a1 = env.Load(x, acq); a2 = env.Load(y, acq) })
		r2 := env.Spawn("r2", func(env capi.Env) { b1 = env.Load(y, acq); b2 = env.Load(x, acq) })
		for _, th := range []capi.Thread{w1, w2, r1, r2} {
			env.Join(th)
		}
		out = fmt.Sprintf("%d%d%d%d", a1, a2, b1, b2)
	})
	if hist["1010"] == 0 {
		t.Errorf("acquire IRIW never produced the ARM-observable 1010: %v", hist)
	}
}

func TestRMWAtomicity(t *testing.T) {
	tool := newTool(Config{})
	prog := capi.Program{Name: "rmw", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		seen := map[memmodel.Value]bool{}
		var threads []capi.Thread
		for i := 0; i < 4; i++ {
			threads = append(threads, env.Spawn(fmt.Sprintf("t%d", i), func(env capi.Env) {
				for k := 0; k < 5; k++ {
					old := env.FetchAdd(x, 1, rlx)
					env.Assert(!seen[old], "duplicate RMW observation %d", old)
					seen[old] = true
				}
			}))
		}
		for _, th := range threads {
			env.Join(th)
		}
		env.Assert(env.Load(x, rlx) == 20, "final count")
	}}
	for seed := 0; seed < 100; seed++ {
		res := tool.Execute(prog, int64(seed))
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
	}
}

func TestCASSemantics(t *testing.T) {
	tool := newTool(Config{})
	prog := capi.Program{Name: "cas", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		wins := 0
		var threads []capi.Thread
		for i := 0; i < 3; i++ {
			threads = append(threads, env.Spawn(fmt.Sprintf("t%d", i), func(env capi.Env) {
				if _, ok := env.CompareExchange(x, 0, 1, sc, sc); ok {
					wins++
				}
			}))
		}
		for _, th := range threads {
			env.Join(th)
		}
		env.Assert(wins == 1, "exactly one CAS(0→1) must win, got %d", wins)
		env.Assert(env.Load(x, sc) == 1, "final value")
	}}
	for seed := 0; seed < 200; seed++ {
		res := tool.Execute(prog, int64(seed))
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
	}
}

func TestUnsynchronizedWritesRace(t *testing.T) {
	tool := newTool(Config{})
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
	if raced != 50 {
		t.Errorf("unsynchronized write/write race detected in %d/50 runs", raced)
	}
}

func TestReleaseAcquirePublicationIsRaceFree(t *testing.T) {
	tool := newTool(Config{})
	prog := capi.Program{Name: "pub", Run: func(env capi.Env) {
		d := env.NewLoc("data", 0)
		f := env.NewAtomic("flag", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Write(d, 42)
			env.Store(f, 1, rel)
		})
		b := env.Spawn("B", func(env capi.Env) {
			if env.Load(f, acq) == 1 {
				env.Assert(env.Read(d) == 42, "published value")
			}
		})
		env.Join(a)
		env.Join(b)
	}}
	for seed := 0; seed < 300; seed++ {
		res := tool.Execute(prog, int64(seed))
		if len(res.Races) > 0 {
			t.Fatalf("seed %d: rel/acq publication raced: %v", seed, res.Races[0])
		}
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
	}
}

func TestRelaxedPublicationRaces(t *testing.T) {
	tool := newTool(Config{})
	prog := capi.Program{Name: "badpub", Run: func(env capi.Env) {
		d := env.NewLoc("data", 0)
		f := env.NewAtomic("flag", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Write(d, 42)
			env.Store(f, 1, rlx) // bug: relaxed publication
		})
		b := env.Spawn("B", func(env capi.Env) {
			if env.Load(f, rlx) == 1 {
				env.Read(d)
			}
		})
		env.Join(a)
		env.Join(b)
	}}
	raced := 0
	for seed := 0; seed < 300; seed++ {
		if res := tool.Execute(prog, int64(seed)); len(res.Races) > 0 {
			raced++
		}
	}
	if raced == 0 {
		t.Error("relaxed publication never reported a race")
	}
}

func TestReleaseSequenceThroughRMW(t *testing.T) {
	// C++20 release sequences: a relaxed RMW continues the sequence headed
	// by a release store, so an acquire load reading the RMW synchronizes
	// with the original release store.
	tool := newTool(Config{})
	prog := capi.Program{Name: "relseq", Run: func(env capi.Env) {
		d := env.NewLoc("data", 0)
		f := env.NewAtomic("flag", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Write(d, 7)
			env.Store(f, 1, rel)
		})
		b := env.Spawn("B", func(env capi.Env) {
			env.FetchAdd(f, 1, rlx) // may read 0 or 1; continues the sequence
		})
		c := env.Spawn("C", func(env capi.Env) {
			if env.Load(f, acq) == 2 {
				// flag==2 means the RMW read the release store.
				env.Assert(env.Read(d) == 7, "release sequence must publish data")
			}
		})
		env.Join(a)
		env.Join(b)
		env.Join(c)
	}}
	for seed := 0; seed < 400; seed++ {
		res := tool.Execute(prog, int64(seed))
		for _, r := range res.Races {
			t.Fatalf("seed %d: race through release sequence: %v", seed, r)
		}
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
	}
}

func TestFenceSynchronization(t *testing.T) {
	// Release fence + relaxed store / relaxed load + acquire fence must
	// establish happens-before (Figure 9 fence rules).
	tool := newTool(Config{})
	prog := capi.Program{Name: "fences", Run: func(env capi.Env) {
		d := env.NewLoc("data", 0)
		f := env.NewAtomic("flag", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Write(d, 9)
			env.Fence(rel)
			env.Store(f, 1, rlx)
		})
		b := env.Spawn("B", func(env capi.Env) {
			if env.Load(f, rlx) == 1 {
				env.Fence(acq)
				env.Assert(env.Read(d) == 9, "fence sync must publish data")
			}
		})
		env.Join(a)
		env.Join(b)
	}}
	for seed := 0; seed < 400; seed++ {
		res := tool.Execute(prog, int64(seed))
		for _, r := range res.Races {
			t.Fatalf("seed %d: race despite fences: %v", seed, r)
		}
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
	}
}

// TestDeadlockDetected: an execution whose unfinished threads are all
// blocked ends as a deadlock on every seed, and the fiber pool stays warm:
// a thread joining itself, and main and a child joining each other.
func TestDeadlockDetected(t *testing.T) {
	cases := []struct {
		prog   capi.Program
		spawns int
	}{
		{capi.Program{Name: "self-join", Run: func(env capi.Env) {
			env.Join(capi.Thread{TID: env.TID()})
		}}, 1},
		{capi.Program{Name: "join-cycle", Run: func(env capi.Env) {
			main := capi.Thread{TID: env.TID()}
			env.Join(env.Spawn("A", func(env capi.Env) { env.Join(main) }))
		}}, 2},
	}
	for _, c := range cases {
		tool := newTool(Config{})
		for seed := 0; seed < 20; seed++ {
			if res := tool.Execute(c.prog, int64(seed)); !res.Deadlocked || res.Truncated {
				t.Fatalf("%s seed %d: deadlocked %v truncated %v; want a deadlock",
					c.prog.Name, seed, res.Deadlocked, res.Truncated)
			}
		}
		if tool.WorkerSpawns() != c.spawns || tool.Workers() != c.spawns {
			t.Errorf("%s: %d worker spawns, %d live; want %d warm workers",
				c.prog.Name, tool.WorkerSpawns(), tool.Workers(), c.spawns)
		}
		tool.Close()
	}
}
func TestTruncationGuard(t *testing.T) {
	tool := newTool(Config{MaxSteps: 1000})
	prog := capi.Program{Name: "spin", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		for {
			env.Load(x, rlx)
		}
	}}
	res := tool.Execute(prog, 1)
	if !res.Truncated {
		t.Fatal("runaway execution must be truncated")
	}
}

func TestMixedAtomicNonAtomicPromotion(t *testing.T) {
	// atomic_init style: a non-atomic initialisation read by atomics.
	tool := newTool(Config{})
	prog := capi.Program{Name: "mixed", Run: func(env capi.Env) {
		x := env.NewLoc("x", 3) // non-atomic init
		v := env.Load(x, rlx)   // atomic load must see the promoted store
		env.Assert(v == 3, "promoted init visible, got %d", v)
		env.Store(x, 4, rlx)
		env.Assert(env.Read(x) == 4, "plain read after atomic store")
	}}
	for seed := 0; seed < 50; seed++ {
		res := tool.Execute(prog, int64(seed))
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
		if len(res.Races) > 0 {
			t.Fatalf("seed %d: same-thread mixed access raced: %v", seed, res.Races[0])
		}
	}
}

func TestRaceDeduplicationAcrossExecutions(t *testing.T) {
	tool := newTool(Config{})
	prog := capi.Program{Name: "dedup", Run: func(env capi.Env) {
		d := env.NewLoc("data", 0)
		a := env.Spawn("A", func(env capi.Env) { env.Write(d, 1) })
		env.Write(d, 2)
		env.Join(a)
	}}
	newCount := 0
	for seed := 0; seed < 20; seed++ {
		newCount += len(tool.Execute(prog, int64(seed)).NewRaces)
	}
	if newCount == 0 {
		t.Fatal("race never reported")
	}
	if newCount > 2 {
		t.Errorf("race reported as new %d times; must be deduplicated across executions", newCount)
	}
}

// TestConservativePruningBoundsMemoryAndKeepsSemantics keeps the name of the
// pruner test this program was written for. The engine no longer prunes: an
// execution keeps every store, and memory is bounded by the reset at the
// start of the next execution. The test checks coherence over a 4,000-
// iteration acknowledged producer/consumer, that each location's
// modification order holds every store of the execution, and that a second
// execution on the same engine starts from empty lists rather than adding
// to the first one's.
func TestConservativePruningBoundsMemoryAndKeepsSemantics(t *testing.T) {
	model := NewC11Model()
	tool := New("c11tester", model, Config{StoreBurst: true})
	defer tool.Close()
	const iters = 4000
	prog := capi.Program{Name: "long-acked", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		ack := env.NewAtomic("ack", 0)
		a := env.Spawn("producer", func(env capi.Env) {
			for i := 1; i <= iters; i++ {
				env.Store(x, memmodel.Value(i), rel)
				for env.Load(ack, acq) < memmodel.Value(i) {
					env.Yield()
				}
			}
		})
		last := memmodel.Value(0)
		for i := 1; i <= iters; i++ {
			v := env.Load(x, acq)
			env.Assert(v >= last, "coherence: %d after %d", v, last)
			last = v
			env.Store(ack, memmodel.Value(i), rel)
		}
		env.Join(a)
	}}
	var mo []*Action
	var first []int
	for run, seed := range []int64{7, 8} {
		res := tool.Execute(prog, seed)
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
		if res.Truncated || res.Deadlocked {
			t.Fatalf("seed %d: truncated/deadlocked", seed)
		}
		locs := model.AppendLocations(nil)
		if len(locs) != 2 {
			t.Fatalf("seed %d: %d locations, want 2", seed, len(locs))
		}
		for i, loc := range locs {
			mo = model.AppendTotalMO(mo[:0], loc)
			if len(mo) < iters {
				t.Errorf("seed %d loc %d: mo holds %d stores, want every one of the %d", seed, loc, len(mo), iters)
			}
			if run == 0 {
				first = append(first, len(mo))
			} else if len(mo) != first[i] {
				t.Errorf("seed %d loc %d: mo holds %d stores after a %d-store execution; the reset did not clear it", seed, loc, len(mo), first[i])
			}
		}
	}
}

// TestAggressivePruningKeepsCoherence keeps the name of the pruner test this
// program was written for. With every store kept, it checks coherence over
// 2,000 unsynchronized relaxed loads of a location that one thread stores
// 1..2,000 to, and that the location's modification order is complete and
// follows the writer's program order.
func TestAggressivePruningKeepsCoherence(t *testing.T) {
	model := NewC11Model()
	tool := New("c11tester", model, Config{StoreBurst: true})
	defer tool.Close()
	const iters = 2000
	prog := capi.Program{Name: "long-relaxed", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		a := env.Spawn("producer", func(env capi.Env) {
			for i := 1; i <= iters; i++ {
				env.Store(x, memmodel.Value(i), rlx)
			}
		})
		last := memmodel.Value(0)
		for i := 0; i < iters; i++ {
			v := env.Load(x, rlx)
			env.Assert(v >= last, "coherence: %d after %d", v, last)
			last = v
		}
		env.Join(a)
	}}
	res := tool.Execute(prog, 11)
	if len(res.AssertFailures) > 0 {
		t.Fatalf("%v", res.AssertFailures[0])
	}
	if res.Truncated || res.Deadlocked {
		t.Fatal("truncated/deadlocked")
	}
	locs := model.AppendLocations(nil)
	if len(locs) != 1 {
		t.Fatalf("%d locations, want 1", len(locs))
	}
	mo := model.AppendTotalMO(nil, locs[0])
	if len(mo) < iters {
		t.Fatalf("mo holds %d stores, want every one of the %d", len(mo), iters)
	}
	stored := mo[len(mo)-iters:]
	for i, s := range stored {
		if want := memmodel.Value(i + 1); s.Value != want {
			t.Fatalf("mo position %d holds %d, want %d", len(mo)-iters+i, s.Value, want)
		}
	}
}

func TestOpStatsCounted(t *testing.T) {
	tool := newTool(Config{})
	prog := capi.Program{Name: "stats", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		d := env.NewLoc("d", 0)
		env.Store(x, 1, rlx)    // atomic
		env.Load(x, rlx)        // atomic
		env.FetchAdd(x, 1, rlx) // atomic
		env.Write(d, 1)         // normal
		env.Read(d)             // normal
	}}
	res := tool.Execute(prog, 1)
	// +1 atomic for the NewAtomic init store, +1 normal for NewLoc init.
	if res.Stats.AtomicOps != 4 {
		t.Errorf("atomic ops = %d, want 4", res.Stats.AtomicOps)
	}
	if res.Stats.NormalOps != 3 {
		t.Errorf("normal ops = %d, want 3", res.Stats.NormalOps)
	}
}
