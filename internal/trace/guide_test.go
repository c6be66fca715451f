package trace

import (
	"fmt"
	"reflect"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

// guideProg is a small weak-memory program with enough scheduling freedom
// that different seeds produce different interleavings: two writers and a
// reader racing over a pair of locations.
func guideProg(out *string) capi.Program {
	return capi.Program{Name: "guide-prog", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Store(x, 1, memmodel.Relaxed)
			env.Store(y, 1, memmodel.Release)
		})
		b := env.Spawn("B", func(env capi.Env) {
			r1 := env.Load(y, memmodel.Acquire)
			r2 := env.Load(x, memmodel.Relaxed)
			*out = fmt.Sprintf("r1=%d r2=%d", r1, r2)
		})
		env.Join(a)
		env.Join(b)
	}}
}

func newGuideEngine() *core.Engine {
	return core.New("c11tester", core.NewC11Model(), core.Config{StoreBurst: true})
}

// digest is the comparable outcome of one execution.
type execDigest struct {
	RaceKeys []string
	Finals   map[string]memmodel.Value
	Outcome  string
	Atomic   uint64
}

func digestOf(eng *core.Engine, res *capi.Result, out string) execDigest {
	keys := []string{}
	seen := map[string]bool{}
	for _, r := range res.Races {
		if k := r.Key(); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return execDigest{RaceKeys: keys, Finals: eng.FinalValues(), Outcome: out, Atomic: res.Stats.AtomicOps}
}

// recordGuideTrace records one execution of guideProg under a fresh engine.
func recordGuideTrace(t *testing.T, seed int64) (*Trace, execDigest) {
	t.Helper()
	var out string
	prog := guideProg(&out)
	eng := newGuideEngine()
	rec := NewRecorder(eng.Strategy())
	eng.SetStrategy(rec)
	eng.SetTrace(true)
	res := eng.Execute(prog, seed)
	if res.EngineError != nil {
		t.Fatal(res.EngineError)
	}
	dg := digestOf(eng, res, out)
	tr, err := Record(eng, res, rec.Schedule(), Meta{Program: prog.Name, Seed: seed, Outcome: out})
	if err != nil {
		t.Fatal(err)
	}
	return tr, dg
}

func TestPrefixGuideFullDepthReproducesRecordedExecution(t *testing.T) {
	tr, want := recordGuideTrace(t, 7)
	var out string
	prog := guideProg(&out)
	eng := newGuideEngine()
	pg := NewPrefixGuide(core.NewRandomStrategy())
	pg.SetSchedule(tr.Schedule)
	eng.SetStrategy(pg)

	// Any live seed whose depth draw is the whole schedule: with the full
	// prefix replayed, the live strategy never gets a choice, so the
	// execution is the recorded one regardless.
	seed := int64(12345)
	for pg.Seed(seed); ; pg.Seed(seed) {
		if depth, _, _ := pg.Handoff(); depth == tr.Schedule.Len() {
			break
		}
		seed++
	}
	res := eng.Execute(prog, seed)
	got := digestOf(eng, res, out)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("full-depth guided execution %+v != recorded %+v", got, want)
	}
	depth, consumed, diverged := pg.Handoff()
	if depth != tr.Schedule.Len() || consumed != depth || diverged {
		t.Fatalf("Handoff() = (%d, %d, %v), want full depth %d consumed without divergence",
			depth, consumed, diverged, tr.Schedule.Len())
	}
}

func TestPrefixGuideDepthIsSeedDerivedAndBounded(t *testing.T) {
	tr, _ := recordGuideTrace(t, 3)
	var out string
	prog := guideProg(&out)
	eng := newGuideEngine()
	pg := NewPrefixGuide(core.NewRandomStrategy())
	pg.SetSchedule(tr.Schedule)
	eng.SetStrategy(pg)

	// The guide draws from the fixed skew-deep range [L/2, L].
	L := tr.Schedule.Len()
	lo, hi := L/2, L
	depths := map[int]bool{}
	for seed := int64(0); seed < 30; seed++ {
		res := eng.Execute(prog, seed)
		if res.EngineError != nil {
			t.Fatal(res.EngineError)
		}
		depth, consumed, _ := pg.Handoff()
		if depth < lo || depth > hi {
			t.Fatalf("seed %d: depth %d outside [%d, %d]", seed, depth, lo, hi)
		}
		if consumed > depth {
			t.Fatalf("seed %d: consumed %d > depth %d", seed, consumed, depth)
		}
		depths[depth] = true
	}
	if len(depths) < 2 {
		t.Errorf("depth never varied across seeds: %v", depths)
	}

	// Same seed, same schedule → same depth (the campaign determinism
	// invariant extends to guided cells).
	pg2 := NewPrefixGuide(core.NewRandomStrategy())
	pg2.SetSchedule(tr.Schedule)
	pg2.Seed(17)
	pg.Seed(17)
	d1, _, _ := pg.Handoff()
	d2, _, _ := pg2.Handoff()
	if d1 != d2 {
		t.Fatalf("depth not a pure function of seed: %d vs %d", d1, d2)
	}
}

// flakyModel wraps the real C11 model but panics with a core.InfeasibleError
// on the Nth atomic load when armed — the mid-execution model-failure mode
// the fiber-pool stress test interleaves with other abort paths.
type flakyModel struct {
	*core.C11Model
	loads    int
	failLoad int
}

func (m *flakyModel) Begin(e *core.Engine) {
	m.loads = 0
	m.C11Model.Begin(e)
}

func (m *flakyModel) AtomicLoad(t *core.ThreadState, op *capi.Op) memmodel.Value {
	m.loads++
	if m.failLoad > 0 && m.loads == m.failLoad {
		panic(&core.InfeasibleError{Stage: "load", Loc: op.Loc, Detail: "injected for stress test"})
	}
	return m.C11Model.AtomicLoad(t, op)
}

// TestFiberPoolStressMixedAbortPaths is the fiber-pool stress test: one
// pooled engine interleaves InfeasibleError aborts, step-limit aborts, and
// guided (PrefixGuide) and unguided executions. The worker pool must stay
// bounded by the widest program — aborts recycle workers, they never leak or
// respawn them — and every completed execution must stay byte-identical to a
// fresh engine running the same (strategy, seed).
func TestFiberPoolStressMixedAbortPaths(t *testing.T) {
	tr, _ := recordGuideTrace(t, 5)

	var out string
	prog := guideProg(&out)
	spin := capi.Program{Name: "spin", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		th := env.Spawn("spinner", func(env capi.Env) {
			for i := 0; i < 500; i++ {
				env.Load(x, memmodel.Relaxed)
			}
		})
		env.Join(th)
	}}

	const maxSteps = 64 // truncates spin, never guideProg
	fm := &flakyModel{C11Model: core.NewC11Model()}
	pooled := core.New("c11tester", fm, core.Config{StoreBurst: true, MaxSteps: maxSteps})
	pg := NewPrefixGuide(core.NewRandomStrategy())
	pg.SetSchedule(tr.Schedule)
	rnd := core.NewRandomStrategy()

	compare := func(round int, seed int64, guided bool) {
		var outF string
		progF := guideProg(&outF)
		fresh := core.New("c11tester", core.NewC11Model(), core.Config{StoreBurst: true, MaxSteps: maxSteps})
		if guided {
			fpg := NewPrefixGuide(core.NewRandomStrategy())
			fpg.SetSchedule(tr.Schedule)
			fresh.SetStrategy(fpg)
		}
		resF := fresh.Execute(progF, seed)
		want := digestOf(fresh, resF, outF)
		if guided {
			pooled.SetStrategy(pg)
		} else {
			pooled.SetStrategy(rnd)
		}
		out = ""
		res := pooled.Execute(prog, seed)
		if res.EngineError != nil {
			t.Fatalf("round %d: clean execution failed: %v", round, res.EngineError)
		}
		got := digestOf(pooled, res, out)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d (guided=%v): pooled %+v != fresh %+v", round, guided, got, want)
		}
		fresh.Close()
	}

	for round := 0; round < 24; round++ {
		seed := int64(round)
		switch round % 4 {
		case 0: // infeasible model state mid-execution
			fm.failLoad = 2
			pooled.SetStrategy(rnd)
			res := pooled.Execute(prog, seed)
			if res.EngineError == nil {
				t.Fatalf("round %d: armed model did not abort", round)
			}
			fm.failLoad = 0
		case 1: // step-limit abort
			pooled.SetStrategy(rnd)
			res := pooled.Execute(spin, seed)
			if !res.Truncated {
				t.Fatalf("round %d: spin execution was not truncated", round)
			}
		case 2: // guided execution vs fresh engine
			compare(round, seed, true)
		case 3: // unguided execution vs fresh engine
			compare(round, seed, false)
		}
	}

	if w := pooled.Workers(); w > 3 {
		t.Errorf("worker count %d, want ≤ 3 (guideProg's thread count)", w)
	}
	if s := pooled.WorkerSpawns(); s > 3 {
		t.Errorf("scheduler spawned %d goroutines over 24 mixed executions, want ≤ 3 (aborts must recycle workers)", s)
	}
	pooled.Close()
}

// TestGuidedUnguidedAlternationOnPooledEngine is the regression test for the
// stale-arena bugfix: alternating guided (PrefixGuide) and unguided
// executions on ONE pooled engine must produce results byte-identical to
// fresh engines running the same (strategy, seed) — i.e. the unconditional
// per-execution reset leaves nothing for a guided prefix (or the execution
// after it) to observe from the previous execution.
func TestGuidedUnguidedAlternationOnPooledEngine(t *testing.T) {
	tr, _ := recordGuideTrace(t, 11)

	var outP string
	progP := guideProg(&outP)
	pooled := newGuideEngine()
	pooled.SetTrace(true)
	pg := NewPrefixGuide(core.NewRandomStrategy())
	pg.SetSchedule(tr.Schedule)
	rnd := core.NewRandomStrategy()

	for seed := int64(0); seed < 20; seed++ {
		guided := seed%2 == 0
		if guided {
			pooled.SetStrategy(pg)
		} else {
			pooled.SetStrategy(rnd)
		}
		outP = ""
		resP := pooled.Execute(progP, seed)
		if resP.EngineError != nil {
			t.Fatal(resP.EngineError)
		}
		got := digestOf(pooled, resP, outP)

		var outF string
		progF := guideProg(&outF)
		fresh := newGuideEngine()
		fresh.SetTrace(true)
		if guided {
			fpg := NewPrefixGuide(core.NewRandomStrategy())
			fpg.SetSchedule(tr.Schedule)
			fresh.SetStrategy(fpg)
		}
		resF := fresh.Execute(progF, seed)
		want := digestOf(fresh, resF, outF)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (guided=%v): pooled %+v != fresh %+v", seed, guided, got, want)
		}
	}
}
