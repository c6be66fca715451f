package axiom

import (
	"fmt"
	"math/rand"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

// opSpec is one pre-generated operation of a chaos program.
type opSpec struct {
	kind memmodel.Kind
	loc  int
	mo   memmodel.MemoryOrder
	val  memmodel.Value
	rmw  capi.RMWKind
}

var chaosOrders = []memmodel.MemoryOrder{
	memmodel.Relaxed, memmodel.Acquire, memmodel.Release,
	memmodel.AcqRel, memmodel.SeqCst,
}

// genChaosProgram builds a random well-formed atomics program: T threads
// over L atomic locations performing loads, stores, RMWs, CASes, and fences
// with random memory orders. The shape is fixed up front so the program is
// deterministic given its spec.
func genChaosProgram(r *rand.Rand) capi.Program {
	nThreads := 2 + r.Intn(3)
	nLocs := 1 + r.Intn(3)
	specs := make([][]opSpec, nThreads)
	val := memmodel.Value(1)
	for ti := range specs {
		nOps := 4 + r.Intn(10)
		for k := 0; k < nOps; k++ {
			s := opSpec{
				loc: r.Intn(nLocs),
				mo:  chaosOrders[r.Intn(len(chaosOrders))],
			}
			switch r.Intn(6) {
			case 0, 1:
				s.kind = memmodel.KLoad
			case 2, 3:
				s.kind = memmodel.KStore
				s.val = val
				val++
			case 4:
				s.kind = memmodel.KRMW
				if r.Intn(2) == 0 {
					s.rmw = capi.RMWAdd
					s.val = 1
				} else {
					s.rmw = capi.RMWExchange
					s.val = val
					val++
				}
			case 5:
				if r.Intn(2) == 0 {
					s.kind = memmodel.KFence
				} else {
					s.kind = memmodel.KRMW
					s.rmw = capi.RMWCas
					s.val = val
					val++
				}
			}
			specs[ti] = append(specs[ti], s)
		}
	}
	return capi.Program{
		Name: "chaos",
		Run: func(env capi.Env) {
			locs := make([]capi.Loc, nLocs)
			for i := range locs {
				locs[i] = env.NewAtomic(fmt.Sprintf("x%d", i), 0)
			}
			var threads []capi.Thread
			for _, spec := range specs {
				spec := spec
				threads = append(threads, env.Spawn("worker", func(env capi.Env) {
					for _, s := range spec {
						switch s.kind {
						case memmodel.KLoad:
							env.Load(locs[s.loc], s.mo)
						case memmodel.KStore:
							env.Store(locs[s.loc], s.val, s.mo)
						case memmodel.KFence:
							env.Fence(s.mo)
						case memmodel.KRMW:
							switch s.rmw {
							case capi.RMWAdd:
								env.FetchAdd(locs[s.loc], s.val, s.mo)
							case capi.RMWExchange:
								env.Exchange(locs[s.loc], s.val, s.mo)
							case capi.RMWCas:
								env.CompareExchange(locs[s.loc], 0, s.val, s.mo, memmodel.Relaxed)
							}
						}
					}
				}))
			}
			for _, th := range threads {
				env.Join(th)
			}
		},
	}
}

// genHotProgram builds a random program with the shape the coherence sweep
// is for: 4–5 threads that together pile 150 or more accesses onto one hot
// location — spin loads that wait for the value to move, RMWs and stores,
// all with random memory orders — plus plain stores to it, each of which
// the next atomic access promotes into the modification order (the hot
// location itself starts with a plain store too). A second location carries
// occasional flag traffic, so the trace has more than one group.
func genHotProgram(r *rand.Rand) capi.Program {
	nThreads := 4 + r.Intn(2)
	specs := make([][]opSpec, nThreads)
	val := memmodel.Value(1)
	for ti := range specs {
		nOps := 40 + r.Intn(10)
		for k := 0; k < nOps; k++ {
			s := opSpec{mo: chaosOrders[r.Intn(len(chaosOrders))]}
			if r.Intn(8) == 0 {
				s.loc = 1
			}
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				s.kind = memmodel.KLoad // spin: see below
			case 4, 5:
				s.kind = memmodel.KRMW
				s.rmw = capi.RMWAdd
				s.val = 1
			case 6:
				s.kind = memmodel.KRMW
				s.rmw = capi.RMWCas
				s.val = val
				val++
			case 7, 8:
				s.kind = memmodel.KStore
				s.val = val
				val++
			case 9:
				s.kind = memmodel.KNAStore
				s.loc = 0
				s.val = val
				val++
			}
			specs[ti] = append(specs[ti], s)
		}
	}
	return capi.Program{
		Name: "hot",
		Run: func(env capi.Env) {
			locs := []capi.Loc{env.NewLoc("hot", 0), env.NewAtomic("flag", 0)}
			var threads []capi.Thread
			for _, spec := range specs {
				spec := spec
				threads = append(threads, env.Spawn("worker", func(env capi.Env) {
					for _, s := range spec {
						l := locs[s.loc]
						switch s.kind {
						case memmodel.KLoad:
							first := env.Load(l, s.mo)
							for i := 0; i < 4 && env.Load(l, s.mo) == first; i++ {
							}
						case memmodel.KStore:
							env.Store(l, s.val, s.mo)
						case memmodel.KNAStore:
							env.Write(l, s.val)
						case memmodel.KRMW:
							if s.rmw == capi.RMWAdd {
								env.FetchAdd(l, s.val, s.mo)
							} else {
								env.CompareExchange(l, val, s.val, s.mo, memmodel.Relaxed)
							}
						}
					}
				}))
			}
			for _, th := range threads {
				env.Join(th)
			}
		},
	}
}

// TestChaosExecutionsValidate runs hundreds of random atomics programs
// through the engine and validates every lifted execution against the
// independent axiomatic checker (the equivalence of Appendix A).
func TestChaosExecutionsValidate(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for i := 0; i < 250; i++ {
		prog := genChaosProgram(r)
		model := core.NewC11Model()
		tool := core.New("c11tester", model, core.Config{Trace: true, StoreBurst: true})
		for seed := int64(0); seed < 4; seed++ {
			res := tool.Execute(prog, seed)
			if res.Truncated || res.Deadlocked {
				t.Fatalf("program %d seed %d: truncated/deadlocked", i, seed)
			}
			ex := FromEngine(tool, model)
			if vs := Check(ex); len(vs) > 0 {
				for _, v := range vs {
					t.Errorf("program %d seed %d: %v", i, seed, v)
				}
				t.Fatalf("program %d seed %d: %d axiom violations", i, seed, len(vs))
			}
		}
	}
}

// longPrograms are two-thread programs whose executions run thousands of
// visible operations, each asserting read-read coherence on a location
// that one thread stores to on every iteration.
func longPrograms() []capi.Program {
	// Message passing with an acknowledgement: the producer waits for the
	// consumer to acknowledge each store before the next one.
	acked := capi.Program{Name: "long-acked", Run: func(env capi.Env) {
		const iters = 4000
		x := env.NewAtomic("x", 0)
		ack := env.NewAtomic("ack", 0)
		a := env.Spawn("producer", func(env capi.Env) {
			for i := 1; i <= iters; i++ {
				env.Store(x, memmodel.Value(i), memmodel.Release)
				for env.Load(ack, memmodel.Acquire) < memmodel.Value(i) {
					env.Yield()
				}
			}
		})
		last := memmodel.Value(0)
		for i := 1; i <= iters; i++ {
			v := env.Load(x, memmodel.Acquire)
			env.Assert(v >= last, "coherence: %d after %d", v, last)
			last = v
			env.Store(ack, memmodel.Value(i), memmodel.Release)
		}
		env.Join(a)
	}}
	// Unsynchronized relaxed stores and loads on one location.
	relaxed := capi.Program{Name: "long-relaxed", Run: func(env capi.Env) {
		const iters = 2000
		x := env.NewAtomic("x", 0)
		a := env.Spawn("producer", func(env capi.Env) {
			for i := 1; i <= iters; i++ {
				env.Store(x, memmodel.Value(i), memmodel.Relaxed)
			}
		})
		last := memmodel.Value(0)
		for i := 0; i < iters; i++ {
			v := env.Load(x, memmodel.Relaxed)
			env.Assert(v >= last, "coherence: %d after %d", v, last)
			last = v
		}
		env.Join(a)
	}}
	// A release flag published every 16 stores to x; the reader loads x
	// only after seeing the flag set.
	flagged := capi.Program{Name: "long-flagged", Run: func(env capi.Env) {
		const iters = 1500
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		a := env.Spawn("w", func(env capi.Env) {
			for i := 1; i <= iters; i++ {
				env.Store(x, memmodel.Value(i), memmodel.Release)
				if i%16 == 0 {
					env.Store(y, memmodel.Value(i), memmodel.Release)
				}
			}
		})
		last := memmodel.Value(0)
		for i := 0; i < iters; i++ {
			if env.Load(y, memmodel.Acquire) > 0 {
				v := env.Load(x, memmodel.Acquire)
				env.Assert(v >= last, "coherence: %d after %d", v, last)
				last = v
			}
		}
		env.Join(a)
	}}
	return []capi.Program{acked, relaxed, flagged}
}

// TestLongExecutionsValidate puts whole executions of thousands of actions
// through the axiomatic checker: the engine keeps every action of an
// execution, so the lifted execution is complete however long it runs.
func TestLongExecutionsValidate(t *testing.T) {
	for _, prog := range longPrograms() {
		model := core.NewC11Model()
		tool := core.New("c11tester", model, core.Config{Trace: true, StoreBurst: true})
		for seed := int64(0); seed < 4; seed++ {
			res := tool.Execute(prog, seed)
			if len(res.AssertFailures) > 0 {
				t.Fatalf("%s seed %d: %v", prog.Name, seed, res.AssertFailures[0])
			}
			if res.Truncated || res.Deadlocked {
				t.Fatalf("%s seed %d: truncated/deadlocked", prog.Name, seed)
			}
			if n := len(tool.Trace()); n < 3000 {
				t.Fatalf("%s seed %d: %d traced actions, want a long execution", prog.Name, seed, n)
			}
			if vs := Check(FromEngine(tool, model)); len(vs) > 0 {
				t.Fatalf("%s seed %d: %d axiom violations, first %v", prog.Name, seed, len(vs), vs[0])
			}
		}
		tool.Close()
	}
}

// TestChaosLongRunsUnderPruning keeps the name of the pruner test this
// program was written for. It runs the release-flag program over ten seeds
// on one engine, with every action kept, and asserts coherence in each run;
// TestLongExecutionsValidate puts its first seeds through the checker.
func TestChaosLongRunsUnderPruning(t *testing.T) {
	var prog capi.Program
	for _, p := range longPrograms() {
		if p.Name == "long-flagged" {
			prog = p
		}
	}
	if prog.Run == nil {
		t.Fatal("long-flagged program not found")
	}
	tool := core.New("c11tester", core.NewC11Model(), core.Config{StoreBurst: true})
	defer tool.Close()
	for seed := int64(0); seed < 10; seed++ {
		res := tool.Execute(prog, seed)
		if len(res.AssertFailures) > 0 {
			t.Fatalf("seed %d: %v", seed, res.AssertFailures[0])
		}
		if res.Truncated || res.Deadlocked {
			t.Fatalf("seed %d: truncated/deadlocked", seed)
		}
	}
}

// badExecution builds a hand-made execution with a CoWW violation to prove
// the checker is not vacuous.
func TestCheckerDetectsCoWWViolation(t *testing.T) {
	s1 := &core.Action{Seq: 1, TID: 0, Kind: memmodel.KStore, MO: memmodel.Relaxed, Loc: 1, Value: 1, SCIdx: -1}
	s2 := &core.Action{Seq: 2, TID: 0, Kind: memmodel.KStore, MO: memmodel.Relaxed, Loc: 1, Value: 2, SCIdx: -1}
	// mo contradicts sb: s2 before s1.
	vs := Check(NewExecution([]*core.Action{s1, s2}, []LocMO{{Loc: 1, Stores: []*core.Action{s2, s1}}}))
	found := false
	for _, v := range vs {
		if v.Rule == "CoWW" {
			found = true
		}
	}
	if !found {
		t.Fatalf("checker missed the CoWW violation: %v", vs)
	}
}

func TestCheckerDetectsRFValueViolation(t *testing.T) {
	s := &core.Action{Seq: 1, TID: 0, Kind: memmodel.KStore, MO: memmodel.Relaxed, Loc: 1, Value: 1, SCIdx: -1}
	l := &core.Action{Seq: 2, TID: 1, Kind: memmodel.KLoad, MO: memmodel.Relaxed, Loc: 1, Value: 99, RF: s, SCIdx: -1}
	vs := Check(NewExecution([]*core.Action{s, l}, []LocMO{{Loc: 1, Stores: []*core.Action{s}}}))
	found := false
	for _, v := range vs {
		if v.Rule == "rf-value" {
			found = true
		}
	}
	if !found {
		t.Fatalf("checker missed the rf value violation: %v", vs)
	}
}

func TestCheckerDetectsRMWAtomicityViolation(t *testing.T) {
	s1 := &core.Action{Seq: 1, TID: 0, Kind: memmodel.KStore, MO: memmodel.Relaxed, Loc: 1, Value: 1, SCIdx: -1}
	s2 := &core.Action{Seq: 2, TID: 1, Kind: memmodel.KStore, MO: memmodel.Relaxed, Loc: 1, Value: 2, SCIdx: -1}
	rmw := &core.Action{Seq: 3, TID: 2, Kind: memmodel.KRMW, MO: memmodel.Relaxed, Loc: 1, Value: 3, RF: s1, SCIdx: -1}
	// s2 intervenes between the RMW and the store it read from.
	vs := Check(NewExecution([]*core.Action{s1, s2, rmw}, []LocMO{{Loc: 1, Stores: []*core.Action{s1, s2, rmw}}}))
	found := false
	for _, v := range vs {
		if v.Rule == "rmw-atomic" {
			found = true
		}
	}
	if !found {
		t.Fatalf("checker missed the RMW atomicity violation: %v", vs)
	}
}
