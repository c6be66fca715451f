package core

import (
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

// accessCounter wraps the C11 model and counts the accesses it executes:
// atomic loads, stores (an atomic allocation's initializing store
// included), RMWs, the RMWs that stored, and fences.
type accessCounter struct {
	*C11Model
	loads, stores, rmws, storedRMWs, fences uint64
}

func (m *accessCounter) Begin(e *Engine) {
	m.loads, m.stores, m.rmws, m.storedRMWs, m.fences = 0, 0, 0, 0, 0
	m.C11Model.Begin(e)
}

func (m *accessCounter) AtomicLoad(t *ThreadState, op *capi.Op) memmodel.Value {
	m.loads++
	return m.C11Model.AtomicLoad(t, op)
}

func (m *accessCounter) AtomicStore(t *ThreadState, op *capi.Op) {
	m.stores++
	m.C11Model.AtomicStore(t, op)
}

func (m *accessCounter) AtomicRMW(t *ThreadState, op *capi.Op) (memmodel.Value, bool) {
	old, stored := m.C11Model.AtomicRMW(t, op)
	m.rmws++
	if stored {
		m.storedRMWs++
	}
	return old, stored
}

func (m *accessCounter) Fence(t *ThreadState, op *capi.Op) {
	m.fences++
	m.C11Model.Fence(t, op)
}

// TestRaceChecksCount pins ExecStats.RaceChecks, the count README prices
// the race layer by, on c11tester over the 22 programs of the paper matrix:
// allocations, plain accesses, atomic loads and stores each check the
// location's shadow word once, an RMW checks it once more when it stores,
// and fences and thread operations never check. So
//
//	RaceChecks = NormalOps + loads + stores + RMWs + stored RMWs
//
// where NormalOps (plain accesses and non-atomic allocations) comes from
// Result.Stats and the atomic accesses from the model, which also executes
// an atomic allocation's initializing store; and Result.Stats.AtomicOps,
// which counts every atomic operation, covers the accesses and the fences.
// It requires every term to be exercised, failed RMWs included.
func TestRaceChecksCount(t *testing.T) {
	m := &accessCounter{C11Model: NewC11Model()}
	eng := New("c11tester", m, Config{StoreBurst: true})
	defer eng.Close()
	var normal, stored, failed, fences uint64
	for _, p := range matrixPrograms() {
		for seed := int64(1); seed <= 30; seed++ {
			res := eng.Execute(p, seed)
			if res.EngineError != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, res.EngineError)
			}
			st := eng.ExecStats()
			accesses := m.loads + m.stores + m.rmws
			if want := res.Stats.NormalOps + accesses + m.storedRMWs; st.RaceChecks != want {
				t.Fatalf("%s seed %d: %d race checks; want %d plain + %d loads + %d stores + %d RMWs + %d stored RMWs = %d",
					p.Name, seed, st.RaceChecks, res.Stats.NormalOps, m.loads, m.stores, m.rmws, m.storedRMWs, want)
			}
			if res.Stats.AtomicOps < accesses+m.fences {
				t.Fatalf("%s seed %d: %d atomic ops, fewer than %d accesses and %d fences",
					p.Name, seed, res.Stats.AtomicOps, accesses, m.fences)
			}
			normal += res.Stats.NormalOps
			stored += m.storedRMWs
			failed += m.rmws - m.storedRMWs
			fences += m.fences
		}
	}
	if normal == 0 || stored == 0 || failed == 0 || fences == 0 {
		t.Fatalf("uncovered terms: %d plain accesses, %d stored and %d failed RMWs, %d fences",
			normal, stored, failed, fences)
	}
}

// TestYieldsCount pins ExecStats.Yields (one per capi.Env.Yield) and that
// the execution's reset clears every layer count.
func TestYieldsCount(t *testing.T) {
	eng := newTool(Config{})
	defer eng.Close()
	for _, k := range []int{3, 0} {
		eng.Execute(capi.Program{Name: "yields", Run: func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			for i := 0; i < k; i++ {
				env.Yield()
			}
			env.Load(x, rlx)
		}}, 1)
		st := eng.ExecStats()
		if st.Yields != uint64(k) || st.RaceChecks != 2 || st.Blocked != 0 || st.Resumes != 1 {
			t.Errorf("%d yields: stats %+v; want %d yields, 2 race checks (allocation, load), no blocked dispatch, 1 resume",
				k, st, k)
		}
	}
}
