package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
	"c11tester/internal/mograph"
	"c11tester/internal/structures"
)

func (al *aloc) accesses(t memmodel.TID) []*Action {
	if int(t) < len(al.accessesBy) {
		return al.accessesBy[t]
	}
	return nil
}

// lastHBAccess returns the last access in list that happens before the
// current point described by clock cv (first hit from the end, since
// hb-before accesses form a prefix).
func lastHBAccess(list []*Action, cv *memmodel.ClockVector) *Action {
	for i := len(list) - 1; i >= 0; i-- {
		if cv.Synchronized(list[i].TID, list[i].Seq) {
			return list[i]
		}
	}
	return nil
}

// priorStats counts, over the reference's calls, the cases a faster
// priorWrites could get wrong, so a test can require that its programs
// reach them.
type priorStats struct {
	calls    int
	s1       int // S1 (a fence of u before a seq_cst operation) decided u's write
	s23      int // S2 or S3 (the reader's seq_cst fence) decided it
	loadOnly int // u has no stores to the location: its write is a load's rf
}

// refPriorWrite is Figure 13's get_write(last{S1,S2,S3,S4}) for thread u as
// the model first computed it: every set is evaluated, and S4 asks the
// reader's clock about every access.
func refPriorWrite(t *ThreadState, al *aloc, u *ThreadState, fCur *Action, isSC bool, st *priorStats) *Action {
	stores := al.stores(u.ID)
	var s1, s2, s3 *Action
	if isSC {
		if fu := u.LastSCFence(); fu != nil {
			s1 = lastStoreBefore(stores, fu.Seq)
		}
	}
	if fCur != nil {
		s2 = lastSCStoreBefore(al.scStores(u.ID), fCur.SCIdx)
		if fb := lastFenceBefore(u.SCFences, fCur.SCIdx); fb != nil {
			s3 = lastStoreBefore(stores, fb.Seq)
		}
	}
	s4 := lastHBAccess(al.accesses(u.ID), t.C)
	w := maxSeq(s1, s2, s3, s4)
	switch {
	case w == nil:
	case w != s4 && w == s1:
		st.s1++
	case w != s4:
		st.s23++
	case len(stores) == 0:
		st.loadOnly++
	}
	return getWrite(w)
}

// refPriorWrites appends the Figure 13 loop over every thread of the
// execution to pri, and the chain end of each prior write to ends.
func refPriorWrites(pri []*Action, ends []*mograph.Node, m *C11Model, t *ThreadState, al *aloc, isSC bool, st *priorStats) ([]*Action, []*mograph.Node) {
	fCur := t.LastSCFence()
	for _, u := range m.e.threads {
		if a := refPriorWrite(t, al, u, fCur, isSC, st); a != nil {
			pri = append(pri, a)
			ends = append(ends, chainEnd(a.Node))
		}
	}
	st.calls++
	return pri, ends
}

// checkedTool returns a c11tester engine whose every priorWrites call
// compares its result with the reference; the first mismatch fails tb.
func checkedTool(tb testing.TB, st *priorStats) *Engine {
	m := NewC11Model()
	failed := false
	var want []*Action
	var wantEnds []*mograph.Node
	m.checkPrior = func(t *ThreadState, al *aloc, isSC bool, pri []*Action, ends []*mograph.Node) {
		want, wantEnds = refPriorWrites(want[:0], wantEnds[:0], m, t, al, isSC, st)
		if !failed && (!slices.Equal(pri, want) || !slices.Equal(ends, wantEnds)) {
			failed = true
			tb.Errorf("thread %d at loc %d (seq_cst %v, op seq %d): prior writes %v ends %v, reference %v ends %v",
				t.ID, al.id, isSC, t.opSeq, describe(pri), ends, describe(want), wantEnds)
		}
	}
	return New("c11tester", m, Config{StoreBurst: true})
}

func describe(acts []*Action) []string {
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = fmt.Sprintf("%v@t%d#%d", a.Kind, a.TID, a.Seq)
	}
	return out
}

// TestPriorWritesMatchReference runs every program of the paper matrix under
// c11tester and requires each prior-write set, with its chain ends, to equal
// the Figure 13 loop over every thread, in the same order. The programs run
// in parallel, each on its own engine.
func TestPriorWritesMatchReference(t *testing.T) {
	var progs []capi.Program
	for _, b := range structures.All() {
		progs = append(progs, b.New())
	}
	for _, lt := range litmus.Tests() {
		progs = append(progs, lt.Make(new(string)))
	}
	if len(progs) != 22 {
		t.Fatalf("%d programs, want the 22 of the paper matrix", len(progs))
	}
	stats := make([]priorStats, len(progs))
	t.Run("programs", func(t *testing.T) {
		for i, p := range progs {
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				tool := checkedTool(t, &stats[i])
				defer tool.Close()
				for seed := int64(0); seed < 200 && !t.Failed(); seed++ {
					tool.Execute(p, seed)
				}
			})
		}
	})
	var st priorStats
	for _, s := range stats {
		st.calls, st.s1, st.s23, st.loadOnly = st.calls+s.calls, st.s1+s.s1, st.s23+s.s23, st.loadOnly+s.loadOnly
	}
	t.Logf("%+v", st)
	if st.loadOnly == 0 {
		t.Errorf("programs reached too few cases: %+v", st)
	}
}

// TestPriorWritesMatchReferenceOnGeneratedPrograms does the same on random
// programs built to reach the seq_cst fence sets S1–S3.
func TestPriorWritesMatchReferenceOnGeneratedPrograms(t *testing.T) {
	var st priorStats
	r := rand.New(rand.NewSource(37))
	for i := 0; i < 30 && !t.Failed(); i++ {
		p := genFenceProgram(r)
		tool := checkedTool(t, &st)
		for seed := int64(0); seed < 4; seed++ {
			tool.Execute(p, seed)
		}
		tool.Close()
	}
	t.Logf("%+v", st)
	if st.s1 == 0 || st.s23 == 0 || st.loadOnly == 0 {
		t.Errorf("generated programs reached too few cases: %+v", st)
	}
}

var genOrders = []memmodel.MemoryOrder{rlx, acq, rel, memmodel.AcqRel, sc}

// genFenceProgram is the hot-location program of the axiom package's
// coherence sweep (several threads piling spin loads, RMWs, stores and plain
// stores onto one location, with flag traffic on a second), extended with
// seq_cst fences, more seq_cst stores, and compare-exchanges whose failure
// order differs from their success order in seq_cst-ness.
func genFenceProgram(r *rand.Rand) capi.Program {
	type opSpec struct {
		kind       memmodel.Kind
		loc        int
		mo, failMO memmodel.MemoryOrder
		cas        bool
		val, old   memmodel.Value
	}
	nThreads := 3 + r.Intn(2)
	specs := make([][]opSpec, nThreads)
	val := memmodel.Value(1)
	for ti := range specs {
		for k, n := 0, 20+r.Intn(10); k < n; k++ {
			s := opSpec{mo: genOrders[r.Intn(len(genOrders))], loc: r.Intn(4) / 3}
			switch r.Intn(12) {
			case 0, 1, 2:
				s.kind = memmodel.KLoad
			case 3, 4:
				s.kind = memmodel.KRMW
			case 5:
				s.kind, s.cas = memmodel.KRMW, true
				if s.mo = sc; r.Intn(2) == 0 {
					s.mo, s.failMO = genOrders[r.Intn(4)], sc
				} else {
					s.failMO = genOrders[r.Intn(2)]
				}
			case 6, 7:
				s.kind = memmodel.KStore
			case 8:
				s.kind, s.mo = memmodel.KStore, sc
			case 9, 10:
				s.kind, s.mo = memmodel.KFence, sc
			case 11:
				s.kind, s.loc = memmodel.KNAStore, 0
			}
			s.val, s.old, val = val, max(0, val-1-memmodel.Value(r.Intn(3))), val+1
			specs[ti] = append(specs[ti], s)
		}
	}
	return capi.Program{Name: "fences", Run: func(env capi.Env) {
		locs := []capi.Loc{env.NewLoc("hot", 0), env.NewAtomic("flag", 0)}
		var threads []capi.Thread
		for _, spec := range specs {
			threads = append(threads, env.Spawn("worker", func(env capi.Env) {
				for _, s := range spec {
					l := locs[s.loc]
					switch {
					case s.kind == memmodel.KLoad:
						first := env.Load(l, s.mo)
						for i := 0; i < 3 && env.Load(l, s.mo) == first; i++ {
						}
					case s.kind == memmodel.KStore:
						env.Store(l, s.val, s.mo)
					case s.kind == memmodel.KNAStore:
						env.Write(l, s.val)
					case s.kind == memmodel.KFence:
						env.Fence(s.mo)
					case s.cas:
						env.CompareExchange(l, s.old, s.val, s.mo, s.failMO)
					default:
						env.FetchAdd(l, 1, s.mo)
					}
				}
			}))
		}
		for _, th := range threads {
			env.Join(th)
		}
	}}
}
