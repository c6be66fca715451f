package core

import (
	"fmt"
	"slices"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
	"c11tester/internal/mograph"
	"c11tester/internal/structures"
)

// TestAppendTotalMOMatchesReference holds AppendTotalMO, which keeps its
// working set in reused position-indexed scratch, to the map-based TotalMO
// it replaced: the same stores in the same order for every location, on
// every benchmark and litmus test. The trace
// recorder serializes this order, so any drift would change recorded traces.
func TestAppendTotalMOMatchesReference(t *testing.T) {
	var progs []capi.Program
	for _, b := range append(structures.All(), structures.Extras()...) {
		progs = append(progs, b.New())
	}
	for _, lt := range litmus.Tests() {
		progs = append(progs, lt.Make(new(string)))
	}
	var got []*Action
	var locs []memmodel.LocID
	for _, prog := range progs {
		model := NewC11Model()
		eng := New("c11tester", model, Config{StoreBurst: true})
		for seed := int64(1); seed <= 10; seed++ {
			eng.Execute(prog, seed)
			locs = model.AppendLocations(locs[:0])
			if !slices.IsSorted(locs) {
				t.Fatalf("%s seed %d: locations %v not ascending", prog.Name, seed, locs)
			}
			for _, loc := range locs {
				got = model.AppendTotalMO(got[:0], loc)
				if want := refTotalMO(model, loc); !slices.Equal(got, want) {
					t.Fatalf("%s seed %d loc %d: AppendTotalMO = %v, want %v", prog.Name, seed, loc, got, want)
				}
			}
		}
		eng.Close()
	}
}

// refTotalMO returns one modification order for loc consistent with the
// constraint graph: a linear extension of the mo edges in which every RMW
// immediately follows the store it read from (Section A.2's lifting). To
// honour the adjacency constraint, each store and its chain of RMW readers
// is contracted into one group before the topological sort; groups are
// emitted head-first with ties broken by head sequence number.
func refTotalMO(m *C11Model, loc memmodel.LocID) []*Action {
	if int(loc) >= len(m.alocs) || m.alocs[loc] == nil {
		return nil
	}
	al := m.alocs[loc]
	var stores []*Action
	byNode := map[*mograph.Node]*Action{}
	for _, list := range al.storesBy {
		for _, a := range list {
			stores = append(stores, a)
			byNode[a.Node] = a
		}
	}
	// rep maps each action to the head of its store/RMW chain.
	rep := map[*Action]*Action{}
	var headOf func(a *Action) *Action
	headOf = func(a *Action) *Action {
		if h, ok := rep[a]; ok {
			return h
		}
		h := a
		if a.Kind == memmodel.KRMW && a.RF != nil && a.RF.RMWReader == a {
			if _, inGraph := byNode[a.RF.Node]; inGraph {
				h = headOf(a.RF)
			}
		}
		rep[a] = h
		return h
	}
	indeg := map[*Action]int{}
	for _, a := range stores {
		ha := headOf(a)
		for _, e := range a.Node.Edges() {
			if dst, ok := byNode[e]; ok {
				if hd := headOf(dst); hd != ha {
					indeg[hd]++
				}
			}
		}
	}
	var frontier []*Action
	for _, a := range stores {
		if headOf(a) == a && indeg[a] == 0 {
			frontier = append(frontier, a)
		}
	}
	var out []*Action
	emitted := 0
	for len(frontier) > 0 {
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i].Seq < frontier[best].Seq {
				best = i
			}
		}
		head := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		// Emit the whole chain, then release the edges of all its members.
		for a := head; a != nil; a = refChainNext(a, byNode) {
			out = append(out, a)
			emitted++
			for _, e := range a.Node.Edges() {
				if dst, ok := byNode[e]; ok {
					if hd := headOf(dst); hd != head {
						indeg[hd]--
						if indeg[hd] == 0 {
							frontier = append(frontier, hd)
						}
					}
				}
			}
		}
	}
	if emitted != len(stores) {
		panic(&InfeasibleError{Stage: "total-mo", Loc: loc,
			Detail: fmt.Sprintf("modification order contains a cycle (%d of %d stores ordered)", emitted, len(stores))})
	}
	return out
}

// refChainNext returns the RMW that extends a's chain, if it is part of this
// location's graph.
func refChainNext(a *Action, byNode map[*mograph.Node]*Action) *Action {
	r := a.RMWReader
	if r == nil {
		return nil
	}
	if _, ok := byNode[r.Node]; !ok {
		return nil
	}
	return r
}
