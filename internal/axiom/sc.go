// sc.go decides per-execution sequential-consistency explainability: whether
// a lifted execution's outcome could have been produced by some interleaving
// under sequential consistency. Following the classic Shasha–Snir criterion
// (and its dynamic-robustness use in Margalit et al., "Dynamic Robustness
// Verification Against Weak Memory"), an execution is SC-explainable iff the
// union of
//
//	sb  (sequenced-before: program order per thread, plus the
//	     create→child / child→join synchronization edges),
//	rf  (reads-from),
//	mo  (the concrete per-location modification order), and
//	fr  (from-read: read → mo-successor of the store it read from)
//
// is acyclic: a topological order of that graph is exactly an SC
// interleaving reproducing every read's value. A cycle certifies that the
// weak memory model was load-bearing for the observed outcome — e.g. the
// store-buffering result r1=0 ∧ r2=0 is a four-edge sb/fr cycle.
package axiom

import "c11tester/internal/memmodel"

// scGraph is SCExplainable's working set, reused across executions: the
// graph over trace positions and the DFS state. The edges are collected in
// the order they are added and then laid out as a CSR adjacency: node v's
// successors are adj[off[v]:off[v+1]].
type scGraph struct {
	edges       []scEdge
	off, adj    []int32
	first, last []int32 // per thread: first and last trace position, or -1
	color       []byte
	stack       []dfsFrame
}

type scEdge struct{ from, to int32 }

type dfsFrame struct {
	node int32
	next int32 // index into adj of the node's next successor to follow
}

// SCExplainable reports whether the execution's outcome is explainable under
// sequential consistency. It runs over the same lifted execution Check
// does; executions with an empty trace are trivially SC.
func SCExplainable(ex *Execution) bool {
	n := len(ex.trace)
	if n == 0 {
		return true
	}
	g := &ex.sc
	g.edges = g.edges[:0]
	// edge adds from → to between two distinct trace actions.
	edge := func(from, to int32) {
		if int(from) < n && int(to) < n && from != to {
			g.edges = append(g.edges, scEdge{from: from, to: to})
		}
	}

	// sb: successive actions of the same thread (trace order is a linear
	// extension of every thread's program order), plus the thread
	// create/join synchronization edges — both are orderings any SC
	// interleaving must respect.
	g.first, g.last = resize(g.first, ex.threads), resize(g.last, ex.threads)
	for t := range g.first {
		g.first[t], g.last[t] = -1, -1
	}
	for i, a := range ex.trace {
		if prev := g.last[a.TID]; prev >= 0 {
			edge(prev, int32(i))
		} else {
			g.first[a.TID] = int32(i)
		}
		g.last[a.TID] = int32(i)
	}
	of := func(pos []int32, v memmodel.Value) int32 {
		if t := int(memmodel.TID(v)); t >= 0 && t < len(pos) {
			return pos[t]
		}
		return -1
	}
	for i, a := range ex.trace {
		switch a.Kind {
		case memmodel.KThreadCreate:
			if first := of(g.first, a.Value); first >= 0 {
				edge(int32(i), first)
			}
		case memmodel.KThreadJoin:
			if last := of(g.last, a.Value); last >= 0 {
				edge(last, int32(i))
			}
		}
	}

	// rf and mo: a read follows its source store; each location's stores
	// follow their modification order.
	for i, a := range ex.trace {
		if a.Kind.IsRead() && ex.rf[i] >= 0 {
			edge(ex.rf[i], int32(i))
		}
	}
	for k := range ex.mo {
		ids := ex.moIDs[ex.moOff[k]:ex.moOff[k+1]]
		for i := 1; i < len(ids); i++ {
			edge(ids[i-1], ids[i])
		}
	}

	// fr: a read is overwritten by every store mo-after its source, so it
	// must be scheduled before the source's mo-successor (the rest of the
	// chain follows through mo). A read from the initial value (RF == nil)
	// precedes the location's first store. The RMW reading from w *is* w's
	// mo-successor (rmw-atomic); skipping the self-edge leaves exactly the
	// mo edges, which are already present.
	for i, a := range ex.trace {
		if !a.Kind.IsRead() {
			continue
		}
		succ := int32(-1)
		if r := ex.rf[i]; r >= 0 {
			ix := ex.moIx[r]
			if ix < 0 {
				continue
			}
			if ids := ex.moOf(ex.acts[r].Loc); int(ix)+1 < len(ids) {
				succ = ids[ix+1]
			}
		} else if ids := ex.moOf(a.Loc); len(ids) > 0 {
			succ = ids[0]
		}
		if succ >= 0 {
			edge(int32(i), succ)
		}
	}

	g.layout(n)
	return g.acyclic(n)
}

// layout sorts the collected edges by source into the CSR adjacency over
// the first n nodes, keeping each source's edges in the order they were
// added.
func (g *scGraph) layout(n int) {
	g.off = resize(g.off, n+1)
	clear(g.off)
	for _, e := range g.edges {
		g.off[e.from+1]++
	}
	for v := 1; v <= n; v++ {
		g.off[v] += g.off[v-1]
	}
	g.adj = resize(g.adj, len(g.edges))
	for _, e := range g.edges {
		g.adj[g.off[e.from]] = e.to
		g.off[e.from]++
	}
	// The fill advanced each start to the next node's start.
	copy(g.off[1:], g.off[:n])
	g.off[0] = 0
}

// acyclic reports whether the graph over the first n nodes has no directed
// cycle, via an iterative three-color DFS (the trace can be long; no
// recursion).
func (g *scGraph) acyclic(n int) bool {
	const (
		white = 0 // unvisited
		grey  = 1 // on the DFS stack
		black = 2 // done
	)
	g.color = resize(g.color, n)
	clear(g.color)
	for start := range g.color {
		if g.color[start] != white {
			continue
		}
		g.color[start] = grey
		g.stack = append(g.stack[:0], dfsFrame{node: int32(start), next: g.off[start]})
		for len(g.stack) > 0 {
			f := &g.stack[len(g.stack)-1]
			if f.next < g.off[f.node+1] {
				to := g.adj[f.next]
				f.next++
				switch g.color[to] {
				case grey:
					return false
				case white:
					g.color[to] = grey
					g.stack = append(g.stack, dfsFrame{node: to, next: g.off[to]})
				}
				continue
			}
			g.color[f.node] = black
			g.stack = g.stack[:len(g.stack)-1]
		}
	}
	return true
}
