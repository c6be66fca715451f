// Package mograph implements C11Tester's constraint-based representation of
// the C/C++ modification order (Section 4 of the paper).
//
// A node represents one atomic store or RMW. An mo edge A→B records the
// constraint A mo→ B; an rmw edge A→B records that B must *immediately*
// follow A in the modification order. The graph is only ever required to be
// satisfiable, i.e. acyclic; a topological sort per location (with RMWs glued
// to the stores they read from) yields a concrete modification order.
//
// Reachability between same-location nodes is computed purely from per-node
// clock vectors (Section 4.2, Theorem 1): CV_A ≤ CV_B iff B is reachable
// from A. AddEdge and AddRMWEdge implement Figure 6 of the paper, including
// clock-vector propagation, so no graph traversal and no rollback is ever
// needed (Section 4.3).
package mograph

import (
	"fmt"

	"c11tester/internal/memmodel"
)

// Node is a single store or RMW in the modification order graph.
type Node struct {
	// TID and Seq identify the event this node represents; Loc is the
	// memory location it writes. These fields are immutable after creation.
	TID memmodel.TID
	Seq memmodel.SeqNum
	Loc memmodel.LocID

	ix    int32 // position in the graph's arena
	cv    *memmodel.ClockVector
	edges []*Node // outgoing mo edges
	rmw   *Node   // the RMW that reads from this node, if any
}

// CV returns the node's mo-graph clock vector. The returned vector is live:
// it changes as edges are added. Callers must not mutate it.
func (n *Node) CV() *memmodel.ClockVector { return n.cv }

// Index returns the node's position in its graph's arena: nodes are
// numbered densely from 0 in creation order, and the numbering restarts at
// every Reset, so an index identifies a node only within one execution.
func (n *Node) Index() int { return int(n.ix) }

// RMW returns the RMW node that immediately follows n in modification order,
// or nil.
func (n *Node) RMW() *Node { return n.rmw }

// Edges returns the node's outgoing mo edges. Callers must not mutate the
// returned slice.
func (n *Node) Edges() []*Node { return n.edges }

func (n *Node) String() string {
	return fmt.Sprintf("node(loc=%d tid=%d seq=%d)", n.Loc, n.TID, n.Seq)
}

func (n *Node) hasEdge(to *Node) bool {
	for _, e := range n.edges {
		if e == to {
			return true
		}
	}
	return false
}

// Graph is a modification order graph across all locations. Edges only ever
// connect nodes of the same location. The graph's node storage is an
// execution-lifetime arena: Reset rewinds it so one Graph instance serves
// every execution of an engine, recycling the Node structs, their edge
// slices, and their clock vectors (with grown backing arrays) across
// executions.
type Graph struct {
	nodeCount int
	edgeCount int
	// mergeOps counts clock-vector merges performed during propagation; it is
	// exposed for the ablation benchmarks comparing CV reachability against
	// DFS (Section 4.2 motivation).
	mergeOps int

	// Node arena: chunked so node pointers stay stable as the graph grows.
	chunks [][]Node
	ci     int // chunk currently being filled
	used   int // slots used in chunks[ci]

	// queue is the scratch buffer of propagate.
	queue []*Node
}

// nodeChunk is the number of Nodes per arena chunk.
const nodeChunk = 64

// New returns an empty modification order graph.
func New() *Graph { return &Graph{} }

// Reset rewinds the graph for a new execution: all nodes handed out by
// NewNode are reclaimed (their structs, edge-slice capacity, and clock-vector
// backing arrays are reused), and the counters restart. The caller guarantees
// no Node pointer from before the Reset is used afterwards.
func (g *Graph) Reset() {
	g.nodeCount = 0
	g.edgeCount = 0
	g.mergeOps = 0
	g.ci = 0
	g.used = 0
}

// NewNode creates a node for a store/RMW by thread t with sequence number s
// writing location loc. Its clock vector is initialized to ⊥CV (Section 4.2).
// Nodes are drawn from the graph's arena and are valid until the next Reset.
func (g *Graph) NewNode(t memmodel.TID, s memmodel.SeqNum, loc memmodel.LocID) *Node {
	if g.ci == len(g.chunks) {
		g.chunks = append(g.chunks, make([]Node, nodeChunk))
	}
	n := &g.chunks[g.ci][g.used]
	n.ix = int32(g.ci*nodeChunk + g.used)
	g.used++
	if g.used == nodeChunk {
		g.ci++
		g.used = 0
	}
	n.TID, n.Seq, n.Loc = t, s, loc
	n.edges = n.edges[:0]
	n.rmw = nil
	if n.cv == nil {
		n.cv = memmodel.UnitClockVector(t, s)
	} else {
		n.cv.Reset(int(t) + 1)
		n.cv.Set(t, s)
	}
	g.nodeCount++
	return n
}

// NodeCount returns the number of nodes created since the last Reset.
func (g *Graph) NodeCount() int { return g.nodeCount }

// EdgeCount returns the number of mo edges currently stored.
func (g *Graph) EdgeCount() int { return g.edgeCount }

// MergeOps returns the cumulative number of clock-vector merge operations.
func (g *Graph) MergeOps() int { return g.mergeOps }

// merge implements the Merge procedure of Figure 6: it merges src's clock
// vector into dst and reports whether dst changed.
func (g *Graph) merge(dst, src *Node) bool {
	g.mergeOps++
	if src.cv.Leq(dst.cv) {
		return false
	}
	dst.cv.Merge(src.cv)
	return true
}

// AddEdge adds the constraint from mo→ to, following Figure 6's AddEdge:
// redundant edges (already implied by the clock vectors) are dropped unless
// the edge is between same-thread stores or closes an rmw pair, rmw chains
// are followed so that edges land after any RMW reading from `from`, and
// clock-vector changes are propagated breadth-first.
//
// AddEdge must only be called when the edge is known not to create a cycle
// (the engine checks candidate edges with Reachable before committing;
// Section 4.3 explains why this check suffices).
func (g *Graph) AddEdge(from, to *Node) {
	if from == to {
		return
	}
	mustAddEdge := from.rmw == to || from.TID == to.TID
	if from.cv.Leq(to.cv) && !mustAddEdge {
		return
	}
	for from.rmw != nil {
		next := from.rmw
		if next == to {
			break
		}
		from = next
	}
	if from == to {
		return
	}
	if !from.hasEdge(to) {
		from.edges = append(from.edges, to)
		g.edgeCount++
	}
	if g.merge(to, from) {
		g.propagate(to)
	}
}

// propagate pushes clock-vector information from start breadth-first along
// mo edges until it stops changing anything. The traversal queue is a
// per-graph scratch buffer, so steady-state propagation does not allocate.
func (g *Graph) propagate(start *Node) {
	queue := append(g.queue[:0], start)
	for head := 0; head < len(queue); head++ {
		node := queue[head]
		for _, dst := range node.edges {
			if g.merge(dst, node) {
				queue = append(queue, dst)
			}
		}
	}
	g.queue = queue[:0]
}

// AddRMWEdge installs rmw as the immediate modification-order successor of
// from (Figure 6's AddRMWEdge): outgoing mo edges of from migrate to rmw,
// and a normal mo edge from→rmw is added.
//
// One refinement over the paper's pseudocode: clock vectors are propagated
// from rmw unconditionally. Figure 6 only propagates when Merge(rmw, from)
// changes rmw's vector, but when an RMW reads from a same-thread store whose
// vector it already dominates, Merge reports no change and the *migrated*
// edges would never learn the RMW's own clock component — silently breaking
// Theorem 1 (a cycle could then evade the reachability check). The
// unconditional propagation restores the Lemma 3 invariant.
func (g *Graph) AddRMWEdge(from, rmw *Node) {
	from.rmw = rmw
	for _, dst := range from.edges {
		if dst != rmw && !rmw.hasEdge(dst) {
			rmw.edges = append(rmw.edges, dst)
			g.edgeCount++
		}
	}
	g.edgeCount -= len(from.edges)
	from.edges = from.edges[:0]
	g.AddEdge(from, rmw)
	g.propagate(rmw)
}

// Reachable reports whether b is reachable from a, i.e. whether the
// constraints imply a mo→ b. Per Theorem 1 this is exactly CV_A ≤ CV_B for
// same-location nodes in an acyclic graph. a and b must write the same
// location.
func (g *Graph) Reachable(a, b *Node) bool {
	if a == b {
		return false
	}
	return a.cv.Leq(b.cv)
}

// ReachableDFS is the traversal oracle used by tests and by the ablation
// benchmark: it answers the same question as Reachable by walking edges the
// way CDSChecker did (the approach Section 4 argues is infeasible for
// executions with millions of stores).
func (g *Graph) ReachableDFS(a, b *Node) bool {
	if a == b {
		return false
	}
	seen := map[*Node]bool{a: true}
	stack := []*Node{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.edges {
			if e == b {
				return true
			}
			if !seen[e] {
				seen[e] = true
				stack = append(stack, e)
			}
		}
	}
	return false
}
