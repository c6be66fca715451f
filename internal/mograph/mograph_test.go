package mograph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"c11tester/internal/memmodel"
)

func TestAddEdgeBasicReachability(t *testing.T) {
	g := New()
	a := g.NewNode(0, 1, 1)
	b := g.NewNode(1, 2, 1)
	c := g.NewNode(2, 3, 1)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	if !g.Reachable(a, b) || !g.Reachable(b, c) || !g.Reachable(a, c) {
		t.Fatal("transitive reachability expected")
	}
	if g.Reachable(c, a) || g.Reachable(b, a) {
		t.Fatal("reverse reachability unexpected")
	}
	if g.Reachable(a, a) {
		t.Fatal("a node must not be reachable from itself in an acyclic graph")
	}
}

func TestAddEdgeDropsRedundantCrossThreadEdge(t *testing.T) {
	g := New()
	a := g.NewNode(0, 1, 1)
	b := g.NewNode(1, 2, 1)
	c := g.NewNode(2, 3, 1)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	edges := g.EdgeCount()
	g.AddEdge(a, c) // implied by a→b→c and cross-thread: dropped
	if g.EdgeCount() != edges {
		t.Fatalf("redundant cross-thread edge should be dropped, edges %d → %d", edges, g.EdgeCount())
	}
}

func TestAddEdgeKeepsSameThreadEdge(t *testing.T) {
	g := New()
	a := g.NewNode(0, 1, 1)
	b := g.NewNode(1, 2, 1)
	c := g.NewNode(0, 3, 1)
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	edges := g.EdgeCount()
	// a and c belong to the same thread: mustAddEdge forces the edge even
	// though reachability already implies it (Figure 6, line 2).
	g.AddEdge(a, c)
	if g.EdgeCount() != edges+1 {
		t.Fatalf("same-thread edge must be added, edges %d → %d", edges, g.EdgeCount())
	}
}

func TestAddEdgeIsIdempotent(t *testing.T) {
	g := New()
	a := g.NewNode(0, 1, 1)
	b := g.NewNode(0, 2, 1)
	g.AddEdge(a, b)
	edges := g.EdgeCount()
	g.AddEdge(a, b)
	if g.EdgeCount() != edges {
		t.Fatal("duplicate edge must not be stored twice")
	}
}

func TestAddRMWEdgeMigratesOutgoingEdges(t *testing.T) {
	g := New()
	s := g.NewNode(0, 1, 1) // store the RMW reads from
	x := g.NewNode(1, 2, 1) // store already mo-after s
	g.AddEdge(s, x)
	r := g.NewNode(2, 3, 1) // the RMW
	g.AddRMWEdge(s, r)

	if s.RMW() != r {
		t.Fatal("rmw pointer not installed")
	}
	if len(s.Edges()) != 1 || s.Edges()[0] != r {
		t.Fatalf("store must keep only the edge to its RMW, got %v", s.Edges())
	}
	if !r.hasEdge(x) {
		t.Fatal("outgoing edge s→x must migrate to r→x")
	}
	if !g.Reachable(s, r) || !g.Reachable(s, x) || !g.Reachable(r, x) {
		t.Fatal("reachability after migration wrong")
	}
}

func TestAddEdgeFollowsRMWChain(t *testing.T) {
	g := New()
	s := g.NewNode(0, 1, 1)
	r1 := g.NewNode(1, 2, 1)
	r2 := g.NewNode(2, 3, 1)
	g.AddRMWEdge(s, r1)
	g.AddRMWEdge(r1, r2)
	// A later constraint "s mo→ w" must order w after the whole RMW chain,
	// because RMWs immediately follow the store they read from.
	w := g.NewNode(3, 4, 1)
	g.AddEdge(s, w)
	if !g.Reachable(r2, w) {
		t.Fatal("edge must be redirected past the RMW chain")
	}
	if s.hasEdge(w) {
		t.Fatal("edge must not be attached to the store that heads an rmw chain")
	}
}

// chainEnd follows a node's rmw chain to its end, mirroring the redirection
// AddEdge performs (Figure 6 lines 6–12): a constraint from→to really lands
// on the last RMW glued after from.
func chainEnd(n *Node) *Node {
	for n.RMW() != nil {
		n = n.RMW()
	}
	return n
}

// edgeWouldCycle reports whether committing the constraint from mo→ to would
// close a cycle, accounting for rmw-chain redirection. This is the engine's
// pre-commit check (§4.3): the edge actually lands at chainEnd(from), so the
// cycle test is "is chainEnd(from) reachable from to".
func edgeWouldCycle(g *Graph, from, to *Node) bool {
	end := chainEnd(from)
	if end == to {
		return false // degenerate: edge collapses onto the rmw pair
	}
	return g.Reachable(to, end)
}

// buildRandomGraph grows a graph the way the engine does: every new node of
// a thread is mo-ordered after that thread's previous store to the location
// (write-write coherence), occasional nodes are RMWs glued to an unread
// store, and random extra constraints are added only when the pre-commit
// cycle check admits them — exactly the no-rollback discipline of §4.3.
func buildRandomGraph(r *rand.Rand, nodes int) (*Graph, []*Node) {
	g := New()
	var all []*Node
	lastByThread := map[memmodel.TID]*Node{}
	seq := memmodel.SeqNum(1)
	for i := 0; i < nodes; i++ {
		tid := memmodel.TID(r.Intn(4))
		n := g.NewNode(tid, seq, 1)
		seq++
		prev := lastByThread[tid]
		if r.Intn(4) == 0 && len(all) > 0 {
			// Make n an RMW reading from a random store no RMW has read
			// from, provided the read passes the prior-set check: the
			// reader's thread-prior store must be orderable before the
			// store read from (edge prev→c must not close a cycle).
			cands := make([]*Node, 0, len(all))
			for _, c := range all {
				if c.RMW() != nil {
					continue
				}
				if prev != nil && prev != c && edgeWouldCycle(g, prev, c) {
					continue
				}
				cands = append(cands, c)
			}
			if len(cands) > 0 {
				c := cands[r.Intn(len(cands))]
				if prev != nil && prev != c {
					g.AddEdge(prev, c) // the ReadPriorSet edge (CoWR)
				}
				g.AddRMWEdge(c, n)
			}
		}
		if prev != nil {
			g.AddEdge(prev, n)
		}
		lastByThread[tid] = n
		all = append(all, n)
		// A few random extra constraints, subject to the pre-commit check.
		for k := 0; k < 2; k++ {
			if len(all) < 2 {
				break
			}
			from := all[r.Intn(len(all))]
			to := all[r.Intn(len(all))]
			if from == to || edgeWouldCycle(g, from, to) {
				continue
			}
			g.AddEdge(from, to)
		}
	}
	return g, all
}

// TestQuickTheorem1 checks Theorem 1 of the paper: on graphs built with the
// engine's discipline, clock-vector comparison agrees with DFS reachability
// for every ordered pair of nodes.
func TestQuickTheorem1(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, all := buildRandomGraph(r, 3+r.Intn(30))
		for _, a := range all {
			for _, b := range all {
				if a == b {
					continue
				}
				if g.Reachable(a, b) != g.ReachableDFS(a, b) {
					t.Logf("mismatch: %v → %v cv=%v dfs=%v", a, b, g.Reachable(a, b), g.ReachableDFS(a, b))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAcyclicity checks that the no-rollback discipline keeps the graph
// acyclic: no node ever reaches itself through edges.
func TestQuickAcyclicity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g, all := buildRandomGraph(r, 3+r.Intn(40))
		for _, n := range all {
			if g.ReachableDFS(n, n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLemma2 checks Lemma 2: a store's own clock-vector slot stays
// exactly its sequence number, no matter what edges are added.
func TestQuickLemma2(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, all := buildRandomGraph(r, 3+r.Intn(40))
		for _, n := range all {
			if n.CV().Get(n.TID) != n.Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphResetRecyclesNodes(t *testing.T) {
	g := New()
	a := g.NewNode(0, 1, 1)
	b := g.NewNode(1, 2, 1)
	g.AddEdge(a, b)
	if g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("precondition: nodes=%d edges=%d", g.NodeCount(), g.EdgeCount())
	}

	g.Reset()
	if g.NodeCount() != 0 || g.EdgeCount() != 0 || g.MergeOps() != 0 {
		t.Fatalf("Reset must zero counters: nodes=%d edges=%d merges=%d",
			g.NodeCount(), g.EdgeCount(), g.MergeOps())
	}
	// The same storage comes back, fully reinitialized.
	a2 := g.NewNode(2, 7, 3)
	if a2 != a {
		t.Fatal("Reset must recycle the first node slot")
	}
	if a2.TID != 2 || a2.Seq != 7 || a2.Loc != 3 {
		t.Fatalf("recycled node keeps stale identity: %v", a2)
	}
	if len(a2.Edges()) != 0 || a2.RMW() != nil {
		t.Fatal("recycled node keeps stale edges/rmw state")
	}
	b2 := g.NewNode(0, 9, 3)
	if g.Reachable(a2, b2) || g.Reachable(b2, a2) {
		t.Fatal("recycled nodes must start unordered")
	}
	g.AddEdge(a2, b2)
	if !g.Reachable(a2, b2) {
		t.Fatal("reachability broken after recycle")
	}
}

func TestGraphResetEquivalentToFreshGraph(t *testing.T) {
	// The same edge script run on a recycled graph and on a fresh graph must
	// give identical reachability answers.
	build := func(g *Graph) []*Node {
		var nodes []*Node
		for i := 0; i < 20; i++ {
			nodes = append(nodes, g.NewNode(memmodel.TID(i%3), memmodel.SeqNum(i+1), 1))
		}
		for i := 0; i+1 < len(nodes); i += 2 {
			g.AddEdge(nodes[i], nodes[i+1])
		}
		for i := 0; i+3 < len(nodes); i += 3 {
			g.AddEdge(nodes[i], nodes[i+3])
		}
		return nodes
	}
	recycled := New()
	for r := 0; r < 3; r++ { // dirty the arena first
		recycled.Reset()
		build(recycled)
	}
	recycled.Reset()
	rn := build(recycled)
	fresh := New()
	fn := build(fresh)
	for i := range rn {
		for j := range rn {
			if got, want := recycled.Reachable(rn[i], rn[j]), fresh.Reachable(fn[i], fn[j]); got != want {
				t.Fatalf("Reachable(%d,%d): recycled=%v fresh=%v", i, j, got, want)
			}
		}
	}
}

// TestNodeIndexIsDenseArenaPosition checks that Index numbers nodes 0, 1, …
// in creation order across arena chunks and restarts at Reset — the
// contract AppendTotalMO's position array relies on.
func TestNodeIndexIsDenseArenaPosition(t *testing.T) {
	g := New()
	for r := 0; r < 2; r++ {
		g.Reset()
		var nodes []*Node
		for i := 0; i < 3*nodeChunk+5; i++ {
			nodes = append(nodes, g.NewNode(memmodel.TID(i%3), memmodel.SeqNum(i+1), 1))
		}
		for i, n := range nodes {
			if n.Index() != i {
				t.Fatalf("round %d: node %d has Index %d", r, i, n.Index())
			}
		}
	}
}
