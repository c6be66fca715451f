// atomicity.go is the conflict-serializability atomicity monitor (after
// Tunç et al., "Fast Atomicity Monitoring"): programs bracket intended-
// atomic code with Env.BeginAtomic/EndAtomic, and the analyzer checks each
// execution's conflict graph — block instances plus singleton transactions
// for unbracketed accesses, with an edge for every trace-ordered conflicting
// access pair — for acyclicity. A cycle certifies the execution is not
// conflict-serializable: no serial order of the marked blocks explains the
// observed interleaving, i.e. an atomicity violation was actually exercised.
package analysis

import (
	"fmt"
	"slices"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

func init() {
	Register("atomicity", func() Analyzer { return &atomicity{} })
}

// blockKind is the atomicity finding: its subject is the block's name, its
// detail the length of the conflict-graph cycle that exposed it.
var blockKind = Kind{Prefix: "block/", Describe: func(name string, cycle int) string {
	return fmt.Sprintf("atomic block %q is not conflict-serializable: its accesses interleave with a conflicting transaction (cycle of %d transaction(s) in the conflict graph)", name, cycle)
}}

// atomicity holds Observe's scratch, rebuilt for every execution and grown
// on first use, so a steady-state Observe allocates nothing.
type atomicity struct {
	// Accesses. accs holds them in trace order, each linked to the next
	// access to its location; locs lists the touched locations in
	// first-touch order with the ends of their chains, and slot maps a
	// location to 1 + its index in locs (0 = untouched this execution;
	// collect clears what it set).
	accs []access
	locs []locRun
	slot []int32

	// Conflict graph in CSR form: node v's successors are
	// adj[adjOff[v]:adjOff[v+1]], in the order their edges were first
	// found. edges holds every edge as found, duplicates included; mark
	// stamps a successor with its source node while that node's list is
	// deduplicated.
	edges  []edge
	adjOff []int32
	adj    []int32
	mark   []int32

	// DFS state, the cycle's block names, the returned findings and their
	// rendered keys.
	color []byte
	stack []frame
	names []string
	out   []Finding
	keys  keyMemo
}

type access struct {
	txn   int32
	next  int32 // index in accs of the next access to the location, or -1
	write bool
}

type locRun struct {
	id         memmodel.LocID
	head, tail int32 // the location's first and last access in accs
}

type edge struct{ from, to int32 }

type frame struct {
	node int32
	next int32 // index into adj of the node's next successor to follow
}

func (*atomicity) Name() string     { return "atomicity" }
func (*atomicity) NeedsTrace() bool { return true }
func (*atomicity) NeedsMO() bool    { return false }

// Observe builds the execution's transaction conflict graph and reports one
// finding per marked block on the first cycle found. Programs without block
// annotations produce no transactions and therefore no findings.
func (m *atomicity) Observe(x *Exec) []Finding {
	blocks := x.Result.Blocks
	if len(blocks) == 0 {
		return nil
	}
	nodes := m.collect(x.Engine.Trace(), blocks)
	m.conflicts(nodes)
	start, n := m.findCycle(nodes)
	if n == 0 {
		return nil
	}
	m.names = m.names[:0]
	for _, f := range m.stack[start:] {
		if int(f.node) < len(blocks) {
			m.names = append(m.names, blocks[f.node].Name)
		}
	}
	slices.Sort(m.names)
	m.out = m.out[:0]
	for _, name := range slices.Compact(m.names) {
		m.out = append(m.out, Finding{Key: m.keys.key(&blockKind, name), Kind: &blockKind, Subject: name, Detail: n})
	}
	return m.out
}

// collect assigns every shared-memory access of the trace to its
// transaction and chains the accesses per location, locations in
// first-touch order. Node b < len(blocks) is block instance b; every access
// outside any block is its own singleton transaction. Singleton-to-singleton
// edges follow trace order (acyclic on their own), so any conflict-graph
// cycle passes through at least one block. It returns the node count.
func (m *atomicity) collect(tr []*core.Action, blocks []capi.BlockSpan) int {
	nodes := len(blocks)
	m.accs, m.locs = m.accs[:0], m.locs[:0]
	for _, a := range tr {
		if a.Loc == memmodel.NoLoc || (!a.Kind.IsRead() && !a.Kind.IsWrite()) {
			continue
		}
		txn := blockOf(blocks, a)
		if txn < 0 {
			txn = nodes
			nodes++
		}
		if int(a.Loc) >= len(m.slot) {
			m.slot = append(m.slot, make([]int32, int(a.Loc)+1-len(m.slot))...)
		}
		k := int32(len(m.accs))
		if l := m.slot[a.Loc]; l == 0 {
			m.locs = append(m.locs, locRun{id: a.Loc, head: k, tail: k})
			m.slot[a.Loc] = int32(len(m.locs))
		} else {
			run := &m.locs[l-1]
			m.accs[run.tail].next = k
			run.tail = k
		}
		m.accs = append(m.accs, access{txn: int32(txn), next: -1, write: a.Kind.IsWrite()})
	}
	for _, l := range m.locs {
		m.slot[l.id] = 0
	}
	return nodes
}

// conflicts builds the conflict graph: an edge for every same-location
// access pair with at least one write and different transactions, directed
// by trace order, each edge once. Iterating locations in first-touch order
// keeps every successor list — and the cycle found first — deterministic.
func (m *atomicity) conflicts(nodes int) {
	m.edges = m.edges[:0]
	for _, l := range m.locs {
		for i := l.head; i >= 0; i = m.accs[i].next {
			early := m.accs[i]
			for j := early.next; j >= 0; j = m.accs[j].next {
				late := m.accs[j]
				if early.txn == late.txn || (!early.write && !late.write) {
					continue
				}
				m.edges = append(m.edges, edge{from: early.txn, to: late.txn})
			}
		}
	}

	// Stable counting sort by source, then drop repeats within each
	// source's list, keeping first occurrences.
	m.adjOff = slices.Grow(m.adjOff[:0], nodes+1)[:nodes+1]
	clear(m.adjOff)
	for _, e := range m.edges {
		m.adjOff[e.from+1]++
	}
	for v := 1; v <= nodes; v++ {
		m.adjOff[v] += m.adjOff[v-1]
	}
	m.adj = slices.Grow(m.adj[:0], len(m.edges))[:len(m.edges)]
	for _, e := range m.edges {
		m.adj[m.adjOff[e.from]] = e.to
		m.adjOff[e.from]++
	}
	m.mark = slices.Grow(m.mark[:0], nodes)[:nodes]
	clear(m.mark)
	w, lo := int32(0), int32(0)
	for v := 0; v < nodes; v++ {
		hi := m.adjOff[v] // the fill advanced v's start to its end
		m.adjOff[v] = w
		for _, to := range m.adj[lo:hi] {
			if m.mark[to] != int32(v)+1 {
				m.mark[to] = int32(v) + 1
				m.adj[w] = to
				w++
			}
		}
		lo = hi
	}
	m.adjOff[nodes] = w
}

// findCycle runs a deterministic DFS over the conflict graph and returns the
// first directed cycle found as the stack suffix m.stack[start:], with its
// length n; n is 0 when the graph is acyclic.
func (m *atomicity) findCycle(nodes int) (start, n int) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	m.color = slices.Grow(m.color[:0], nodes)[:nodes]
	clear(m.color)
	for s := 0; s < nodes; s++ {
		if m.color[s] != white {
			continue
		}
		m.color[s] = grey
		m.stack = append(m.stack[:0], frame{node: int32(s), next: m.adjOff[s]})
		for len(m.stack) > 0 {
			f := &m.stack[len(m.stack)-1]
			if f.next < m.adjOff[f.node+1] {
				to := m.adj[f.next]
				f.next++
				switch m.color[to] {
				case grey:
					// The cycle is the stack suffix from to's frame.
					for i := range m.stack {
						if m.stack[i].node == to {
							return i, len(m.stack) - i
						}
					}
				case white:
					m.color[to] = grey
					m.stack = append(m.stack, frame{node: to, next: m.adjOff[to]})
				}
				continue
			}
			m.color[f.node] = black
			m.stack = m.stack[:len(m.stack)-1]
		}
	}
	return 0, 0
}

// blockOf returns the index of the innermost block span containing action a,
// or -1. Spans with End == 0 were still open when the execution finished and
// extend to its end. Blocks nest per thread and are appended in Begin order,
// so the last matching span is the innermost.
func blockOf(blocks []capi.BlockSpan, a *core.Action) int {
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		if b.TID == a.TID && b.Begin <= a.Seq && (b.End == 0 || a.Seq < b.End) {
			return i
		}
	}
	return -1
}
