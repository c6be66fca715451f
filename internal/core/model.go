package core

import (
	"fmt"
	"sort"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
	"c11tester/internal/mograph"
)

// aloc is the memory model's bookkeeping for one atomic location: the
// per-thread lists of memory accesses the paper maintains to evaluate the
// modification-order implications (Section 4.1) and the prior-set
// procedures (Figure 13).
type aloc struct {
	id memmodel.LocID
	// storesBy[t] lists the stores/RMWs (and promoted non-atomic stores) by
	// thread t in sequenced-before order.
	storesBy [][]*Action
	// accessesBy[t] lists loads and stores by thread t (loads_stores).
	accessesBy [][]*Action
	// scStoresBy[t] lists thread t's seq_cst stores (sc_stores).
	scStoresBy  [][]*Action
	lastSCStore *Action
}

func (al *aloc) stores(t memmodel.TID) []*Action {
	if int(t) < len(al.storesBy) {
		return al.storesBy[t]
	}
	return nil
}

func (al *aloc) scStores(t memmodel.TID) []*Action {
	if int(t) < len(al.scStoresBy) {
		return al.scStoresBy[t]
	}
	return nil
}

func grow(lists [][]*Action, t memmodel.TID) [][]*Action {
	for len(lists) <= int(t) {
		lists = append(lists, nil)
	}
	return lists
}

func (al *aloc) appendStore(a *Action) {
	al.storesBy = grow(al.storesBy, a.TID)
	al.storesBy[a.TID] = append(al.storesBy[a.TID], a)
	al.accessesBy = grow(al.accessesBy, a.TID)
	al.accessesBy[a.TID] = append(al.accessesBy[a.TID], a)
	if a.IsSC() {
		al.scStoresBy = grow(al.scStoresBy, a.TID)
		al.scStoresBy[a.TID] = append(al.scStoresBy[a.TID], a)
		al.lastSCStore = a
	}
}

func (al *aloc) appendLoad(a *Action) {
	al.accessesBy = grow(al.accessesBy, a.TID)
	al.accessesBy[a.TID] = append(al.accessesBy[a.TID], a)
}

// reset recycles a pooled aloc for a new execution: the outer per-thread
// slices keep their length and the inner lists keep their capacity, so the
// steady state re-allocates neither.
func (al *aloc) reset(id memmodel.LocID) {
	al.id = id
	for i := range al.storesBy {
		al.storesBy[i] = al.storesBy[i][:0]
	}
	for i := range al.accessesBy {
		al.accessesBy[i] = al.accessesBy[i][:0]
	}
	for i := range al.scStoresBy {
		al.scStoresBy[i] = al.scStoresBy[i][:0]
	}
	al.lastSCStore = nil
}

// C11Model is the paper's memory model: the fragment of C/C++11 with the
// C++20 release-sequence definition, consume strengthened to acquire, and
// hb ∪ sc ∪ rf acyclic (Section 2.2), with modification order maintained as
// a constraint graph (Section 4).
type C11Model struct {
	e     *Engine
	g     *mograph.Graph
	alocs []*aloc

	// alocPool recycles aloc bookkeeping (with its per-thread slice
	// capacity) across executions; entry i serves LocID i.
	alocPool []*aloc

	// Scratch buffers for the per-operation hot path: the may-read-from
	// candidate set, the per-thread prior writes of Figure 13 (priBuf for
	// the operation's memory order, priFailBuf for a compare-exchange's
	// failure order when its seq_cst-ness differs) with the RMW chain end of
	// each (priEnds, priFailEnds: entry i belongs to prior write i), and the
	// write prior set. All are live at once inside AtomicRMW, hence distinct
	// buffers.
	candBuf     []*Action
	priBuf      []*Action
	priEnds     []*mograph.Node
	priFailBuf  []*Action
	priFailEnds []*mograph.Node
	priWBuf     []*Action

	// mo is AppendTotalMO's working set, reused across locations and
	// executions.
	mo moScratch

	// checkPrior, when set, sees every prior-write set and its chain ends as
	// priorWrites returns them. Tests compare them with the Figure 13 loop
	// over every thread.
	checkPrior func(t *ThreadState, al *aloc, isSC bool, pri []*Action, ends []*mograph.Node)
}

// NewC11Model returns the C11Tester memory model.
func NewC11Model() *C11Model { return &C11Model{} }

// Graph exposes the modification order graph (stats, validation, ablation).
func (m *C11Model) Graph() *mograph.Graph { return m.g }

// Begin implements MemModel. The modification-order graph and the per-location
// bookkeeping are recycled across executions rather than re-allocated.
func (m *C11Model) Begin(e *Engine) {
	m.e = e
	if m.g == nil {
		m.g = mograph.New()
	} else {
		m.g.Reset()
	}
	m.alocs = m.alocs[:0]
}

func (m *C11Model) aloc(id memmodel.LocID) *aloc {
	for len(m.alocs) <= int(id) {
		m.alocs = append(m.alocs, nil)
	}
	if m.alocs[id] == nil {
		for len(m.alocPool) <= int(id) {
			m.alocPool = append(m.alocPool, nil)
		}
		al := m.alocPool[id]
		if al == nil {
			al = &aloc{}
			m.alocPool[id] = al
		}
		al.reset(id)
		m.alocs[id] = al
	}
	return m.alocs[id]
}

// ApplyLoadClocks implements the [ACQUIRE LOAD] and [RELAXED LOAD] rules of
// Figure 9: an acquire load merges the store's reads-from clock into the
// thread clock; a relaxed load banks it in the acquire-fence clock. It is
// exported because the baseline memory models use the same happens-before
// machinery (both tsan11 variants implement C11 release/acquire clocks).
func ApplyLoadClocks(t *ThreadState, mo memmodel.MemoryOrder, rf *Action) {
	applyLoadClocks(t, mo, rf)
}

// applyLoadClocks is ApplyLoadClocks, reporting whether the thread clock
// changed (only an acquire can change it).
func applyLoadClocks(t *ThreadState, mo memmodel.MemoryOrder, rf *Action) bool {
	if rf.RFCV == nil {
		return false // promoted non-atomic store: carries no release sequence
	}
	if mo.IsAcquire() {
		return t.C.Merge(rf.RFCV)
	}
	t.acqFence().Merge(rf.RFCV)
	return false
}

// ApplyFenceClocks implements the [ACQUIRE FENCE] / [RELEASE FENCE] rules of
// Figure 9: an acquire fence merges the banked acquire-fence clock into the
// thread clock; a release fence snapshots the thread clock into the
// release-fence clock. Shared by the C11 model and the baselines (their
// happens-before machinery is identical, Section 8's comparability premise).
func ApplyFenceClocks(t *ThreadState, mo memmodel.MemoryOrder) {
	if mo.IsAcquire() {
		t.C.Merge(t.facq) // Merge tolerates a nil (never-materialized) clock
	}
	if mo.IsRelease() {
		t.relFence().CopyFrom(t.C)
	}
}

// StoreRFCV implements [RELEASE STORE] / [RELAXED STORE]: a release store's
// reads-from clock is the thread clock; a relaxed store inherits the
// release-fence clock (fences turn later relaxed stores into releases). The
// snapshot is drawn from the engine's execution-lifetime clock arena.
func StoreRFCV(t *ThreadState, mo memmodel.MemoryOrder) *memmodel.ClockVector {
	if mo.IsRelease() {
		return t.eng.CloneCV(t.C)
	}
	return t.eng.CloneCV(t.frel) // CloneOf(nil) yields the empty clock
}

// chainEnd follows rmw edges to the end of a node's RMW chain; edges added
// "to" a store land after its RMW chain (Figure 6), so feasibility checks
// must test reachability of the chain end.
func chainEnd(n *mograph.Node) *mograph.Node {
	for n.RMW() != nil {
		n = n.RMW()
	}
	return n
}

// AtomicStore implements MemModel ([ATOMIC STORE] of Figure 11).
func (m *C11Model) AtomicStore(t *ThreadState, op *capi.Op) {
	al := m.aloc(op.Loc)
	act := m.e.NewAction()
	act.Seq, act.TID, act.Kind, act.MO = t.opSeq, t.ID, memmodel.KStore, op.MO
	act.Loc, act.Value = op.Loc, op.Operand
	if op.MO.IsSeqCst() {
		act.SCIdx = m.e.nextSCIndex()
		act.CVSnap = m.e.CloneCV(t.C)
	}
	isSC := op.MO.IsSeqCst()
	m.priBuf, m.priEnds = m.priorWrites(m.priBuf[:0], m.priEnds[:0], t, al, isSC)
	pset := m.writePriorSet(al, isSC, m.priBuf)
	act.RFCV = StoreRFCV(t, op.MO)
	act.Node = m.g.NewNode(t.ID, act.Seq, op.Loc)
	m.addEdges(pset, act.Node)
	al.appendStore(act)
	m.e.TraceAppend(act)
}

// AtomicLoad implements MemModel ([ATOMIC LOAD] of Figure 11): build the
// may-read-from set, pick candidates until one passes the modification-order
// feasibility check, then commit the reads-from edge.
func (m *C11Model) AtomicLoad(t *ThreadState, op *capi.Op) memmodel.Value {
	al := m.aloc(op.Loc)
	cands := m.mayReadFrom(t, al, op.MO, false)
	m.priBuf, m.priEnds = m.priorWrites(m.priBuf[:0], m.priEnds[:0], t, al, op.MO.IsSeqCst())
	pset := m.priBuf
	for len(cands) > 0 {
		i := m.e.PickIndex(len(cands))
		s := cands[i]
		if !m.readPriorSet(pset, m.priEnds, s) {
			cands[i] = cands[len(cands)-1]
			cands = cands[:len(cands)-1]
			continue
		}
		act := m.e.NewAction()
		act.Seq, act.TID, act.Kind, act.MO = t.opSeq, t.ID, memmodel.KLoad, op.MO
		act.Loc, act.Value, act.RF = op.Loc, s.Value, s
		if op.MO.IsSeqCst() {
			act.SCIdx = m.e.nextSCIndex()
		}
		m.addEdges(pset, s.Node)
		ApplyLoadClocks(t, op.MO, s)
		al.appendLoad(act)
		m.e.TraceAppend(act)
		return s.Value
	}
	panic(&InfeasibleError{Stage: "load", Loc: op.Loc, Detail: "no feasible store in the may-read-from set"})
}

// AtomicRMW implements MemModel ([ATOMIC RMW] of Figure 11). A failed
// compare-exchange degrades to a load with the failure memory order.
func (m *C11Model) AtomicRMW(t *ThreadState, op *capi.Op) (memmodel.Value, bool) {
	al := m.aloc(op.Loc)
	isCAS := op.RMW == capi.RMWCas
	isSC := op.MO.IsSeqCst()
	cands := m.mayReadFrom(t, al, op.MO, !isCAS)
	// The prior writes depend on the operation only through its seq_cst-ness,
	// so a failing compare-exchange shares them unless its failure order
	// differs in that; that set is computed on the first failing candidate.
	// The chain ends of either set stay valid while candidates are tried:
	// nothing changes an RMW chain before the operation commits.
	m.priBuf, m.priEnds = m.priorWrites(m.priBuf[:0], m.priEnds[:0], t, al, isSC)
	failPri, failEnds, haveFailPri := m.priBuf, m.priEnds, false
	for len(cands) > 0 {
		i := m.e.PickIndex(len(cands))
		s := cands[i]
		matches := !isCAS || s.Value == op.Expected
		drop := func() {
			cands[i] = cands[len(cands)-1]
			cands = cands[:len(cands)-1]
		}
		if isCAS && matches && s.RMWReader != nil {
			// A store already consumed by an RMW cannot be read by a
			// successful strong CAS, and reading it with the matching value
			// and failing would be a spurious failure.
			drop()
			continue
		}
		mo, pset, ends := op.MO, m.priBuf, m.priEnds
		if isCAS && !matches {
			mo = op.FailMO
			if !haveFailPri && mo.IsSeqCst() != isSC {
				m.priFailBuf, m.priFailEnds = m.priorWrites(m.priFailBuf[:0], m.priFailEnds[:0], t, al, mo.IsSeqCst())
				failPri, failEnds = m.priFailBuf, m.priFailEnds
			}
			pset, ends, haveFailPri = failPri, failEnds, true
		}
		if !m.readPriorSet(pset, ends, s) {
			drop()
			continue
		}
		if isCAS && !matches {
			// Failure path: a pure load.
			act := m.e.NewAction()
			act.Seq, act.TID, act.Kind, act.MO = t.opSeq, t.ID, memmodel.KLoad, mo
			act.Loc, act.Value, act.RF = op.Loc, s.Value, s
			if mo.IsSeqCst() {
				act.SCIdx = m.e.nextSCIndex()
			}
			m.addEdges(pset, s.Node)
			ApplyLoadClocks(t, mo, s)
			al.appendLoad(act)
			m.e.TraceAppend(act)
			return s.Value, false
		}
		// Defensive feasibility check for the write part: the store rule
		// will add edges from the write prior set into the RMW node, which
		// after migration also carries the read store's outgoing edges.
		// Reject the candidate if such an edge would close a cycle (the
		// paper's pseudocode only checks the read prior set).
		if !m.rmwWriteFeasible(al, isSC, s) {
			drop()
			continue
		}
		act := m.e.NewAction()
		act.Seq, act.TID, act.Kind, act.MO = t.opSeq, t.ID, memmodel.KRMW, op.MO
		act.Loc, act.Value, act.RF = op.Loc, rmwNewValue(op, s.Value), s
		synced := applyLoadClocks(t, op.MO, s)
		if isSC {
			act.SCIdx = m.e.nextSCIndex()
			act.CVSnap = m.e.CloneCV(t.C)
		}
		// [RELEASE RMW] / [RELAXED RMW]: the RMW continues every release
		// sequence the store it reads from is part of.
		act.RFCV = StoreRFCV(t, op.MO)
		act.RFCV.Merge(s.RFCV)
		act.Node = m.g.NewNode(t.ID, act.Seq, op.Loc)
		m.addEdges(pset, s.Node)
		m.g.AddRMWEdge(s.Node, act.Node)
		if synced {
			// The acquire merged s's clock into t.C, which moves the
			// hb-before accesses the prior writes are drawn from.
			m.priBuf, m.priEnds = m.priorWrites(m.priBuf[:0], m.priEnds[:0], t, al, isSC)
		}
		m.addEdges(m.writePriorSet(al, isSC, m.priBuf), act.Node)
		s.RMWReader = act
		al.appendStore(act)
		m.e.TraceAppend(act)
		return s.Value, true
	}
	panic(&InfeasibleError{Stage: "rmw", Loc: op.Loc, Detail: "no feasible store in the may-read-from set"})
}

// Fence implements MemModel ([ACQUIRE FENCE] / [RELEASE FENCE] of Figure 9;
// seq_cst fences additionally enter the SC order and the per-thread fence
// lists consumed by the Figure 13 prior-set procedures).
func (m *C11Model) Fence(t *ThreadState, op *capi.Op) {
	ApplyFenceClocks(t, op.MO)
	if op.MO.IsSeqCst() {
		act := m.e.NewAction()
		act.Seq, act.TID, act.Kind, act.MO = t.opSeq, t.ID, memmodel.KFence, op.MO
		act.SCIdx = m.e.nextSCIndex()
		t.SCFences = append(t.SCFences, act)
		m.e.TraceAppend(act)
	}
}

// PromoteNAStore implements MemModel (Section 7.2): the latest non-atomic
// store to loc becomes visible to the atomic machinery as a relaxed store by
// its original writer at its original epoch. Only the writer's intra-thread
// coherence edges are added; cross-thread ordering against a historical
// plain store cannot be reconstructed (the racing accesses themselves are
// reported by the race detector).
func (m *C11Model) PromoteNAStore(t *ThreadState, loc memmodel.LocID, writer memmodel.TID, epoch memmodel.SeqNum, v memmodel.Value) {
	al := m.aloc(loc)
	act := m.e.NewAction()
	act.Seq, act.TID, act.Kind, act.MO = epoch, writer, memmodel.KNAStore, memmodel.Relaxed
	act.Loc, act.Value = loc, v
	act.Node = m.g.NewNode(writer, epoch, loc)
	al.storesBy = grow(al.storesBy, writer)
	al.accessesBy = grow(al.accessesBy, writer)
	insertSorted := func(list []*Action) ([]*Action, int) {
		i := sort.Search(len(list), func(k int) bool { return list[k].Seq > epoch })
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i] = act
		return list, i
	}
	var i int
	al.storesBy[writer], i = insertSorted(al.storesBy[writer])
	if i > 0 {
		m.g.AddEdge(al.storesBy[writer][i-1].Node, act.Node)
	}
	if i+1 < len(al.storesBy[writer]) {
		m.g.AddEdge(act.Node, chainStart(al.storesBy[writer][i+1]).Node)
	}
	al.accessesBy[writer], _ = insertSorted(al.accessesBy[writer])
	m.e.TraceAppend(act)
}

// chainStart is the identity today but documents that the successor edge of
// a promoted store targets the store itself; AddEdge handles any RMW chain.
func chainStart(a *Action) *Action { return a }

// addEdges adds modification-order edges from each prior action's node to
// dst (Figure 7's AddEdges).
func (m *C11Model) addEdges(pset []*Action, dst *mograph.Node) {
	for _, a := range pset {
		if a.Node != dst {
			m.g.AddEdge(a.Node, dst)
		}
	}
}

// mayReadFrom builds the may-read-from set of Figure 12 for the current
// operation of thread t at al. The returned slice aliases the model's scratch
// buffer: it is valid until the next mayReadFrom call (callers shrink it in
// place while picking candidates, which is fine — calls never nest).
func (m *C11Model) mayReadFrom(t *ThreadState, al *aloc, mo memmodel.MemoryOrder, forRMW bool) []*Action {
	isSC := mo.IsSeqCst()
	var lastSC *Action
	if isSC {
		lastSC = al.lastSCStore
	}
	ret := m.candBuf[:0]
	for tid := range al.storesBy {
		stores := al.storesBy[tid]
		if len(stores) == 0 {
			continue
		}
		// Stores that happen before the load form a prefix of the thread's
		// list; only the last of them remains readable (line 8). They are
		// all the thread's own, so one clock entry decides them.
		clk := t.C.Get(memmodel.TID(tid))
		start := -1
		for i := len(stores) - 1; i >= 0; i-- {
			if stores[i].Seq <= clk {
				start = i
				break
			}
		}
		if start < 0 {
			start = 0
		}
		for i := start; i < len(stores); i++ {
			x := stores[i]
			if forRMW && x.RMWReader != nil {
				continue // no two RMWs read the same store (line 15)
			}
			if isSC && lastSC != nil && x != lastSC {
				// A seq_cst load reads the last seq_cst store or a store
				// neither sc- nor hb-before it (lines 9–11).
				if x.SCIdx >= 0 && x.SCIdx < lastSC.SCIdx {
					continue
				}
				if lastSC.CVSnap != nil && lastSC.CVSnap.Synchronized(x.TID, x.Seq) {
					continue
				}
			}
			ret = append(ret, x)
		}
	}
	m.candBuf = ret[:0]
	return ret
}

// lastStoreBefore returns the last store in list sequenced before seq.
func lastStoreBefore(list []*Action, seq memmodel.SeqNum) *Action {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].Seq < seq {
			return list[i]
		}
	}
	return nil
}

// lastSCStoreBefore returns the last store in list that is sc-ordered
// before scIdx.
func lastSCStoreBefore(list []*Action, scIdx int) *Action {
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].SCIdx >= 0 && list[i].SCIdx < scIdx {
			return list[i]
		}
	}
	return nil
}

// lastFenceBefore returns the last fence in fences sc-ordered before scIdx.
func lastFenceBefore(fences []*Action, scIdx int) *Action {
	for i := len(fences) - 1; i >= 0; i-- {
		if fences[i].SCIdx < scIdx {
			return fences[i]
		}
	}
	return nil
}

func getWrite(a *Action) *Action {
	if a == nil || a.Kind.IsWrite() {
		return a
	}
	return a.RF
}

func maxSeq(actions ...*Action) *Action {
	var best *Action
	for _, a := range actions {
		if a != nil && (best == nil || a.Seq > best.Seq) {
			best = a
		}
	}
	return best
}

// fencePriorStore computes last{S1,S2,S3} of Figure 13 for thread u: the
// stores to al that seq_cst fences order before the current operation. Fcur
// is the current thread's last seq_cst fence, isSC whether the current
// operation is seq_cst; without either, all three sets are empty.
func fencePriorStore(al *aloc, u *ThreadState, fCur *Action, isSC bool) *Action {
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
	return maxSeq(s1, s2, s3)
}

// priorWrites appends get_write(last{S1,S2,S3,S4}) of Figure 13, shared by
// ReadPriorSet and WritePriorSet, to dst for every thread where it is
// non-nil, in thread order, and the end of its RMW chain to ends. It does
// not depend on the store being read, so an operation computes both once
// before trying its may-read-from candidates.
//
// Only the threads that accessed al contribute: S1–S3 hold stores, and a
// thread without accesses has none. A thread's accesses are its own, in
// sequenced-before order, so S4, the last of them that happens before the
// current operation, is the last one within the current thread's clock
// entry for that thread (for the current thread, its last access).
func (m *C11Model) priorWrites(dst []*Action, ends []*mograph.Node, t *ThreadState, al *aloc, isSC bool) ([]*Action, []*mograph.Node) {
	fCur := t.LastSCFence()
	for u, accs := range al.accessesBy {
		if len(accs) == 0 {
			continue
		}
		clk := t.C.Get(memmodel.TID(u))
		var w *Action
		for i := len(accs) - 1; i >= 0; i-- {
			if accs[i].Seq <= clk {
				w = accs[i]
				break
			}
		}
		if isSC || fCur != nil {
			if s := fencePriorStore(al, m.e.threads[u], fCur, isSC); s != nil {
				w = maxSeq(s, w)
			}
		}
		if w = getWrite(w); w != nil {
			dst = append(dst, w)
			ends = append(ends, chainEnd(w.Node))
		}
	}
	if m.checkPrior != nil {
		m.checkPrior(t, al, isSC, dst, ends)
	}
	return dst, ends
}

// readPriorSet implements ReadPriorSet of Figure 13 for a load reading from
// s: the stores that must be modification-ordered before s are the prior
// writes pri minus s itself (addEdges skips s's own node), and it reports
// whether establishing the rf edge keeps the constraints satisfiable. ends
// holds the chain end of each prior write, as priorWrites computed them; a
// chain that ends at s is no cycle, since Reachable(s, s) is false.
func (m *C11Model) readPriorSet(pri []*Action, ends []*mograph.Node, s *Action) bool {
	for i, a := range pri {
		if a != s && m.g.Reachable(s.Node, ends[i]) {
			return false
		}
	}
	return true
}

// writePriorSet implements WritePriorSet of Figure 13 for a store that is
// about to be appended (it is not in the location lists yet): the last
// seq_cst store when the store is seq_cst, then the prior writes pri. The
// returned slice aliases the model's write-prior scratch buffer.
func (m *C11Model) writePriorSet(al *aloc, isSC bool, pri []*Action) []*Action {
	w := m.priWBuf[:0]
	if isSC && al.lastSCStore != nil {
		w = append(w, al.lastSCStore)
	}
	w = append(w, pri...)
	m.priWBuf = w[:0]
	return w
}

// rmwWriteFeasible rejects an RMW read candidate whose write-part edges
// would close a cycle through the RMW's migrated successors (see AtomicRMW).
// The write prior set is the last seq_cst store (when isSC) plus the prior
// writes; the candidate passed readPriorSet, which is the same check on the
// prior writes, so only the seq_cst store is left to test.
func (m *C11Model) rmwWriteFeasible(al *aloc, isSC bool, s *Action) bool {
	a := al.lastSCStore
	return !isSC || a == nil || a == s || !m.g.Reachable(s.Node, chainEnd(a.Node))
}

// AppendTotalMO appends to dst one modification order for loc consistent
// with the constraint graph: a linear extension of the mo edges in which
// every RMW immediately follows the store it read from (Section A.2's
// lifting). To honour the adjacency constraint, each store and its chain of
// RMW readers is contracted into one group before the topological sort;
// groups are emitted head-first with ties broken by head sequence number. It
// is used by the axiomatic validator and the trace recorder, and allocates
// nothing once dst and the model's scratch have grown.
func (m *C11Model) AppendTotalMO(dst []*Action, loc memmodel.LocID) []*Action {
	if int(loc) >= len(m.alocs) || m.alocs[loc] == nil {
		return dst
	}
	s := &m.mo
	s.load(m.alocs[loc])
	for i, a := range s.stores {
		ha := s.headOf(int32(i))
		for _, e := range a.Node.Edges() {
			if d := s.index(e); d >= 0 {
				if hd := s.headOf(d); hd != ha {
					s.indeg[hd]++
				}
			}
		}
	}
	frontier := s.frontier[:0]
	for i := range s.stores {
		if s.headOf(int32(i)) == int32(i) && s.indeg[i] == 0 {
			frontier = append(frontier, int32(i))
		}
	}
	emitted := 0
	for len(frontier) > 0 {
		best := 0
		for i := 1; i < len(frontier); i++ {
			if s.stores[frontier[i]].Seq < s.stores[frontier[best]].Seq {
				best = i
			}
		}
		head := frontier[best]
		frontier = append(frontier[:best], frontier[best+1:]...)
		// Emit the whole chain, then release the edges of all its members.
		for a := s.stores[head]; a != nil; a = s.chainNext(a) {
			dst = append(dst, a)
			emitted++
			for _, e := range a.Node.Edges() {
				if d := s.index(e); d >= 0 {
					if hd := s.headOf(d); hd != head {
						s.indeg[hd]--
						if s.indeg[hd] == 0 {
							frontier = append(frontier, hd)
						}
					}
				}
			}
		}
	}
	s.frontier = frontier[:0]
	if emitted != len(s.stores) {
		panic(&InfeasibleError{Stage: "total-mo", Loc: loc,
			Detail: fmt.Sprintf("modification order contains a cycle (%d of %d stores ordered)", emitted, len(s.stores))})
	}
	return dst
}

// moScratch is AppendTotalMO's working set for one location. Everything is
// indexed by position in stores (the location's stores in per-thread list
// order); pos maps a mo-graph node's arena index to that position, which is
// how an edge's target node is resolved to its store without a map.
type moScratch struct {
	stores   []*Action
	pos      []int32 // per node index: position in stores, valid if stores agrees
	head     []int32 // head of the store/RMW chain; -1 until computed
	indeg    []int32 // in-degree of each chain head in the contracted graph
	frontier []int32
}

// load resets the scratch to the stores of al. pos keeps entries from
// earlier locations and executions: index trusts an entry only when the
// store at that position has the node in question, so nothing is cleared.
func (s *moScratch) load(al *aloc) {
	s.stores = s.stores[:0]
	for _, list := range al.storesBy {
		s.stores = append(s.stores, list...)
	}
	s.head, s.indeg = s.head[:0], s.indeg[:0]
	for i, a := range s.stores {
		ix := a.Node.Index()
		if ix >= len(s.pos) {
			s.pos = append(s.pos, make([]int32, ix+1-len(s.pos))...)
		}
		s.pos[ix] = int32(i)
		s.head = append(s.head, -1)
		s.indeg = append(s.indeg, 0)
	}
}

// index returns the position of the store whose mo-graph node is n, or -1
// when n is nil or not one of this location's stores.
func (s *moScratch) index(n *mograph.Node) int32 {
	if n == nil || n.Index() >= len(s.pos) {
		return -1
	}
	if i := s.pos[n.Index()]; int(i) < len(s.stores) && s.stores[i].Node == n {
		return i
	}
	return -1
}

// headOf returns the position of the head of store i's store/RMW chain.
func (s *moScratch) headOf(i int32) int32 {
	if h := s.head[i]; h >= 0 {
		return h
	}
	h := i
	if a := s.stores[i]; a.Kind == memmodel.KRMW && a.RF != nil && a.RF.RMWReader == a {
		if rf := s.index(a.RF.Node); rf >= 0 {
			h = s.headOf(rf)
		}
	}
	s.head[i] = h
	return h
}

// chainNext returns the RMW that extends a's chain, if it is part of this
// location's graph.
func (s *moScratch) chainNext(a *Action) *Action {
	r := a.RMWReader
	if r == nil || s.index(r.Node) < 0 {
		return nil
	}
	return r
}

// AppendLocations appends the ids of all atomic locations the model has
// seen to dst, in ascending order.
func (m *C11Model) AppendLocations(dst []memmodel.LocID) []memmodel.LocID {
	for id, al := range m.alocs {
		if al != nil {
			dst = append(dst, memmodel.LocID(id))
		}
	}
	return dst
}
