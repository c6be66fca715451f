// Package capi is the instrumentation boundary between a program under test
// and a testing tool. In the paper, an LLVM pass rewrites every atomic
// operation, fence, and shared non-atomic access into calls into the
// C11Tester runtime (Figure 1); here, programs under test are written
// directly against the Env interface, which exposes exactly that runtime
// call surface: atomics with explicit memory orders, non-atomic reads and
// writes, fences, and threads (the core language of Figure 8, plus thread
// creation and join). Every lock in the benchmark set is built from these
// atomics, so the surface carries no mutex or condition variable.
//
// All three tools in this repository — the C11Tester engine and the tsan11
// and tsan11rec baselines — execute the same programs through this
// interface, which is what makes the paper's cross-tool comparisons
// meaningful.
package capi

import (
	"fmt"

	"c11tester/internal/memmodel"
)

// Loc is a handle to one shared memory location. A location may be accessed
// both atomically and non-atomically; supporting such mixed-mode access is a
// deliberate feature (Section 7.2: atomic_init, memory reuse, realloc).
type Loc struct {
	ID memmodel.LocID
}

// Thread is a handle to a model-managed thread, usable with Join.
type Thread struct {
	TID memmodel.TID
}

// Env is the per-thread view of the testing runtime. Every method is a
// "visible operation" in the paper's sense — executing one hands control to
// the tool, which picks the behaviour (e.g. which store a load reads from)
// and the next thread to run.
//
// Env values must only be used from the thread they were handed to.
type Env interface {
	// TID returns this thread's id (main is 0).
	TID() memmodel.TID

	// NewLoc creates a shared memory location initialised by a non-atomic
	// store of init performed by the creating thread (the model of
	// atomic_init, Section 7.2).
	NewLoc(name string, init memmodel.Value) Loc
	// NewAtomic creates a location initialised by a relaxed atomic store,
	// for objects that are only ever accessed atomically.
	NewAtomic(name string, init memmodel.Value) Loc

	// Load performs an atomic load.
	Load(l Loc, mo memmodel.MemoryOrder) memmodel.Value
	// Store performs an atomic store.
	Store(l Loc, v memmodel.Value, mo memmodel.MemoryOrder)
	// FetchAdd performs an atomic fetch-and-add and returns the old value.
	FetchAdd(l Loc, delta memmodel.Value, mo memmodel.MemoryOrder) memmodel.Value
	// Exchange atomically replaces the value and returns the old one.
	Exchange(l Loc, v memmodel.Value, mo memmodel.MemoryOrder) memmodel.Value
	// CompareExchange performs a strong compare-and-exchange. It returns the
	// observed value and whether the exchange succeeded. succ and fail give
	// the memory orders of the success RMW and the failure load.
	CompareExchange(l Loc, expected, desired memmodel.Value, succ, fail memmodel.MemoryOrder) (memmodel.Value, bool)
	// Fence performs an atomic thread fence.
	Fence(mo memmodel.MemoryOrder)

	// Read performs a non-atomic load; Write a non-atomic store. These are
	// the accesses the race detector checks (Section 7.2).
	Read(l Loc) memmodel.Value
	Write(l Loc, v memmodel.Value)

	// Spawn starts a new model thread running fn and returns its handle.
	Spawn(name string, fn func(Env)) Thread
	// Join blocks until t has finished.
	Join(t Thread)
	// Yield is a visible operation with no memory-model effect: like any
	// other it is one schedule point, after which the tool's strategy
	// picks the next thread from every enabled one — the yielding thread
	// included, so it is no hint to run another thread first. Making it
	// one is ROADMAP item 6.
	Yield()

	// Assert records an assertion violation when cond is false. Execution
	// continues (the tool reports the violation), mirroring how C11Tester
	// reports assertion failures it discovers.
	Assert(cond bool, format string, args ...any)

	// BeginAtomic and EndAtomic bracket a code block the program intends to
	// behave atomically, for the atomicity analyzer (conflict-serializability
	// of marked blocks). They are pure annotations with no memory-model or
	// scheduling effect: tools that do not analyze atomicity may treat them
	// as no-ops, and annotated programs execute identically to unannotated
	// ones. Blocks nest per thread; EndAtomic closes the innermost open
	// block.
	BeginAtomic(name string)
	EndAtomic()
}

// Program is a complete program under test. Run is the body of the main
// thread; it receives the main thread's Env.
type Program struct {
	Name string
	Run  func(Env)
}

// RaceReport describes one data race. A campaign reports each race once
// across its executions (Section 7.6), keyed by Key().
type RaceReport struct {
	LocName   string
	PriorKind memmodel.Kind // the older access
	Kind      memmodel.Kind // the access that completed the race
	PriorTID  memmodel.TID
	TID       memmodel.TID
}

// RaceID is a race's cross-execution identity (Section 7.6): the location
// name and the access-kind pair. It is comparable, so deduplicating by it
// costs no formatting; Key renders it.
type RaceID struct {
	Loc         string
	Prior, Kind memmodel.Kind
}

// Key renders the identity as "loc/prior/kind".
func (id RaceID) Key() string {
	return fmt.Sprintf("%s/%v/%v", id.Loc, id.Prior, id.Kind)
}

// ID returns the race's cross-execution identity.
func (r RaceReport) ID() RaceID {
	return RaceID{Loc: r.LocName, Prior: r.PriorKind, Kind: r.Kind}
}

// Key identifies a race for cross-execution deduplication.
func (r RaceReport) Key() string { return r.ID().Key() }

func (r RaceReport) String() string {
	return fmt.Sprintf("data race on %s: %v by thread %d vs %v by thread %d",
		r.LocName, r.PriorKind, r.PriorTID, r.Kind, r.TID)
}

// AssertFailure describes one failed Env.Assert.
type AssertFailure struct {
	TID     memmodel.TID
	Message string
}

func (a AssertFailure) String() string {
	return fmt.Sprintf("assertion failed on thread %d: %s", a.TID, a.Message)
}

// BlockSpan is one BeginAtomic/EndAtomic block instance observed during an
// execution, identified by the half-open action-sequence range [Begin, End)
// on thread TID. End == 0 means the block was still open when the execution
// finished (a missing EndAtomic); analyzers treat such spans as extending to
// the end of the execution.
type BlockSpan struct {
	TID   memmodel.TID
	Name  string
	Begin memmodel.SeqNum
	End   memmodel.SeqNum
}

// OpStats counts the operations one execution performed, mirroring the
// paper's Table 3 columns.
type OpStats struct {
	AtomicOps uint64 `json:"atomic_ops"` // atomic loads/stores/RMWs, fences, and sync operations
	NormalOps uint64 `json:"normal_ops"` // non-atomic accesses to shared memory
}

// Add accumulates other into s.
func (s *OpStats) Add(other OpStats) {
	s.AtomicOps += other.AtomicOps
	s.NormalOps += other.NormalOps
}

// Result is the outcome of one execution of a program under a tool. It
// depends only on the program and the seed, never on what the tool ran
// before.
//
// Ownership: tools recycle one Result per instance across executions (the
// engine resets it in place via Reset), so a Result returned by Execute —
// including its Races/AssertFailures/Blocks backing arrays — is only
// valid until the same tool's next Execute call. Consumers that keep anything
// past that point must copy it (the report values themselves are plain
// values; copying an element or appending it to a consumer-owned slice is
// enough). Campaign runners, analyzers, the trace recorder, and the harness
// all consume results before re-executing. Every slice or map field added to
// Result must be cleared by Reset — TestResetZeroesEveryContainerField
// enforces this reflectively.
type Result struct {
	// Races holds every race observed during this execution, one report per
	// conflicting access pair, in the order the accesses completed them.
	Races []RaceReport
	// AssertFailures holds assertion violations observed this execution.
	AssertFailures []AssertFailure
	// Deadlocked reports that the execution ended with all unfinished
	// threads blocked.
	Deadlocked bool
	// Truncated reports that the execution hit the tool's step limit.
	Truncated bool
	// EngineError reports that the tool itself aborted the execution (e.g.
	// an infeasible memory-model state, see core.InfeasibleError). The other
	// fields cover only the prefix that ran before the abort; campaigns
	// record the execution as failed instead of folding it into the
	// detection statistics.
	EngineError error
	// Blocks holds the BeginAtomic/EndAtomic block instances observed this
	// execution, in Begin order, for the atomicity analyzer. Empty for
	// programs without annotations.
	Blocks []BlockSpan
	// Stats counts the operations performed.
	Stats OpStats
}

// Reset recycles the Result for a new execution, truncating the report
// slices in place so their backing arrays (and capacity) survive. Tools call
// it at the top of every execution; see the ownership rules above.
func (r *Result) Reset() {
	r.Races = r.Races[:0]
	r.AssertFailures = r.AssertFailures[:0]
	r.Blocks = r.Blocks[:0]
	r.Deadlocked = false
	r.Truncated = false
	r.EngineError = nil
	r.Stats = OpStats{}
}

// Tool is a testing tool: something that can repeatedly execute a program
// and report what it found. An execution is a pure function of the program
// and the seed: a tool reuses its buffers and pools across executions but
// carries no outcome from one to the next, so reporting each race once
// across executions (Section 7.6) is its caller's fold.
type Tool interface {
	// Name returns the tool's short name ("c11tester", "tsan11", ...).
	Name() string
	// Execute runs one execution of p with the given seed.
	Execute(p Program, seed int64) *Result
}
