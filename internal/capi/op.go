package capi

import "c11tester/internal/memmodel"

// RMWKind distinguishes the read-modify-write flavours. The paper's core
// language models RMWs with an arbitrary functor F (Figure 8); the flavours
// here cover the functors the benchmarks need while keeping the operand
// data, rather than a closure, visible to the tool.
type RMWKind uint8

const (
	RMWNone     RMWKind = iota
	RMWAdd              // fetch_add: new = old + Operand
	RMWExchange         // exchange: new = Operand
	RMWCas              // compare_exchange: new = Operand if old == Expected
)

// Op is one visible operation handed from a program thread to the tool.
// It is the wire format of the instrumentation boundary: the program thread
// fills in the request fields, parks, and the tool fills in the result
// fields before resuming it.
type Op struct {
	Kind   memmodel.Kind
	MO     memmodel.MemoryOrder
	FailMO memmodel.MemoryOrder // CAS failure-load order
	Loc    memmodel.LocID

	RMW      RMWKind
	Operand  memmodel.Value // store value / add delta / exchange or CAS-desired value
	Expected memmodel.Value // CAS expected value

	// Thread management.
	SpawnFn   func(Env)
	SpawnName string
	Target    memmodel.TID // join target

	// Location creation.
	NewName   string
	NewAtomic bool

	// Assertion.
	AssertMsg string

	// Results (filled by the tool).
	Val memmodel.Value
	OK  bool
}
