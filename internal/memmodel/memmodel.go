// Package memmodel defines the vocabulary of the C/C++11 memory model as
// used by the C11Tester reproduction: memory orders, thread and sequence
// identifiers, action kinds, and the clock vectors that the engine uses both
// for happens-before tracking (Figure 9 of the paper) and for
// modification-order-graph reachability (Section 4.2).
package memmodel

// TID identifies a thread managed by the model. Thread ids are small dense
// integers assigned in spawn order; the main thread is always 0.
type TID int32

// NoTID marks an absent thread (e.g. the writer of an untouched location).
const NoTID TID = -1

// SeqNum is a global event sequence number. Sequence numbers are a global
// counter of events across all threads, incremented by one at each event
// (Section 4.2), so they uniquely identify events.
type SeqNum uint64

// Value is the value stored in or loaded from a memory location. The model
// treats all program data as 64-bit words, like the paper's core language
// (Figure 8) treats them as integers.
type Value uint64

// LocID identifies a memory location (atomic object or non-atomic variable)
// in the model's address space.
type LocID uint32

// NoLoc marks an absent location (fences have no location).
const NoLoc LocID = 0

// MemoryOrder is one of the six C/C++11 memory orders. Consume is
// strengthened to acquire (Section 2.2 change 3), matching all compilers.
type MemoryOrder uint8

const (
	Relaxed MemoryOrder = iota
	Consume             // treated as Acquire everywhere
	Acquire
	Release
	AcqRel
	SeqCst
)

var moNames = [...]string{"relaxed", "consume", "acquire", "release", "acq_rel", "seq_cst"}

func (m MemoryOrder) String() string {
	if int(m) < len(moNames) {
		return moNames[m]
	}
	return "invalid"
}

// IsAcquire reports whether an operation with this order has acquire
// semantics (acquire, acq_rel, seq_cst; consume is strengthened to acquire).
func (m MemoryOrder) IsAcquire() bool {
	return m == Acquire || m == Consume || m == AcqRel || m == SeqCst
}

// IsRelease reports whether an operation with this order has release
// semantics (release, acq_rel, seq_cst).
func (m MemoryOrder) IsRelease() bool {
	return m == Release || m == AcqRel || m == SeqCst
}

// IsSeqCst reports whether this is memory_order_seq_cst.
func (m MemoryOrder) IsSeqCst() bool { return m == SeqCst }

// Kind is the kind of a dynamic action (event) in an execution.
type Kind uint8

const (
	KLoad Kind = iota
	KStore
	KRMW
	KFence
	KNALoad  // non-atomic read
	KNAStore // non-atomic write (also used for promoted NA stores, §7.2)
	KThreadCreate
	KThreadStart
	KThreadFinish
	KThreadJoin
	KYield
	KAlloc  // shared-location creation
	KAssert // failed assertion report
)

var kindNames = [...]string{
	"load", "store", "rmw", "fence", "na-load", "na-store",
	"thread-create", "thread-start", "thread-finish", "thread-join",
	"yield", "alloc", "assert",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// IsWrite reports whether the kind writes an atomic location (store or RMW,
// or a promoted non-atomic store that entered the mo-graph).
func (k Kind) IsWrite() bool { return k == KStore || k == KRMW || k == KNAStore }

// IsRead reports whether the kind reads an atomic location.
func (k Kind) IsRead() bool { return k == KLoad || k == KRMW }
