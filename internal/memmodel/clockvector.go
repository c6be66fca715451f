package memmodel

// ClockVector maps thread ids to sequence numbers. The engine uses clock
// vectors in two distinct roles that the paper is careful to separate:
//
//   - happens-before clocks (C_t, Frel_t, Facq_t, RF_s of Figure 9), and
//   - mo-graph clocks that encode reachability between same-location store
//     nodes (Section 4.2, Theorem 1).
//
// The zero value is the empty (all-zero) clock vector and is ready to use.
// Vectors grow on demand as threads are created; absent entries read as 0.
type ClockVector struct {
	clock []SeqNum
}

// NewClockVector returns an empty clock vector with capacity for n threads.
func NewClockVector(n int) *ClockVector {
	return &ClockVector{clock: make([]SeqNum, n)}
}

// UnitClockVector returns the vector ⊥CV_A for a store A by thread t with
// sequence number s: s at position t, zero elsewhere (Section 4.2).
func UnitClockVector(t TID, s SeqNum) *ClockVector {
	cv := NewClockVector(int(t) + 1)
	cv.clock[t] = s
	return cv
}

// Reset empties the vector in place for reuse, keeping (and zeroing) its
// backing capacity and guaranteeing at least n slots. The engine's state
// pools use it to recycle per-thread clocks across executions.
func (cv *ClockVector) Reset(n int) {
	if cap(cv.clock) < n {
		cv.clock = make([]SeqNum, n)
		return
	}
	if cap(cv.clock) > n {
		n = cap(cv.clock)
	}
	cv.clock = cv.clock[:n]
	for i := range cv.clock {
		cv.clock[i] = 0
	}
}

// Clone returns an independent copy of cv.
func (cv *ClockVector) Clone() *ClockVector {
	out := &ClockVector{clock: make([]SeqNum, len(cv.clock))}
	copy(out.clock, cv.clock)
	return out
}

// CopyFrom makes cv pointwise equal to src in place, reusing cv's backing
// capacity (the allocation-free counterpart of Clone). Like Reset, it keeps
// the whole capacity live — slots beyond src's length are zeroed, which is
// pointwise identical to src (absent entries read as 0). A nil src empties cv.
func (cv *ClockVector) CopyFrom(src *ClockVector) {
	if src == nil {
		cv.Reset(0)
		return
	}
	n := len(src.clock)
	if cap(cv.clock) < n {
		cv.clock = make([]SeqNum, n)
	}
	cv.clock = cv.clock[:cap(cv.clock)]
	copy(cv.clock, src.clock)
	for i := n; i < len(cv.clock); i++ {
		cv.clock[i] = 0
	}
}

// Len returns the number of thread slots currently held.
func (cv *ClockVector) Len() int { return len(cv.clock) }

func (cv *ClockVector) grow(n int) {
	if n <= len(cv.clock) {
		return
	}
	grown := make([]SeqNum, n)
	copy(grown, cv.clock)
	cv.clock = grown
}

// Get returns the clock entry for thread t (0 if t is beyond the vector).
func (cv *ClockVector) Get(t TID) SeqNum {
	if int(t) < len(cv.clock) {
		return cv.clock[t]
	}
	return 0
}

// Set assigns the clock entry for thread t.
func (cv *ClockVector) Set(t TID, s SeqNum) {
	cv.grow(int(t) + 1)
	cv.clock[t] = s
}

// Merge sets cv to the pointwise maximum of cv and other (the ∪ operator)
// and reports whether cv changed. A nil other is a no-op.
func (cv *ClockVector) Merge(other *ClockVector) bool {
	if other == nil {
		return false
	}
	cv.grow(len(other.clock))
	changed := false
	for i, s := range other.clock {
		if s > cv.clock[i] {
			cv.clock[i] = s
			changed = true
		}
	}
	return changed
}

// Leq reports cv ≤ other: every entry of cv is ≤ the corresponding entry of
// other (Section 4.2). Entries beyond a vector's length are 0.
func (cv *ClockVector) Leq(other *ClockVector) bool {
	for i, s := range cv.clock {
		if s == 0 {
			continue
		}
		if other == nil || i >= len(other.clock) || s > other.clock[i] {
			return false
		}
	}
	return true
}

// Synchronized reports whether the event (t, s) is contained in this clock
// vector, i.e. whether that event happens before the point the vector
// describes: cv.Get(t) ≥ s.
func (cv *ClockVector) Synchronized(t TID, s SeqNum) bool {
	return cv.Get(t) >= s
}

// Equal reports pointwise equality (absent slots read as zero).
func (cv *ClockVector) Equal(other *ClockVector) bool {
	return cv.Leq(other) && other.Leq(cv)
}
