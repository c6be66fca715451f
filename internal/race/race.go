// Package race implements the FastTrack-style data race detector C11Tester
// embeds (Section 7.2 of the paper).
//
// Each shared location carries a 64-bit shadow word packing the last write
// (25-bit clock, 6-bit thread id, atomic/non-atomic bit) and the last read
// (same layout). When the packed representation cannot express the state —
// clock overflow, thread id overflow, or multiple concurrent readers — the
// shadow word is replaced by a reference to an expanded access record, just
// as the paper describes.
//
// Atomic accesses participate so that mixed atomic/non-atomic races are
// caught: a race is any pair of conflicting accesses, at least one of them a
// write and at least one of them non-atomic, that are not ordered by
// happens-before. C11Tester maps legacy volatile accesses to atomics, which
// is why it does not warn about volatile/volatile or volatile/atomic pairs
// (Section 8.2); the programs here use C11 atomics only.
package race

import "c11tester/internal/memmodel"

// Packed shadow word layout (low to high):
//
//	bits  0..24  write clock (25 bits)
//	bits 25..30  write thread id (6 bits)
//	bit  31      write was non-atomic
//	bits 32..56  read clock (25 bits)
//	bits 57..62  read thread id (6 bits)
//	bit  63      read was non-atomic
const (
	clockBits = 25
	tidBits   = 6
	clockMask = (1 << clockBits) - 1
	tidMask   = (1 << tidBits) - 1

	maxPackedClock = clockMask
	maxPackedTID   = tidMask
)

func pack(wTID memmodel.TID, wClock memmodel.SeqNum, wNA bool,
	rTID memmodel.TID, rClock memmodel.SeqNum, rNA bool) uint64 {
	w := uint64(wClock&clockMask) | uint64(wTID&tidMask)<<clockBits
	if wNA {
		w |= 1 << 31
	}
	r := uint64(rClock&clockMask) | uint64(rTID&tidMask)<<clockBits
	if rNA {
		r |= 1 << 31
	}
	return w | r<<32
}

func unpackWrite(word uint64) (memmodel.TID, memmodel.SeqNum, bool) {
	return memmodel.TID(word >> clockBits & tidMask),
		memmodel.SeqNum(word & clockMask),
		word&(1<<31) != 0
}

func unpackRead(word uint64) (memmodel.TID, memmodel.SeqNum, bool) {
	r := word >> 32
	return memmodel.TID(r >> clockBits & tidMask),
		memmodel.SeqNum(r & clockMask),
		r&(1<<31) != 0
}

// access is one recorded access in an expanded record.
type access struct {
	tid   memmodel.TID
	clock memmodel.SeqNum
	na    bool
}

// expanded is the spilled representation of a shadow word.
type expanded struct {
	write    access
	hasWrite bool
	reads    []access
}

// Conflict describes the prior access of a detected race. The engine turns
// conflicts into reports (attaching location names and the current access).
type Conflict struct {
	PriorTID   memmodel.TID
	PriorClock memmodel.SeqNum
	PriorWrite bool // prior access was a write
	PriorNA    bool // prior access was non-atomic
}

// HB reports whether the event (tid, clock) happens before the current
// access; the engine supplies the current thread's clock-vector check.
type HB func(memmodel.TID, memmodel.SeqNum) bool

// Shadow is the race-detector state of one location. The zero value
// describes a never-accessed location.
type Shadow struct {
	word uint64
	ext  *expanded
	// spare retains a spilled record across Reset calls, so a pooled
	// location that expands again in a later execution reuses the record
	// (and its reads capacity) instead of allocating.
	spare *expanded
}

// Reset clears the shadow for a new execution, keeping a previously spilled
// expanded record for reuse. Location pools call it instead of zeroing the
// struct, which would discard the record's backing memory.
func (s *Shadow) Reset() {
	s.word = 0
	if s.ext != nil {
		s.spare = s.ext
		s.ext = nil
	}
}

// LastWrite returns the recorded last write, if any.
func (s *Shadow) LastWrite() (tid memmodel.TID, clock memmodel.SeqNum, na, ok bool) {
	if s.ext != nil {
		if !s.ext.hasWrite {
			return 0, 0, false, false
		}
		w := s.ext.write
		return w.tid, w.clock, w.na, true
	}
	tid, clock, na = unpackWrite(s.word)
	return tid, clock, na, clock != 0 || tid != 0
}

// Expanded reports whether the shadow word spilled to an expanded record
// (exposed for tests and stats).
func (s *Shadow) Expanded() bool { return s.ext != nil }

func (s *Shadow) expand() *expanded {
	if s.ext != nil {
		return s.ext
	}
	e := s.spare
	if e != nil {
		s.spare = nil
		e.write = access{}
		e.hasWrite = false
		e.reads = e.reads[:0]
	} else {
		e = &expanded{}
	}
	if wTID, wClock, wNA := unpackWrite(s.word); wClock != 0 || wTID != 0 {
		e.write = access{wTID, wClock, wNA}
		e.hasWrite = true
	}
	if rTID, rClock, rNA := unpackRead(s.word); rClock != 0 || rTID != 0 {
		e.reads = append(e.reads, access{rTID, rClock, rNA})
	}
	s.ext = e
	return e
}

func fitsPacked(tid memmodel.TID, clock memmodel.SeqNum) bool {
	return tid >= 0 && tid <= maxPackedTID && clock > 0 && clock <= maxPackedClock
}

// OnWrite checks a write access by (tid, clock) against the recorded state,
// appends any races to conflicts, records the write, and returns the updated
// conflict slice. atomic marks the access as an atomic store.
// A write races with any prior access that is not happens-before it, unless
// both accesses are atomic.
func (s *Shadow) OnWrite(tid memmodel.TID, clock memmodel.SeqNum, atomic bool, hb HB, conflicts []Conflict) []Conflict {
	na := !atomic
	if s.ext == nil && fitsPacked(tid, clock) {
		wTID, wClock, wNA := unpackWrite(s.word)
		if wClock != 0 && (wNA || na) && !hb(wTID, wClock) {
			conflicts = append(conflicts, Conflict{wTID, wClock, true, wNA})
		}
		rTID, rClock, rNA := unpackRead(s.word)
		if rClock != 0 && (rNA || na) && !hb(rTID, rClock) {
			conflicts = append(conflicts, Conflict{rTID, rClock, false, rNA})
		}
		// FastTrack: a write subsumes prior read information.
		s.word = pack(tid, clock, na, 0, 0, false)
		return conflicts
	}
	e := s.expand()
	if e.hasWrite && (e.write.na || na) && !hb(e.write.tid, e.write.clock) {
		conflicts = append(conflicts, Conflict{e.write.tid, e.write.clock, true, e.write.na})
	}
	for _, r := range e.reads {
		if (r.na || na) && !hb(r.tid, r.clock) {
			conflicts = append(conflicts, Conflict{r.tid, r.clock, false, r.na})
		}
	}
	e.write = access{tid, clock, na}
	e.hasWrite = true
	e.reads = e.reads[:0]
	return conflicts
}

// OnRead checks a read access by (tid, clock) against the recorded write,
// appends any race to conflicts, records the read, and returns the updated
// slice. A read races with a prior write that is not happens-before it,
// unless both accesses are atomic.
func (s *Shadow) OnRead(tid memmodel.TID, clock memmodel.SeqNum, atomic bool, hb HB, conflicts []Conflict) []Conflict {
	na := !atomic
	if s.ext == nil && fitsPacked(tid, clock) {
		wTID, wClock, wNA := unpackWrite(s.word)
		if wClock != 0 && (wNA || na) && !hb(wTID, wClock) {
			conflicts = append(conflicts, Conflict{wTID, wClock, true, wNA})
		}
		rTID, rClock, rNA := unpackRead(s.word)
		switch {
		case rClock == 0 || (rTID == tid && rNA == na):
			// Empty or same-thread same-mode read slot: overwrite in place
			// (same-thread accesses are program-ordered).
			s.word = pack(wTID, wClock, wNA, tid, clock, na)
		case hb(rTID, rClock) && (na || !rNA):
			// The previous reader is ordered before us and keeping only the
			// newer read loses no race: an access unordered with the old
			// read is also not ordered after the new one, and the new read
			// races with at least as many access modes (a non-atomic read
			// must never be replaced by an atomic one — an unordered atomic
			// write races with the former but not the latter).
			s.word = pack(wTID, wClock, wNA, tid, clock, na)
		default:
			// Concurrent readers, or mode information would be lost: spill
			// to the expanded record.
			e := s.expand()
			e.reads = append(e.reads, access{tid, clock, na})
		}
		return conflicts
	}
	e := s.expand()
	if e.hasWrite && (e.write.na || na) && !hb(e.write.tid, e.write.clock) {
		conflicts = append(conflicts, Conflict{e.write.tid, e.write.clock, true, e.write.na})
	}
	// Keep reads minimal: drop entries this read subsumes — same thread and
	// mode (program-ordered), or happens-before this read without losing
	// non-atomic mode information.
	kept := e.reads[:0]
	for _, r := range e.reads {
		if r.tid == tid && r.na == na {
			continue
		}
		if hb(r.tid, r.clock) && (na || !r.na) {
			continue
		}
		kept = append(kept, r)
	}
	e.reads = append(kept, access{tid, clock, na})
	return conflicts
}
