package race

import (
	"math/rand"
	"testing"
	"testing/quick"

	"c11tester/internal/memmodel"
)

// always and never are trivial happens-before oracles.
func always(memmodel.TID, memmodel.SeqNum) bool { return true }
func never(memmodel.TID, memmodel.SeqNum) bool  { return false }

func TestPackUnpackRoundTrip(t *testing.T) {
	cases := []struct {
		wTID, rTID memmodel.TID
		wClk, rClk memmodel.SeqNum
		wNA, rNA   bool
	}{
		{0, 0, 0, 0, false, false},
		{1, 2, 100, 200, true, false},
		{maxPackedTID, maxPackedTID, maxPackedClock, maxPackedClock, true, true},
		{5, 0, 1, 0, false, true},
	}
	for _, c := range cases {
		word := pack(c.wTID, c.wClk, c.wNA, c.rTID, c.rClk, c.rNA)
		wTID, wClk, wNA := unpackWrite(word)
		rTID, rClk, rNA := unpackRead(word)
		if wTID != c.wTID || wClk != c.wClk || wNA != c.wNA {
			t.Errorf("write round trip failed: %+v → %v %v %v", c, wTID, wClk, wNA)
		}
		if rTID != c.rTID || rClk != c.rClk || rNA != c.rNA {
			t.Errorf("read round trip failed: %+v → %v %v %v", c, rTID, rClk, rNA)
		}
	}
}

func TestWriteWriteRace(t *testing.T) {
	var s Shadow
	if c := s.OnWrite(0, 1, false, never, nil); len(c) != 0 {
		t.Fatal("first write cannot race")
	}
	c := s.OnWrite(1, 5, false, never, nil)
	if len(c) != 1 || !c[0].PriorWrite || c[0].PriorTID != 0 || c[0].PriorClock != 1 {
		t.Fatalf("expected write-write race with (0,1), got %+v", c)
	}
}

func TestOrderedWritesDoNotRace(t *testing.T) {
	var s Shadow
	s.OnWrite(0, 1, false, never, nil)
	if c := s.OnWrite(1, 5, false, always, nil); len(c) != 0 {
		t.Fatalf("hb-ordered writes must not race: %+v", c)
	}
}

func TestReadWriteRace(t *testing.T) {
	var s Shadow
	s.OnRead(0, 1, false, never, nil)
	c := s.OnWrite(1, 5, false, never, nil)
	if len(c) != 1 || c[0].PriorWrite || c[0].PriorTID != 0 {
		t.Fatalf("expected read-write race, got %+v", c)
	}
}

func TestWriteReadRace(t *testing.T) {
	var s Shadow
	s.OnWrite(0, 1, false, never, nil)
	c := s.OnRead(1, 5, false, never, nil)
	if len(c) != 1 || !c[0].PriorWrite {
		t.Fatalf("expected write-read race, got %+v", c)
	}
}

func TestAtomicAtomicNeverRaces(t *testing.T) {
	var s Shadow
	s.OnWrite(0, 1, true, never, nil)
	if c := s.OnWrite(1, 5, true, never, nil); len(c) != 0 {
		t.Fatalf("atomic/atomic writes must not race: %+v", c)
	}
	if c := s.OnRead(2, 7, true, never, nil); len(c) != 0 {
		t.Fatalf("atomic read of atomic write must not race: %+v", c)
	}
}

func TestMixedAtomicNonAtomicRaces(t *testing.T) {
	var s Shadow
	s.OnWrite(0, 1, false, never, nil) // non-atomic write
	c := s.OnRead(1, 5, true, never, nil)
	if len(c) != 1 {
		t.Fatalf("atomic read must race with unordered non-atomic write: %+v", c)
	}
	var s2 Shadow
	s2.OnWrite(0, 1, true, never, nil) // atomic write
	c = s2.OnRead(1, 5, false, never, nil)
	if len(c) != 1 {
		t.Fatalf("non-atomic read must race with unordered atomic write: %+v", c)
	}
}

func TestReadsClearedByWrite(t *testing.T) {
	var s Shadow
	s.OnRead(0, 1, false, never, nil)
	s.OnWrite(1, 2, false, always, nil) // ordered after the read
	// A write ordered after the previous write must not re-report against
	// the cleared read.
	if c := s.OnWrite(2, 3, false, always, nil); len(c) != 0 {
		t.Fatalf("reads must be subsumed by the write: %+v", c)
	}
}

func TestConcurrentReadersExpandAndBothRace(t *testing.T) {
	var s Shadow
	s.OnRead(0, 1, false, never, nil)
	s.OnRead(1, 2, false, never, nil) // concurrent with the first read
	if !s.Expanded() {
		t.Fatal("two concurrent readers must expand the shadow word")
	}
	c := s.OnWrite(2, 3, false, never, nil)
	if len(c) != 2 {
		t.Fatalf("write must race with both concurrent readers, got %+v", c)
	}
}

func TestLastWrite(t *testing.T) {
	var s Shadow
	if _, _, _, ok := s.LastWrite(); ok {
		t.Fatal("fresh shadow has no last write")
	}
	s.OnWrite(3, 9, false, always, nil)
	tid, clk, na, ok := s.LastWrite()
	if !ok || tid != 3 || clk != 9 || !na {
		t.Fatalf("unexpected last write %v %v %v %v", tid, clk, na, ok)
	}
	s.OnWrite(2, 11, true, always, nil)
	_, _, na, _ = s.LastWrite()
	if na {
		t.Fatal("atomic write must clear the non-atomic flag")
	}
}

func TestOverflowSpillsToExpanded(t *testing.T) {
	var s Shadow
	s.OnWrite(0, maxPackedClock+1, false, always, nil)
	if !s.Expanded() {
		t.Fatal("clock overflow must expand")
	}
	tid, clk, _, ok := s.LastWrite()
	if !ok || tid != 0 || clk != maxPackedClock+1 {
		t.Fatalf("expanded last write wrong: %v %v", tid, clk)
	}
	var s2 Shadow
	s2.OnRead(maxPackedTID+1, 1, false, always, nil)
	if !s2.Expanded() {
		t.Fatal("tid overflow must expand")
	}
}

// refShadow is a brute-force oracle keeping every access ever made.
type refShadow struct {
	accs []struct {
		acc   access
		write bool
	}
}

func (r *refShadow) on(tid memmodel.TID, clock memmodel.SeqNum, atomic, write bool, hb HB) int {
	races := 0
	for _, p := range r.accs {
		if !p.write && !write {
			continue // read/read never races
		}
		if !p.acc.na && atomic {
			continue // atomic/atomic never races
		}
		if !hb(p.acc.tid, p.acc.clock) {
			races++
		}
	}
	r.accs = append(r.accs, struct {
		acc   access
		write bool
	}{access{tid, clock, !atomic}, write})
	if write {
		// Writes subsume prior accesses, as in FastTrack.
		r.accs = r.accs[len(r.accs)-1:]
	}
	return races
}

// TestQuickAgainstBruteForce drives random access sequences through the
// shadow word and an always-expanded oracle, with an hb relation generated
// from a random program order: accesses by the same thread are ordered;
// cross-thread accesses are ordered iff a randomly chosen "sync epoch"
// covers them. Detected race *counts* may differ (FastTrack reports each
// racing pair once against its kept representatives), but race *presence*
// per access must match on write checks.
func TestQuickAgainstBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s Shadow
		var ref refShadow
		// hb oracle: everything with clock below the sync frontier is
		// ordered before the current access.
		frontier := memmodel.SeqNum(0)
		clock := memmodel.SeqNum(1)
		for i := 0; i < 40; i++ {
			if r.Intn(5) == 0 {
				frontier = clock // global synchronization point
			}
			tid := memmodel.TID(r.Intn(4))
			atomic := r.Intn(3) == 0
			write := r.Intn(2) == 0
			self := tid
			hb := func(pt memmodel.TID, pc memmodel.SeqNum) bool {
				return pt == self || pc <= frontier
			}
			var got []Conflict
			var want int
			if write {
				got = s.OnWrite(tid, clock, atomic, hb, nil)
				want = ref.on(tid, clock, atomic, true, hb)
			} else {
				got = s.OnRead(tid, clock, atomic, hb, nil)
				want = ref.on(tid, clock, atomic, false, hb)
			}
			if (len(got) > 0) != (want > 0) {
				t.Logf("step %d: got %d conflicts, oracle %d (tid=%d write=%v atomic=%v)", i, len(got), want, tid, write, atomic)
				return false
			}
			clock++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkShadowCheck prices one race-shadow check, the unit that
// core.ExecStats.RaceChecks counts and README's layer-price table
// multiplies: a warm packed shadow word takes alternating reads and writes
// from two threads whose accesses happen before each other, checked through
// a clock vector as the engine checks them, three in four of them atomic.
// No check conflicts, and none allocates.
func BenchmarkShadowCheck(b *testing.B) {
	cv := memmodel.NewClockVector(3)
	cv.Set(1, maxPackedClock)
	cv.Set(2, maxPackedClock)
	hb := func(t memmodel.TID, s memmodel.SeqNum) bool { return cv.Synchronized(t, s) }
	var s Shadow
	conf := make([]Conflict, 0, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tid := memmodel.TID(1 + i>>1&1)
		clock := memmodel.SeqNum(1 + i&(1<<20-1))
		atomic := i&3 != 3
		if i&1 == 0 {
			conf = s.OnRead(tid, clock, atomic, hb, conf[:0])
		} else {
			conf = s.OnWrite(tid, clock, atomic, hb, conf[:0])
		}
		if len(conf) != 0 {
			b.Fatalf("check %d: conflicts %+v between ordered accesses", i, conf)
		}
	}
	if s.Expanded() {
		b.Fatal("the shadow word spilled; the benchmark prices the packed check")
	}
}
