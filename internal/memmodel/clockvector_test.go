package memmodel

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClockVectorZeroValue(t *testing.T) {
	var cv ClockVector
	if cv.Get(3) != 0 {
		t.Fatal("zero vector must read 0 everywhere")
	}
	cv.Set(3, 7)
	if cv.Get(3) != 7 || cv.Get(0) != 0 || cv.Get(100) != 0 {
		t.Fatalf("unexpected entries after Set: %v", cv)
	}
}

func TestUnitClockVector(t *testing.T) {
	cv := UnitClockVector(2, 42)
	if cv.Get(2) != 42 || cv.Get(0) != 0 || cv.Get(1) != 0 {
		t.Fatalf("unit vector wrong: %+v", cv)
	}
}

func TestMergeReportsChange(t *testing.T) {
	a := UnitClockVector(0, 5)
	b := UnitClockVector(1, 3)
	if !a.Merge(b) {
		t.Fatal("merging new information must report change")
	}
	if a.Merge(b) {
		t.Fatal("re-merging the same vector must not report change")
	}
	if a.Get(0) != 5 || a.Get(1) != 3 {
		t.Fatalf("merge result wrong: %+v", a)
	}
	if a.Merge(nil) {
		t.Fatal("merging nil must be a no-op")
	}
}

func TestLeqAndSynchronized(t *testing.T) {
	a := UnitClockVector(0, 5)
	b := UnitClockVector(0, 6)
	b.Set(1, 2)
	if !a.Leq(b) {
		t.Fatal("a ≤ b expected")
	}
	if b.Leq(a) {
		t.Fatal("b ≤ a unexpected")
	}
	if !b.Synchronized(0, 6) || b.Synchronized(0, 7) || !b.Synchronized(2, 0) {
		t.Fatal("Synchronized wrong")
	}
	// Leq against nil: only the zero vector is ≤ nil.
	var zero ClockVector
	if !zero.Leq(nil) {
		t.Fatal("zero ≤ nil expected")
	}
	if a.Leq(nil) {
		t.Fatal("nonzero ≤ nil unexpected")
	}
}

// randomCV builds a small random clock vector from a generated seed.
func randomCV(r *rand.Rand) *ClockVector {
	n := r.Intn(6)
	cv := NewClockVector(n)
	for i := 0; i < n; i++ {
		cv.clock[i] = SeqNum(r.Intn(8))
	}
	return cv
}

// Property: Merge computes the least upper bound — the result dominates both
// inputs and is dominated by any other common upper bound.
func TestQuickMergeIsLUB(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomCV(r), randomCV(r), randomCV(r)
		ab := a.Clone()
		ab.Merge(b)
		if !a.Leq(ab) || !b.Leq(ab) {
			return false
		}
		// Any upper bound of a and b dominates ab.
		ub := c.Clone()
		ub.Merge(a)
		ub.Merge(b)
		return ab.Leq(ub)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge is commutative, associative, and idempotent.
func TestQuickMergeLatticeLaws(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomCV(r), randomCV(r), randomCV(r)

		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}

		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false
		}

		aa := a.Clone()
		aa.Merge(a)
		return aa.Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Leq is a partial order (reflexive, antisymmetric via Equal,
// transitive).
func TestQuickLeqPartialOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomCV(r), randomCV(r), randomCV(r)
		if !a.Leq(a) {
			return false
		}
		if a.Leq(b) && b.Leq(a) && !a.Equal(b) {
			return false
		}
		if a.Leq(b) && b.Leq(c) && !a.Leq(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
