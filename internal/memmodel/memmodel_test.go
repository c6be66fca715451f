package memmodel

import "testing"

func TestMemoryOrderPredicates(t *testing.T) {
	cases := []struct {
		mo                   MemoryOrder
		acquire, release, sc bool
	}{
		{Relaxed, false, false, false},
		{Consume, true, false, false}, // strengthened to acquire
		{Acquire, true, false, false},
		{Release, false, true, false},
		{AcqRel, true, true, false},
		{SeqCst, true, true, true},
	}
	for _, c := range cases {
		if got := c.mo.IsAcquire(); got != c.acquire {
			t.Errorf("%v.IsAcquire() = %v, want %v", c.mo, got, c.acquire)
		}
		if got := c.mo.IsRelease(); got != c.release {
			t.Errorf("%v.IsRelease() = %v, want %v", c.mo, got, c.release)
		}
		if got := c.mo.IsSeqCst(); got != c.sc {
			t.Errorf("%v.IsSeqCst() = %v, want %v", c.mo, got, c.sc)
		}
	}
}

func TestMemoryOrderString(t *testing.T) {
	if Relaxed.String() != "relaxed" || SeqCst.String() != "seq_cst" {
		t.Errorf("unexpected names: %v %v", Relaxed, SeqCst)
	}
	if MemoryOrder(99).String() != "invalid" {
		t.Errorf("out-of-range order should stringify as invalid")
	}
}

func TestKindPredicates(t *testing.T) {
	if !KStore.IsWrite() || !KRMW.IsWrite() || !KNAStore.IsWrite() {
		t.Error("store kinds must be writes")
	}
	if KLoad.IsWrite() || KFence.IsWrite() {
		t.Error("load/fence must not be writes")
	}
	if !KLoad.IsRead() || !KRMW.IsRead() {
		t.Error("load and RMW are reads")
	}
	if KStore.IsRead() {
		t.Error("store is not a read")
	}
	if KYield.String() != "yield" || Kind(99).String() != "invalid" {
		t.Error("kind names wrong")
	}
}
