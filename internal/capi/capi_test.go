package capi

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"c11tester/internal/memmodel"
)

func TestRaceReportKey(t *testing.T) {
	r1 := RaceReport{LocName: "deque.buf3", PriorKind: memmodel.KNAStore,
		Kind: memmodel.KNALoad, PriorTID: 0, TID: 2}
	// Key must not depend on which threads exhibited the race: it is the
	// cross-execution deduplication key (Section 7.6).
	r2 := r1
	r2.PriorTID, r2.TID = 5, 6
	if r1.Key() != r2.Key() {
		t.Fatalf("Key varies with thread identity: %q vs %q", r1.Key(), r2.Key())
	}
	// Distinct access pairs or locations must have distinct keys.
	r3 := r1
	r3.Kind = memmodel.KNAStore
	if r1.Key() == r3.Key() {
		t.Fatalf("Key ignores the racing access kind: %q", r1.Key())
	}
	r4 := r1
	r4.LocName = "deque.buf4"
	if r1.Key() == r4.Key() {
		t.Fatalf("Key ignores the location: %q", r1.Key())
	}
}

func TestRaceReportString(t *testing.T) {
	r := RaceReport{LocName: "x", PriorKind: memmodel.KNAStore,
		Kind: memmodel.KNALoad, PriorTID: 1, TID: 2}
	s := r.String()
	for _, frag := range []string{"data race on x", "thread 1", "thread 2"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q, missing %q", s, frag)
		}
	}
}

func TestAssertFailureString(t *testing.T) {
	a := AssertFailure{TID: 3, Message: "torn read"}
	s := a.String()
	if !strings.Contains(s, "thread 3") || !strings.Contains(s, "torn read") {
		t.Errorf("String() = %q", s)
	}
}

// TestResetZeroesEveryContainerField checks reflectively that Reset
// truncates every slice and map field of Result, so adding a per-execution
// container field without extending Reset fails here instead of leaking one
// execution's reports into the next (the analyzer pipeline reads these
// fields after every execution).
func TestResetZeroesEveryContainerField(t *testing.T) {
	var res Result
	v := reflect.ValueOf(&res).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.Map:
			m := reflect.MakeMap(f.Type())
			m.SetMapIndex(reflect.Zero(f.Type().Key()), reflect.Zero(f.Type().Elem()))
			f.Set(m)
		}
	}
	res.Deadlocked, res.Truncated = true, true
	res.EngineError = errors.New("boom")
	res.Stats = OpStats{AtomicOps: 1, NormalOps: 2}

	res.Reset()

	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Slice, reflect.Map:
			if f.Len() != 0 {
				t.Errorf("Reset left container field %s with %d element(s); extend Reset", name, f.Len())
			}
		}
	}
	if res.Deadlocked || res.Truncated || res.EngineError != nil || res.Stats != (OpStats{}) {
		t.Errorf("Reset left scalar state behind: %+v", res)
	}
}

func TestOpStatsAdd(t *testing.T) {
	var s OpStats
	s.Add(OpStats{AtomicOps: 3, NormalOps: 1})
	s.Add(OpStats{AtomicOps: 0, NormalOps: 0})
	s.Add(OpStats{AtomicOps: 5, NormalOps: 7})
	if s.AtomicOps != 8 || s.NormalOps != 8 {
		t.Fatalf("accumulated OpStats = %+v, want {8 8}", s)
	}
}
