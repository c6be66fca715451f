package harness

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"c11tester/internal/capi"
)

// TestSignalHit pins which executions count as a detection under each
// signal: races only, or assertion violations only. A deadlock is neither.
func TestSignalHit(t *testing.T) {
	race := []capi.RaceReport{{LocName: "x"}}
	assert := []capi.AssertFailure{{Message: "boom"}}
	for _, c := range []struct {
		name         string
		res          capi.Result
		race, assert bool
	}{
		{"clean", capi.Result{}, false, false},
		{"race", capi.Result{Races: race}, true, false},
		{"assert", capi.Result{AssertFailures: assert}, false, true},
		{"deadlock", capi.Result{Deadlocked: true}, false, false},
		{"race+assert", capi.Result{Races: race, AssertFailures: assert}, true, true},
	} {
		for _, s := range []struct {
			sig  Signal
			want bool
		}{{SignalRace, c.race}, {SignalAssert, c.assert}} {
			if got := s.sig.Hit(&c.res); got != s.want {
				t.Errorf("%s: signal %d Hit = %v, want %v", c.name, s.sig, got, s.want)
			}
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Header: []string{"bench", "rate"}}
	tb.AddRow("ms-queue", "100.0%")
	tb.AddRow("mp", "3.1%")
	got := tb.String()
	want := "" +
		"bench     rate  \n" +
		"--------  ------\n" +
		"ms-queue  100.0%\n" +
		"mp        3.1%  \n"
	if got != want {
		t.Fatalf("Table.String():\n%q\nwant:\n%q", got, want)
	}
	if !strings.HasPrefix(got, "bench") {
		t.Fatal("header missing")
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{2500 * time.Millisecond, "2.50s"},
		{time.Second, "1.00s"},
		{15 * time.Millisecond, "15.00ms"},
		{1500 * time.Microsecond, "1.50ms"},
		{900 * time.Microsecond, "900.0µs"},
		{0, "0.0µs"},
	}
	for _, c := range cases {
		if got := FmtDuration(c.d); got != c.want {
			t.Errorf("FmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestFmtOps(t *testing.T) {
	cases := []struct {
		n    uint64
		want string
	}{
		{63_700_000, "63.7M"},
		{1_000_000, "1.0M"},
		{63_700, "63.7K"},
		{1_000, "1.0K"},
		{999, "999"},
		{0, "0"},
	}
	for _, c := range cases {
		if got := FmtOps(c.n); got != c.want {
			t.Errorf("FmtOps(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SortedKeys = %v", got)
	}
}

func TestSummariesJSON(t *testing.T) {
	d := Detection{Runs: 4, Detected: 1, Time: time.Millisecond,
		Ops: capi.OpStats{AtomicOps: 10, NormalOps: 3}}
	b, err := json.Marshal(d.Summary())
	if err != nil {
		t.Fatal(err)
	}
	var ds DetectionSummary
	if err := json.Unmarshal(b, &ds); err != nil {
		t.Fatal(err)
	}
	if ds.RatePct != 25 || ds.MeanTimeNS != int64(time.Millisecond) || ds.AtomicOps != 10 {
		t.Fatalf("round-tripped DetectionSummary = %+v", ds)
	}
}

func TestReproCommand(t *testing.T) {
	r := Repro{Tool: "c11tester", Program: "ms-queue", Seed: 42}
	want := "go run ./cmd/c11tester -tools c11tester -bench ms-queue -litmus none -runs 1 -seed 42 -json ''"
	if got := r.Command(); got != want {
		t.Fatalf("Command() = %q, want %q", got, want)
	}
	l := Repro{Tool: "tsan11", Program: "CoRR+opposed", Seed: 7, Litmus: true}
	want = "go run ./cmd/c11tester -tools tsan11 -bench none -litmus CoRR+opposed -runs 1 -seed 7 -json ''"
	if got := l.Command(); got != want {
		t.Fatalf("Command() = %q, want %q", got, want)
	}
}

func TestExecsPerSec(t *testing.T) {
	if got := ExecsPerSec(100, 2*time.Second); got != 50 {
		t.Fatalf("ExecsPerSec = %v, want 50", got)
	}
	if got := ExecsPerSec(100, 0); got != 0 {
		t.Fatalf("ExecsPerSec(zero wall) = %v, want 0", got)
	}
}
