package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/baseline"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
)

const (
	rlx = memmodel.Relaxed
	acq = memmodel.Acquire
	rel = memmodel.Release
	sc  = memmodel.SeqCst
)

// mixProg is a deterministic multi-threaded atomics program with enough
// behavioural freedom (relaxed MP, SB, an RMW chain) that different seeds
// produce different executions.
func mixProg(out *string) capi.Program {
	return capi.Program{Name: "mix", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		y := env.NewAtomic("y", 0)
		c := env.NewAtomic("c", 0)
		var r1, r2 memmodel.Value
		a := env.Spawn("A", func(env capi.Env) {
			env.Store(x, 1, rlx)
			env.FetchAdd(c, 1, rel)
			env.Store(y, 1, rlx)
			r1 = env.Load(y, rlx)
		})
		b := env.Spawn("B", func(env capi.Env) {
			env.Store(y, 2, sc)
			env.FetchAdd(c, 1, acq)
			r2 = env.Load(x, rlx)
			env.Store(x, 2, rel)
		})
		env.Join(a)
		env.Join(b)
		*out = fmt.Sprintf("r1=%d r2=%d c=%d", r1, r2, env.Load(c, acq))
	}}
}

// racyProg races on a plain location behind a relaxed-atomic flag: the race
// fires only in executions where the reader observes flag=1, so whether it
// manifests depends on the schedule and reads-from choices.
func racyProg() capi.Program {
	return capi.Program{Name: "racy-flag", Run: func(env capi.Env) {
		data := env.NewLoc("data", 0)
		flag := env.NewAtomic("flag", 0)
		noise := env.NewAtomic("noise", 0)
		w := env.Spawn("w", func(env capi.Env) {
			for i := 0; i < 6; i++ {
				env.FetchAdd(noise, 1, rlx)
			}
			env.Write(data, 1)
			env.Store(flag, 1, rlx)
		})
		r := env.Spawn("r", func(env capi.Env) {
			for i := 0; i < 24; i++ {
				env.FetchAdd(noise, 1, rlx)
				if env.Load(flag, rlx) == 1 {
					env.Read(data)
					return
				}
			}
		})
		env.Join(w)
		env.Join(r)
	}}
}

func newEngine() *core.Engine {
	return core.New("c11tester", core.NewC11Model(), core.Config{StoreBurst: true, Trace: true})
}

// recordOne runs prog once under a fresh recording engine and serializes the
// execution.
func recordOne(t *testing.T, prog capi.Program, seed int64, outcome func() string, reset func()) *Trace {
	t.Helper()
	eng := newEngine()
	rec := NewRecorder(core.NewRandomStrategy())
	eng.SetStrategy(rec)
	if reset != nil {
		reset()
	}
	res := eng.Execute(prog, seed)
	meta := Meta{Tool: ToolConfig{Name: "c11tester"}, Program: prog.Name, Seed: seed}
	if outcome != nil {
		meta.Outcome = outcome()
	}
	tr, err := Record(eng, res, rec.Schedule(), meta)
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	return tr
}

func TestRecordReplayRoundTrip(t *testing.T) {
	var out string
	prog := mixProg(&out)
	for seed := int64(1); seed <= 20; seed++ {
		out = ""
		tr := recordOne(t, prog, seed, func() string { return out }, nil)
		if !tr.Validatable() {
			t.Fatalf("seed %d: trace has no event payload", seed)
		}
		if tr.Schedule.Len() == 0 {
			t.Fatalf("seed %d: empty schedule", seed)
		}
		rr, err := Replay(tr, Subject{
			Engine: newEngine(), Prog: prog,
			Reset:   func() { out = "" },
			Outcome: func() string { return out },
		})
		if err != nil {
			t.Fatalf("seed %d: Replay: %v", seed, err)
		}
		if err := tr.Verify(rr); err != nil {
			t.Fatalf("seed %d: replay is not byte-identical: %v", seed, err)
		}
	}
}

func TestSerializationRoundTripAndOfflineValidation(t *testing.T) {
	var out string
	prog := mixProg(&out)
	tr := recordOne(t, prog, 7, func() string { return out }, func() { out = "" })

	path := filepath.Join(t.TempDir(), FileName("c11tester", prog.Name, 7))
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Schedule.Len() != tr.Schedule.Len() || len(loaded.Events) != len(tr.Events) {
		t.Fatalf("round trip lost data: %d/%d choices, %d/%d events",
			loaded.Schedule.Len(), tr.Schedule.Len(), len(loaded.Events), len(tr.Events))
	}

	// Offline validation, no live engine: the serialized execution must
	// satisfy the axiomatic model.
	vs, err := loaded.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) > 0 {
		t.Fatalf("offline validation of a legal execution failed: %v", vs)
	}

	// The checker must actually see the serialized data: corrupt one store's
	// value so its reader's rf edge no longer matches.
	for _, ev := range loaded.Events {
		if ev.Kind == "load" && ev.RF >= 0 {
			loaded.Events[ev.RF].Value++ // the reader now holds a stale value
			break
		}
	}
	vs, err = loaded.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("offline validator missed a corrupted rf value")
	}
}

// legacyFixture is a trace whose tool config names the removed -rng legacy
// source. Replay cannot rebuild that source, so every reader must refuse it.
const legacyFixture = "testdata/legacy/trace_c11tester_SB+sc_1.json"

func TestReadFileRefusesLegacyRNG(t *testing.T) {
	_, err := ReadFile(legacyFixture)
	if err == nil || !strings.Contains(err.Error(), "-rng legacy") {
		t.Fatalf("ReadFile(legacy trace) = %v, want an error naming -rng legacy", err)
	}
}

// withToolField writes a copy of legacyFixture whose tool config sets field
// instead of rng ("" sets nothing) and returns its path.
func withToolField(t *testing.T, field string) string {
	t.Helper()
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if field != "" {
		field = ",\n  " + field
	}
	fixed := strings.Replace(string(data), ",\n  \"rng\": \"legacy\"", field, 1)
	if fixed == string(data) {
		t.Fatal("legacy fixture has no rng field to replace")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadFileRefusesRemovedToolFields pins that a trace recorded under a
// removed tool flag (-sched, -quantum, -max-steps, -prune) is refused with
// the field named, like the -rng legacy source: replay cannot rebuild that
// tool.
func TestReadFileRefusesRemovedToolFields(t *testing.T) {
	if _, err := ReadFile(withToolField(t, "")); err != nil {
		t.Fatalf("ReadFile(fixture without removed fields) = %v", err)
	}
	for _, field := range []string{`"sched": "quantum"`, `"quantum_mean": 50`, `"max_steps": 1000`, `"prune": "conservative"`} {
		name := strings.Trim(strings.SplitN(field, ":", 2)[0], `"`)
		_, err := ReadFile(withToolField(t, field))
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("ReadFile(trace with %s) = %v, want an error naming %q", field, err, name)
		}
	}
}

func TestVerifyFlagsTamperedSchedule(t *testing.T) {
	var out string
	prog := mixProg(&out)
	tr := recordOne(t, prog, 3, func() string { return out }, func() { out = "" })
	if len(tr.Schedule.Threads) < 4 {
		t.Fatalf("schedule too short to tamper with: %d", len(tr.Schedule.Threads))
	}
	// Drop the second half of the thread schedule: replay now takes fallback
	// decisions and must be flagged by Verify.
	tr.Schedule.Threads = tr.Schedule.Threads[:len(tr.Schedule.Threads)/2]
	rr, err := Replay(tr, Subject{
		Engine: newEngine(), Prog: prog,
		Reset:   func() { out = "" },
		Outcome: func() string { return out },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Verify(rr); err == nil {
		t.Fatal("Verify accepted a truncated schedule as an exact replay")
	}
}

func TestBaselineScheduleOnlyTraceReplays(t *testing.T) {
	var out string
	prog := mixProg(&out)

	eng := baseline.NewTsan11()
	rec := NewRecorder(eng.Strategy())
	eng.SetStrategy(rec)
	out = ""
	res := eng.Execute(prog, 11)
	tr, err := Record(eng, res, rec.Schedule(), Meta{
		Tool: ToolConfig{Name: "tsan11"}, Program: prog.Name, Seed: 11, Outcome: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Validatable() {
		t.Fatal("commit-order baseline must produce a schedule-only trace (no total mo)")
	}
	rr, err := Replay(tr, Subject{
		Engine: baseline.NewTsan11(), Prog: prog,
		Reset:   func() { out = "" },
		Outcome: func() string { return out },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Verify(rr); err != nil {
		t.Fatalf("baseline replay not identical: %v", err)
	}
}

func TestMinimizeConvergesOnRacyExecution(t *testing.T) {
	prog := racyProg()
	var tr *Trace
	for seed := int64(1); seed <= 50; seed++ {
		cand := recordOne(t, prog, seed, nil, nil)
		if len(cand.RaceKeys) > 0 {
			tr = cand
			break
		}
	}
	if tr == nil {
		t.Fatal("no seed in 1..50 exhibited the flag-guarded race")
	}

	min, stats, err := Minimize(tr, Subject{Engine: newEngine(), Prog: prog}, 0)
	if err != nil {
		t.Fatalf("Minimize: %v", err)
	}
	if stats.ThreadsAfter > stats.ThreadsBefore || stats.IndicesAfter > stats.IndicesBefore {
		t.Errorf("minimization grew the schedule: %+v", stats)
	}
	if !equalStrings(min.RaceKeys, tr.RaceKeys) {
		t.Errorf("minimized race keys %v != original %v", min.RaceKeys, tr.RaceKeys)
	}
	// The minimized trace must itself be an exactly replayable trace.
	rr, err := Replay(min, Subject{Engine: newEngine(), Prog: prog})
	if err != nil {
		t.Fatal(err)
	}
	if err := min.Verify(rr); err != nil {
		t.Fatalf("minimized trace does not replay exactly: %v", err)
	}
	// And it must still validate against the axiomatic model.
	if vs, err := min.Validate(); err != nil || len(vs) > 0 {
		t.Fatalf("minimized trace fails axiomatic validation: %v %v", err, vs)
	}
	t.Logf("minimize: %d→%d thread choices, %d→%d index choices in %d replays",
		stats.ThreadsBefore, stats.ThreadsAfter, stats.IndicesBefore, stats.IndicesAfter, stats.Replays)
}

func TestDDMinFindsOneMinimalSubset(t *testing.T) {
	input := make([]int32, 24)
	for i := range input {
		input[i] = int32(i)
	}
	contains := func(xs []int32, v int32) bool {
		for _, x := range xs {
			if x == v {
				return true
			}
		}
		return false
	}
	got := ddmin(input, func(cand []int32) bool {
		return contains(cand, 5) && contains(cand, 17)
	})
	if len(got) != 2 || !contains(got, 5) || !contains(got, 17) {
		t.Fatalf("ddmin = %v, want [5 17]", got)
	}
}
