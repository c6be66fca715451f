package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/litmus"
	"c11tester/internal/structures"
	"c11tester/internal/trace"
)

// execDigest is the complete observable outcome of one execution. The pooled
// engine's arenas must be observationally invisible: executing seed s as the
// (i+1)-th execution of a reused engine must produce byte-identical results
// to executing it on a fresh engine.
type execDigest struct {
	RaceKeys       []string
	Outcome        string
	FinalValues    map[string]uint64
	Deadlocked     bool
	Truncated      bool
	AssertFailures int
	// TraceJSON is the full serialized trace (events, rf edges, per-location
	// modification orders, schedule) for tools whose model exposes total
	// modification orders; "" otherwise.
	TraceJSON string
}

func digestOf(t *testing.T, eng *core.Engine, rec *trace.Recorder, res *capi.Result, program string, isLit bool, outcome string, seed int64) execDigest {
	t.Helper()
	keys := map[string]bool{}
	for _, r := range res.Races {
		keys[r.Key()] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	fv := map[string]uint64{}
	for k, v := range eng.FinalValues() {
		fv[k] = uint64(v)
	}
	d := execDigest{
		RaceKeys: sorted, Outcome: outcome, FinalValues: fv,
		Deadlocked: res.Deadlocked, Truncated: res.Truncated,
		AssertFailures: len(res.AssertFailures),
	}
	if _, ok := eng.Model().(core.MOProvider); ok {
		tr, err := trace.Record(eng, res, rec.Schedule(), trace.Meta{
			Tool: trace.ToolConfig{Name: eng.Name()}, Program: program,
			Litmus: isLit, Seed: seed, Outcome: outcome,
		})
		if err != nil {
			t.Fatalf("record %s seed %d: %v", program, seed, err)
		}
		data, err := json.Marshal(tr)
		if err != nil {
			t.Fatalf("marshal trace: %v", err)
		}
		d.TraceJSON = string(data)
	}
	return d
}

func digestEqual(a, b execDigest) string {
	if fmt.Sprintf("%v", a.RaceKeys) != fmt.Sprintf("%v", b.RaceKeys) {
		return fmt.Sprintf("race keys %v vs %v", a.RaceKeys, b.RaceKeys)
	}
	if a.Outcome != b.Outcome {
		return fmt.Sprintf("outcome %q vs %q", a.Outcome, b.Outcome)
	}
	if len(a.FinalValues) != len(b.FinalValues) {
		return fmt.Sprintf("final value count %d vs %d", len(a.FinalValues), len(b.FinalValues))
	}
	for k, v := range a.FinalValues {
		if bv, ok := b.FinalValues[k]; !ok || bv != v {
			return fmt.Sprintf("final value %s: %d vs %d (present=%v)", k, v, bv, ok)
		}
	}
	if a.Deadlocked != b.Deadlocked || a.Truncated != b.Truncated || a.AssertFailures != b.AssertFailures {
		return fmt.Sprintf("termination (%v,%v,%d) vs (%v,%v,%d)",
			a.Deadlocked, a.Truncated, a.AssertFailures, b.Deadlocked, b.Truncated, b.AssertFailures)
	}
	if a.TraceJSON != b.TraceJSON {
		return "serialized traces differ"
	}
	return ""
}

// newTracedTool builds a tool instance with trace mode and a schedule
// recorder interposed when the model supports total modification orders, so
// pooled and fresh instances run the identical instrumented path.
func newTracedTool(spec ToolSpec) (capi.Tool, *core.Engine, *trace.Recorder) {
	tool := spec.New()
	eng := tool.(*core.Engine)
	rec := trace.NewRecorder(eng.Strategy())
	eng.SetStrategy(rec)
	if _, ok := eng.Model().(core.MOProvider); ok {
		eng.SetTrace(true)
	}
	return tool, eng, rec
}

// TestPooledEngineArenaEquivalence pins the invariant of the execution
// arenas and the fiber pool: N sequential Execute calls on ONE engine
// (exercising the recycled Action/clock-vector/mo-graph state and the
// re-bound pool workers) produce byte-identical race keys, outcomes, final
// values, and serialized traces to N fresh engines, across every tool ×
// program cell of the standard matrix. The rearm case extends it across
// units of work: one engine rearmed between units ≡ a fresh engine per unit.
func TestPooledEngineArenaEquivalence(t *testing.T) {
	const runs = 3
	benches, err := SelectBenchmarks("all")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("all")
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range StandardToolNames() {
		spec, err := StandardTool(name, ToolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		type cell struct {
			name   string
			isLit  bool
			prog   capi.Program
			reset  func()
			outStr func() string
		}
		var cells []cell
		for _, b := range benches {
			cells = append(cells, cell{name: b.Name, prog: b.New(), outStr: func() string { return "" }})
		}
		for _, l := range lits {
			out := new(string)
			prog := l.Make(out)
			cells = append(cells, cell{
				name: l.Name, isLit: true, prog: prog,
				reset:  func() { *out = "" },
				outStr: func() string { return *out },
			})
		}

		t.Run(name+"/rearm", func(t *testing.T) { testRearmEquivalence(t, spec) })
		for _, c := range cells {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				pooledTool, pooledEng, pooledRec := newTracedTool(spec)
				var pooled []execDigest
				for i := 0; i < runs; i++ {
					if c.reset != nil {
						c.reset()
					}
					res := pooledTool.Execute(c.prog, int64(i+1))
					pooled = append(pooled, digestOf(t, pooledEng, pooledRec, res, c.name, c.isLit, c.outStr(), int64(i+1)))
				}
				for i := 0; i < runs; i++ {
					freshTool, freshEng, freshRec := newTracedTool(spec)
					if c.reset != nil {
						c.reset()
					}
					res := freshTool.Execute(c.prog, int64(i+1))
					fresh := digestOf(t, freshEng, freshRec, res, c.name, c.isLit, c.outStr(), int64(i+1))
					if diff := digestEqual(pooled[i], fresh); diff != "" {
						t.Fatalf("execution %d (seed %d): pooled engine diverged from fresh engine: %s", i, i+1, diff)
					}
				}
			})
		}
	}
}

// rearmUnit is one unit of work in the rearm equivalence case: a program run
// over seeds 1..runs with the strategy wrappers a campaign unit may install.
type rearmUnit struct {
	program string
	runs    int
	// record interposes a trace.Recorder and turns tracing on (for models
	// with total modification orders); guide installs a PrefixGuide along
	// the given schedule.
	record bool
	guide  *trace.Schedule
}

// deadlockProg deadlocks every execution: main joins a child that joins
// main, so the engine aborts with both threads Blocked.
var deadlockProg = capi.Program{Name: "deadlock", Run: func(env capi.Env) {
	main := capi.Thread{TID: env.TID()}
	env.Join(env.Spawn("child", func(env capi.Env) { env.Join(main) }))
}}

// runRearmUnit runs one unit on eng and renders every execution's observable
// outcome: every race, the litmus outcome, final values, termination, trace length, and — when
// the unit records — the serialized trace.
func runRearmUnit(t *testing.T, eng *core.Engine, u rearmUnit) []string {
	t.Helper()
	var prog capi.Program
	out := new(string)
	isLit := false
	switch lit, ok := litmus.ByName(u.program); {
	case u.program == deadlockProg.Name:
		prog = deadlockProg
	case ok:
		prog, isLit = lit.Make(out), true
	default:
		prog = mustBench(t, u.program).New()
	}
	if u.guide != nil {
		pg := trace.NewPrefixGuide(eng.Strategy())
		pg.SetSchedule(*u.guide)
		eng.SetStrategy(pg)
	}
	var rec *trace.Recorder
	_, hasMO := eng.Model().(core.MOProvider)
	if u.record {
		rec = trace.NewRecorder(eng.Strategy())
		eng.SetStrategy(rec)
		eng.SetTrace(hasMO)
	}
	var got []string
	for seed := int64(1); seed <= int64(u.runs); seed++ {
		*out = ""
		res := eng.Execute(prog, seed)
		line := fmt.Sprintf("seed %d: outcome %q deadlocked %v trace %d asserts %d finals %v",
			seed, *out, res.Deadlocked, len(eng.Trace()), len(res.AssertFailures), eng.FinalValues())
		for _, r := range res.Races {
			line += fmt.Sprintf(" race[%s]", r.Key())
		}
		if rec != nil && hasMO {
			line += " " + digestOf(t, eng, rec, res, u.program, isLit, *out, seed).TraceJSON
		}
		got = append(got, line)
	}
	return got
}

// testRearmEquivalence runs a unit sequence that alternates programs
// (litmus → abort → structure → litmus → structure), with recording and
// guided units in between, on ONE engine rearmed at every unit start, and
// requires every execution to match a fresh engine per unit.
func testRearmEquivalence(t *testing.T, spec ToolSpec) {
	guideEng := spec.New().(*core.Engine)
	defer guideEng.Close()
	rec := trace.NewRecorder(guideEng.Strategy())
	guideEng.SetStrategy(rec)
	guideEng.Execute(mustBench(t, "ms-queue").New(), 7)
	guide := rec.Schedule()

	units := []rearmUnit{
		{program: "MP+rlx", runs: 3, record: true},
		{program: deadlockProg.Name, runs: 2},
		{program: "ms-queue", runs: 3, guide: &guide},
		{program: "SB+rlx", runs: 3},
		{program: "ms-queue", runs: 3, record: true},
		{program: "ms-queue", runs: 2},
	}
	rearmed := spec.New().(*core.Engine)
	defer rearmed.Close()
	for ui, u := range units {
		rearmed.Rearm()
		got := runRearmUnit(t, rearmed, u)
		fresh := spec.New().(*core.Engine)
		want := runRearmUnit(t, fresh, u)
		fresh.Close()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("unit %d (%s) execution %d: rearmed engine diverged from a fresh one:\n got %s\nwant %s",
					ui, u.program, i, got[i], want[i])
			}
		}
	}
}

func mustBench(t *testing.T, name string) structures.Benchmark {
	t.Helper()
	b, err := structures.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dirFiles reads every file of dir, keyed by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestRunnerReuseIdentity pins that a worker's cell runner, reused across
// units, is invisible in the artifacts. The campaign is the duty shape —
// every benchmark plus atomic-counter and every litmus test, validated and
// analyzed — with -record and a guide set, so arm re-installs the trace
// switch and both strategy wrappers at every unit start. At ShardSize 1 on 3
// workers every unit is one execution and every runner serves many units, in
// an order that depends on scheduling; at ShardSize 25 on 1 worker each cell
// is one unit. The summaries must agree apart from the shard-size echo, and
// the recorded traces byte for byte.
func TestRunnerReuseIdentity(t *testing.T) {
	benches, err := SelectBenchmarks("all,atomic-counter")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("all")
	if err != nil {
		t.Fatal(err)
	}
	spec := func(runs int, seed int64) Spec {
		return Spec{
			Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks:     benches,
			Litmus:         lits,
			Runs:           runs,
			SeedBase:       seed,
			Workers:        1,
			ValidateAxioms: true,
			Analyzers:      ParseAnalyzers("all"),
		}
	}
	guideDir := t.TempDir()
	rec := spec(4, 900)
	rec.RecordDir = guideDir
	Run(rec)
	guides, err := LoadGuides(guideDir)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers, shardSize int) (string, map[string]string) {
		s := spec(20, 1)
		s.Workers, s.ShardSize = workers, shardSize
		s.Guides = guides
		s.RecordDir = t.TempDir()
		sum := Run(s)
		if sum.Tools[0].Validation == nil || sum.Tools[0].Validation.Violations != 0 {
			t.Fatalf("workers=%d shard=%d: validation %+v, want 0 violations", workers, shardSize, sum.Tools[0].Validation)
		}
		c := canonicalize(sum)
		c.Spec.RecordDir = "" // a per-run temporary directory
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		return string(data), dirFiles(t, s.RecordDir)
	}
	oneUnit, oneRec := run(1, 25)
	reused, reusedRec := run(3, 1)
	if oneUnit != reused {
		t.Errorf("summaries differ between one unit per cell and reused runners:\nworkers=1: %s\nworkers=3: %s", oneUnit, reused)
	}
	if len(oneRec) == 0 {
		t.Fatal("the campaign recorded no traces")
	}
	t.Logf("%d recorded traces, %d guide traces", len(oneRec), guides.Len())
	if !reflect.DeepEqual(oneRec, reusedRec) {
		t.Errorf("record directories differ: %d vs %d files", len(oneRec), len(reusedRec))
	}
	if !strings.Contains(oneUnit, `"guided_execs"`) {
		t.Error("no cell ran guided")
	}
}
