package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
	"c11tester/internal/obs"
	"c11tester/internal/structures"
	"c11tester/internal/trace"
)

func mustTool(t *testing.T, name string, opts ToolOptions) ToolSpec {
	t.Helper()
	spec, err := StandardTool(name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func mustLitmus(t *testing.T, name string) *litmus.Test {
	t.Helper()
	test, ok := litmus.ByName(name)
	if !ok {
		t.Fatalf("unknown litmus test %q", name)
	}
	return test
}

func benchSpec(t *testing.T, name string) BenchmarkSpec {
	t.Helper()
	b, err := structures.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	sig := harness.SignalRace
	if structures.IsInjected(name) {
		sig = harness.SignalAssert
	}
	return BenchmarkSpec{Name: b.Name, New: b.New, Signal: sig}
}

// canonicalize strips the fields that legitimately vary run to run — wall
// clock, per-shard work time, GC measurements, and everything
// derived from them — leaving exactly the aggregates the determinism
// guarantee covers.
func canonicalize(s *Summary) *Summary {
	c := *s
	c.WallNS = 0
	c.Spec.Workers = 0
	c.Spec.ShardSize = 0
	c.GC = GCSummary{}
	c.Tools = append([]ToolSummary(nil), s.Tools...)
	for i := range c.Tools {
		ts := &c.Tools[i]
		ts.WorkNS = 0
		ts.ExecsPerSec = 0
		ts.Benchmarks = append([]CellSummary(nil), ts.Benchmarks...)
		for j := range ts.Benchmarks {
			ts.Benchmarks[j].Detection.MeanTimeNS = 0
			// Timing and phase histograms are wall-clock measurements;
			// schedule length, choices and counts stay.
			ts.Benchmarks[j].Hists = withoutWallClock(ts.Benchmarks[j].Hists)
		}
		ts.Litmus = append([]LitmusSummary(nil), ts.Litmus...)
		for j := range ts.Litmus {
			ts.Litmus[j].Hists = withoutWallClock(ts.Litmus[j].Hists)
		}
	}
	return &c
}

// withoutWallClock returns a copy of h with its wall-clock histograms
// dropped, leaving the summary h belongs to alone.
func withoutWallClock(h *hists) *hists {
	if h == nil {
		return nil
	}
	c := *h
	c.dropWallClock()
	return &c
}

// phaseCounts maps every cell's "tool/program/phase" to its phase histogram
// count — the number of span-sampled executions. The sample is a pure
// function of the execution index, so these counts must be as deterministic
// under workers, shards and resume as the outcomes themselves.
func phaseCounts(s *Summary) map[string]uint64 {
	out := map[string]uint64{}
	add := func(tool, program string, h *hists) {
		if h == nil {
			return
		}
		for p := range h.PhaseNS {
			if n := h.PhaseNS[p].Count(); n > 0 {
				out[tool+"/"+program+"/"+core.Phase(p).String()] = n
			}
		}
	}
	for _, ts := range s.Tools {
		for _, c := range ts.Benchmarks {
			add(ts.Tool, c.Program, c.Hists)
		}
		for _, c := range ts.Litmus {
			add(ts.Tool, c.Test, c.Hists)
		}
	}
	return out
}

// sampledIn counts the execution indices in [0, n) that sampled picks
// (wallSampled or spansSampled).
func sampledIn(n int, sampled func(int) bool) uint64 {
	var c uint64
	for i := 0; i < n; i++ {
		if sampled(i) {
			c++
		}
	}
	return c
}

// checkSampledCounts asserts that every cell of s timed its wall time on
// exactly the wall-time indices among its n executions, [0, n), and its
// reset and run spans — and its validate span, when present — on exactly the
// span indices (the histograms have no race span: race checks are
// counted); that it observed the schedule length and choices of all n; and that it carries layer counts of
// at least one resume per execution (its main thread's start). The record
// span is left out: it counts only the span-sampled executions that owed a
// trace. Canonical keeps the counts, so the callers' identity checks
// (workers 1 ≡ K, shard merge, resume) compare them exactly.
func checkSampledCounts(t *testing.T, s *Summary) {
	t.Helper()
	check := func(tool, program string, execs, failed int, h *hists) {
		t.Helper()
		if failed > 0 {
			t.Fatalf("%s/%s: %d failed executions leave gaps in the index range", tool, program, failed)
		}
		if h == nil {
			t.Fatalf("%s/%s: no histograms for %d executions", tool, program, execs)
		}
		if got, want := h.ExecNS.Count(), sampledIn(execs, wallSampled); got != want {
			t.Errorf("%s/%s: timing count %d, want %d (wall-time indices in [0, %d))",
				tool, program, got, want, execs)
		}
		want := sampledIn(execs, spansSampled)
		spans := []core.Phase{core.PhaseReset, core.PhaseRun}
		if h.PhaseNS[core.PhaseValidate].Count() > 0 {
			spans = append(spans, core.PhaseValidate)
		}
		for _, p := range spans {
			if got := h.PhaseNS[p].Count(); got != want {
				t.Errorf("%s/%s: %s count %d, want %d (span indices in [0, %d))",
					tool, program, p, got, want, execs)
			}
		}
		for name, hist := range map[string]*obs.Histogram{"sched_len": &h.SchedLen, "choices": &h.Choices} {
			if got := hist.Count(); got != uint64(execs) {
				t.Errorf("%s/%s: %s count %d, want every one of %d executions", tool, program, name, got, execs)
			}
		}
		if c := h.Counts; c.Resumes < uint64(execs) || c.RaceChecks == 0 {
			t.Errorf("%s/%s: layer counts %+v, want ≥ %d resumes and some race checks", tool, program, c, execs)
		}
	}
	for _, ts := range s.Tools {
		for _, c := range ts.Benchmarks {
			check(ts.Tool, c.Program, c.Detection.Runs, c.Failed, c.Hists)
		}
		for _, c := range ts.Litmus {
			check(ts.Tool, c.Test, c.Execs, c.Failed, c.Hists)
		}
	}
}

// checkSameSamples asserts two runs of one campaign timed the same executions.
func checkSameSamples(t *testing.T, a, b *Summary) {
	t.Helper()
	if ac, bc := phaseCounts(a), phaseCounts(b); !reflect.DeepEqual(ac, bc) {
		t.Errorf("phase sample counts differ:\n%v\n%v", ac, bc)
	}
}

// TestDeterminismUnderSharding is the acceptance-criterion test: the same
// (tools, programs, runs, seedBase) campaign must yield identical
// aggregated race keys, detection counts, reproduction seeds, and litmus
// outcome histograms whether it runs on one worker or four (and regardless
// of shard size).
func TestDeterminismUnderSharding(t *testing.T) {
	build := func(workers, shardSize int) Spec {
		return Spec{
			Tools: []ToolSpec{
				mustTool(t, "c11tester", ToolOptions{}),
				mustTool(t, "tsan11", ToolOptions{}),
			},
			Benchmarks: []BenchmarkSpec{
				benchSpec(t, "ms-queue"),
				benchSpec(t, "linuxrwlocks"),
				benchSpec(t, "seqlock"),
			},
			Litmus: []*litmus.Test{
				mustLitmus(t, "MP+rlx"),
				mustLitmus(t, "SB+sc"),
				mustLitmus(t, "CoRR"),
			},
			Runs:     60,
			SeedBase: 1000,
			Workers:  workers,
			// Shard sizes that do not divide Runs exercise the ragged tail.
			ShardSize: shardSize,
		}
	}

	serialRaw, shardedRaw := Run(build(1, 60)), Run(build(4, 7))
	checkSampledCounts(t, serialRaw)
	checkSameSamples(t, serialRaw, shardedRaw)
	serial, sharded := canonicalize(serialRaw), canonicalize(shardedRaw)

	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("campaign aggregates differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s", sj, pj)
	}

	// Sanity on the content itself, not just the equality: ms-queue's
	// unconditional race must be detected in every execution by every tool.
	for _, ts := range serial.Tools {
		msq := ts.Benchmarks[0]
		if msq.Program != "ms-queue" || msq.Detection.Detected != msq.Detection.Runs {
			t.Errorf("%s: ms-queue detection = %d/%d, want 100%%",
				ts.Tool, msq.Detection.Detected, msq.Detection.Runs)
		}
		if len(ts.Races) == 0 {
			t.Errorf("%s: no deduplicated races collected", ts.Tool)
		}
		for _, ls := range ts.Litmus {
			if len(ls.ForbiddenSeen) > 0 {
				t.Errorf("%s: forbidden outcome in %s: %+v", ts.Tool, ls.Test, ls.ForbiddenSeen)
			}
		}
	}
}

// TestReproSeedReplays closes the reproduction loop: take a race's repro
// triple out of a campaign summary, execute that single (tool, program,
// seed), and the race with the same key must appear again.
func TestReproSeedReplays(t *testing.T) {
	spec := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:       10,
		SeedBase:   42,
		Workers:    2,
		ShardSize:  3,
	}
	sum := Run(spec)
	races := sum.Tools[0].Races
	if len(races) == 0 {
		t.Fatal("no races to replay")
	}
	for _, r := range races {
		tool := spec.Tools[0].New()
		res := tool.Execute(spec.Benchmarks[0].New(), r.Repro.Seed)
		found := false
		for _, rep := range res.Races {
			if rep.Key() == r.Key {
				found = true
			}
		}
		if !found {
			t.Errorf("replaying %v did not reproduce race %q", r.Repro, r.Key)
		}
	}
}

// TestRecordedCampaignReplaysDeterministically is the tentpole acceptance
// test: a sharded (workers=4) recording campaign persists a trace for every
// execution, every trace is then rebuilt from its serialized form alone and
// replayed serially, and each replay must reproduce byte-identical race
// keys, litmus outcomes, final values, and event payloads. The campaign also
// axiom-checks every execution, which must produce zero violations.
func TestRecordedCampaignReplaysDeterministically(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Tools: []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{
			benchSpec(t, "ms-queue"),
			benchSpec(t, "seqlock"),
		},
		Litmus:    []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
		Runs:      8,
		SeedBase:  300,
		Workers:   4,
		ShardSize: 3,
		RecordDir: dir, RecordOn: obs.Of(obs.TriggerAll),
		ValidateAxioms: true,
	}
	sum := Run(spec)
	if v := sum.AxiomViolations(); v != 0 {
		t.Fatalf("axiomatic validation found %d violation(s): %+v", v, sum.Tools[0].Validation)
	}
	val := sum.Tools[0].Validation
	if val == nil || val.Checked != 32 {
		t.Fatalf("validation summary = %+v, want 32 checked executions", val)
	}
	if sum.Tools[0].RecordedTraces != 32 {
		t.Fatalf("recorded %d traces, want 32 (record-all over 4 cells × 8 runs)", sum.Tools[0].RecordedTraces)
	}

	files, err := filepath.Glob(filepath.Join(dir, "trace_*.json"))
	if err != nil || len(files) != 32 {
		t.Fatalf("found %d trace files (err=%v), want 32", len(files), err)
	}
	litmusTraces := 0
	for _, f := range files {
		tr, err := trace.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if tr.Litmus {
			litmusTraces++
		}
		subj, err := TraceSubject(tr)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		rr, err := trace.Replay(tr, subj)
		if err != nil {
			t.Fatalf("%s: replay: %v", f, err)
		}
		if err := tr.Verify(rr); err != nil {
			t.Errorf("%s: replay not identical: %v", f, err)
		}
		if vs, err := tr.Validate(); err != nil || len(vs) > 0 {
			t.Errorf("%s: offline validation: %v %v", f, err, vs)
		}
	}
	if litmusTraces != 16 {
		t.Errorf("replayed %d litmus traces, want 16", litmusTraces)
	}
}

// TestValidationSkipsBaselines pins that -validate counts baseline
// executions as skipped (their commit-order model exposes no total mo)
// while still checking the full-fragment tool.
func TestValidationSkipsBaselines(t *testing.T) {
	sum := Run(Spec{
		Tools: []ToolSpec{
			mustTool(t, "c11tester", ToolOptions{}),
			mustTool(t, "tsan11", ToolOptions{}),
		},
		Litmus:         []*litmus.Test{mustLitmus(t, "SB+sc")},
		Runs:           10,
		SeedBase:       1,
		ValidateAxioms: true,
	})
	full, base := sum.Tools[0].Validation, sum.Tools[1].Validation
	if full == nil || full.Checked != 10 || full.Skipped != 0 || full.Violations != 0 {
		t.Errorf("c11tester validation = %+v, want 10 checked", full)
	}
	if base == nil || base.Checked != 0 || base.Skipped != 10 {
		t.Errorf("tsan11 validation = %+v, want 10 skipped", base)
	}
	if sum.Failed() {
		t.Error("violation-free campaign must not fail")
	}
}

// constLitmus builds a litmus test whose every execution yields outcome.
func constLitmus(name, outcome string) *litmus.Test {
	return &litmus.Test{
		Name: name,
		Make: func(out *string) capi.Program {
			return capi.Program{Name: name, Run: func(capi.Env) { *out = outcome }}
		},
	}
}

func TestForbiddenOutcomeChecking(t *testing.T) {
	bad := constLitmus("always-bad", "bad")
	bad.Forbidden = map[string]bool{"bad": true}

	spec := Spec{
		Tools:     []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Litmus:    []*litmus.Test{bad},
		Runs:      9,
		SeedBase:  5,
		Workers:   3,
		ShardSize: 2,
	}
	sum := Run(spec)
	if !sum.Failed() {
		t.Fatal("campaign with an always-forbidden outcome must fail")
	}
	forb := sum.Forbidden()
	if len(forb) != 1 {
		t.Fatalf("Forbidden() = %+v, want exactly one entry", forb)
	}
	f := forb[0]
	if f.Outcome != "bad" || f.Count != 9 {
		t.Errorf("forbidden outcome = %+v, want outcome 'bad' ×9", f)
	}
	// The repro must point at the earliest execution: seed = SeedBase+0.
	if f.Repro.Seed != 5 || f.Repro.Tool != "c11tester" || f.Repro.Program != "always-bad" {
		t.Errorf("forbidden repro = %+v, want c11tester/always-bad seed=5", f.Repro)
	}
}

func TestBaselineForbiddenOnlyAppliesToBaselines(t *testing.T) {
	mk := func(baseline bool) *Summary {
		weak := constLitmus("fragment-gap", "21")
		weak.Weak = map[string]bool{"21": true}
		weak.BaselineForbidden = map[string]bool{"21": true}
		tool := mustTool(t, "c11tester", ToolOptions{})
		tool.Baseline = baseline
		return Run(Spec{
			Tools:  []ToolSpec{tool},
			Litmus: []*litmus.Test{weak},
			Runs:   4,
		})
	}
	if sum := mk(false); sum.Failed() {
		t.Error("BaselineForbidden outcome must be allowed for the full-fragment tool")
	} else if ws := sum.Tools[0].Litmus[0].WeakSeen; len(ws) != 1 || ws[0] != "21" {
		t.Errorf("weak coverage not recorded: %v", ws)
	}
	if sum := mk(true); !sum.Failed() {
		t.Error("BaselineForbidden outcome must fail a baseline tool")
	}
}

func TestUnexpectedLitmusRace(t *testing.T) {
	// A "litmus test" with a genuinely racy program: two threads store to
	// the same non-atomic location with no synchronization. Any race inside
	// a litmus cell is flagged as a soundness problem.
	racy := &litmus.Test{
		Name: "racy",
		Make: func(out *string) capi.Program {
			return capi.Program{Name: "racy", Run: func(env capi.Env) {
				l := env.NewLoc("shared", 0)
				th := env.Spawn("w", func(env capi.Env) { env.Write(l, 1) })
				env.Write(l, 2)
				env.Join(th)
				*out = "done"
			}}
		},
	}
	sum := Run(Spec{
		Tools:   []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Litmus:  []*litmus.Test{racy},
		Runs:    30,
		Workers: 2,
	})
	if !sum.Failed() {
		t.Fatal("race inside a litmus program must fail the campaign")
	}
	if ur := sum.UnexpectedRaces(); len(ur) == 0 {
		t.Fatal("UnexpectedRaces() empty")
	} else if ur[0].Repro.Program != "racy" {
		t.Errorf("unexpected-race repro = %+v", ur[0].Repro)
	}
}

func TestSummaryJSONArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_campaign.json")
	spec := Spec{
		Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks:     []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Litmus:         []*litmus.Test{mustLitmus(t, "MP+rlx")},
		Runs:           8,
		SeedBase:       7,
		Workers:        2,
		CheckpointPath: path,
	}
	sum := Run(spec)
	if sum.WriteErr != nil {
		t.Fatal(sum.WriteErr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("artifact is not well-formed JSON: %v", err)
	}
	if decoded["schema"] != SchemaName || decoded["schema_version"] != float64(SchemaVersion) {
		t.Errorf("schema header = %v/%v", decoded["schema"], decoded["schema_version"])
	}
	if decoded["wall_ns"] == nil || decoded["complete"] != true {
		t.Errorf("artifact wall_ns %v, complete %v", decoded["wall_ns"], decoded["complete"])
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := ck.Summarize()
	if roundTrip.Tools[0].ExecsPerSec <= 0 || roundTrip.WallNS != sum.WallNS {
		t.Errorf("per-tool execs_per_sec = %v, wall %d (live %d); want > 0 and the live wall clock",
			roundTrip.Tools[0].ExecsPerSec, roundTrip.WallNS, sum.WallNS)
	}
	if !reflect.DeepEqual(canonicalize(roundTrip).Spec, canonicalize(sum).Spec) {
		t.Error("spec does not round-trip")
	}
	if got := len(roundTrip.Tools[0].Races); got == 0 {
		t.Error("artifact carries no deduplicated race reports")
	}
	for _, r := range roundTrip.Tools[0].Races {
		if r.Repro.Seed < 7 || r.Repro.Seed >= 7+8 {
			t.Errorf("race repro seed %d outside campaign seed range", r.Repro.Seed)
		}
	}
}

func TestSummaryTables(t *testing.T) {
	sum := Run(Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
		Runs:       5,
	})
	var buf bytes.Buffer
	WriteReport(&buf, sum, nil, "")
	text := buf.String()
	for _, want := range []string{"ms-queue", "MP+rlx", "c11tester", "execs/sec"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	tool := mustTool(t, "c11tester", ToolOptions{})
	bench := BenchmarkSpec{Name: "b"}
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"ok", Spec{Tools: []ToolSpec{tool}, Benchmarks: []BenchmarkSpec{bench}, Runs: 1}, true},
		{"no tools", Spec{Benchmarks: []BenchmarkSpec{bench}, Runs: 1}, false},
		{"no programs", Spec{Tools: []ToolSpec{tool}, Runs: 1}, false},
		{"no runs", Spec{Tools: []ToolSpec{tool}, Benchmarks: []BenchmarkSpec{bench}}, false},
		{"nil factory", Spec{Tools: []ToolSpec{{Name: "x"}}, Benchmarks: []BenchmarkSpec{bench}, Runs: 1}, false},
		{"dup tool", Spec{Tools: []ToolSpec{tool, tool}, Benchmarks: []BenchmarkSpec{bench}, Runs: 1}, false},
		{"dup bench", Spec{Tools: []ToolSpec{tool}, Benchmarks: []BenchmarkSpec{bench, bench}, Runs: 1}, false},
		{"dup litmus", Spec{Tools: []ToolSpec{tool}, Litmus: []*litmus.Test{constLitmus("l", "x"), constLitmus("l", "x")}, Runs: 1}, false},
		{"negative shard size", Spec{Tools: []ToolSpec{tool}, Benchmarks: []BenchmarkSpec{bench}, Runs: 1, ShardSize: -4}, false},
		{"negative workers", Spec{Tools: []ToolSpec{tool}, Benchmarks: []BenchmarkSpec{bench}, Runs: 1, Workers: -2}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestParsePolicy pins the -policy flag boundary: both policy names parse
// (uniform to the nil policy), a zero epsilon means the default, and a
// negative (or NaN) epsilon is refused instead of silently replaced by the
// default.
func TestParsePolicy(t *testing.T) {
	cases := []struct {
		name    string
		policy  string
		epsilon float64
		want    string // policyName; "" means an error
	}{
		{"default", "", 0, "uniform"},
		{"uniform", "uniform", 0, "uniform"},
		{"converge defaults", "converge", 0, "converge(eps=0.02)"},
		{"converge explicit", "converge", 0.1, "converge(eps=0.1)"},
		{"unknown", "adaptive", 0, ""},
		{"negative epsilon", "converge", -0.5, ""},
		{"NaN epsilon", "converge", math.NaN(), ""},
		{"negative under uniform", "uniform", -3, ""},
	}
	for _, c := range cases {
		p, err := ParsePolicy(c.policy, c.epsilon)
		switch {
		case c.want == "" && err == nil:
			t.Errorf("%s: ParsePolicy = %s, want an error", c.name, policyName(p))
		case c.want != "" && err != nil:
			t.Errorf("%s: ParsePolicy: %v", c.name, err)
		case c.want != "" && policyName(p) != c.want:
			t.Errorf("%s: ParsePolicy = %s, want %s", c.name, policyName(p), c.want)
		case c.want == "uniform" && p != nil:
			t.Errorf("%s: ParsePolicy = %+v, want the nil (uniform) policy", c.name, p)
		}
	}
}

// TestSelectBenchmarksExpandsAll checks that "all" is one more list element
// of -bench: expanded in place to the paper's benchmarks, with any name the
// list repeats kept at its first position.
func TestSelectBenchmarksExpandsAll(t *testing.T) {
	var paper []string
	for _, b := range structures.All() {
		paper = append(paper, b.Name)
	}
	for sel, want := range map[string][]string{
		"all":                     paper,
		"all,atomic-counter":      append(append([]string{}, paper...), "atomic-counter"),
		"seqlock,all":             append([]string{"seqlock"}, without(paper, "seqlock")...),
		"ms-queue,all,ms-queue":   append([]string{"ms-queue"}, without(paper, "ms-queue")...),
		"atomic-counter,ms-queue": {"atomic-counter", "ms-queue"},
		"none":                    nil,
		"":                        nil,
	} {
		specs, err := SelectBenchmarks(sel)
		if err != nil {
			t.Fatalf("SelectBenchmarks(%q): %v", sel, err)
		}
		var got []string
		for _, s := range specs {
			got = append(got, s.Name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("SelectBenchmarks(%q) = %v, want %v", sel, got, want)
		}
	}
	if _, err := SelectBenchmarks("all,nope"); err == nil {
		t.Error("unknown benchmark inside a list accepted")
	}
}

// without returns names minus drop, in order.
func without(names []string, drop string) []string {
	var out []string
	for _, n := range names {
		if n != drop {
			out = append(out, n)
		}
	}
	return out
}

// TestRaceKeysOf pins the runner's one race pass, foldRaces: an
// execution's keys are its distinct RaceReport.Key()s in first-occurrence
// order, a warm intern table renders nothing, the fragment keeps the
// earliest execution per key whatever order the executions arrive in, and
// an execution is new exactly when it gives the fragment a key.
func TestRaceKeysOf(t *testing.T) {
	race := func(loc string, prior, kind memmodel.Kind, tid memmodel.TID) capi.RaceReport {
		return capi.RaceReport{LocName: loc, PriorKind: prior, Kind: kind, TID: tid}
	}
	a := race("x", memmodel.KNAStore, memmodel.KNALoad, 1)
	a2 := race("x", memmodel.KNAStore, memmodel.KNALoad, 2) // a's identity, another thread
	b := race("x", memmodel.KNALoad, memmodel.KNAStore, 1)
	b2 := race("x", memmodel.KNALoad, memmodel.KNAStore, 2)
	c := race("y", memmodel.KNAStore, memmodel.KNAStore, 2)

	// One intern table across the cases, as a worker keeps one across its
	// executions: the reused result buffer must not leak between calls.
	var keys keyIntern
	for _, tc := range []struct {
		name  string
		races []capi.RaceReport
		want  []capi.RaceReport // the first occurrence of each identity
	}{
		{"none", nil, nil},
		{"one", []capi.RaceReport{a}, []capi.RaceReport{a}},
		{"duplicates", []capi.RaceReport{a, a2, a}, []capi.RaceReport{a}},
		{"first-occurrence order", []capi.RaceReport{c, a, b, a2, c, b2}, []capi.RaceReport{c, a, b}},
		{"kind pair is ordered", []capi.RaceReport{b, a}, []capi.RaceReport{b, a}},
	} {
		res := &capi.Result{Races: tc.races}
		frag := fragment{Races: map[string]raceHit{}}
		got, isNew := foldRaces(&frag, &keys, res, 0)
		var want []string
		for _, r := range tc.want {
			want = append(want, r.Key())
		}
		if !reflect.DeepEqual(got, want) || isNew != (len(want) > 0) {
			t.Errorf("%s: foldRaces = %q new %v, want %q new %v", tc.name, got, isNew, want, len(want) > 0)
		}
		if _, again := foldRaces(&frag, &keys, res, 1); again {
			t.Errorf("%s: a repeated execution gave the fragment a new key", tc.name)
		}
		if n := testing.AllocsPerRun(10, func() { foldRaces(&frag, &keys, res, 1) }); n != 0 {
			t.Errorf("%s: warm foldRaces allocates %.1f times, want 0", tc.name, n)
		}
	}

	frag := fragment{Races: map[string]raceHit{}}
	for _, e := range []struct {
		run   int
		races []capi.RaceReport
		isNew bool
	}{
		{5, []capi.RaceReport{a, b}, true},
		{2, []capi.RaceReport{b2, b}, false}, // earlier: b's winner becomes run 2's first report
		{7, []capi.RaceReport{a, c}, true},
		{3, []capi.RaceReport{a2}, false},
		{4, []capi.RaceReport{a, b}, false}, // later than both winners: no change
	} {
		if _, isNew := foldRaces(&frag, &keys, &capi.Result{Races: e.races}, e.run); isNew != e.isNew {
			t.Errorf("run %d: new %v, want %v", e.run, isNew, e.isNew)
		}
	}
	want := map[string]raceHit{
		a.Key(): {report: a2, Run: 3},
		b.Key(): {report: b2, Run: 2},
		c.Key(): {report: c, Run: 7},
	}
	if !reflect.DeepEqual(frag.Races, want) {
		t.Errorf("foldRaces = %+v, want %+v", frag.Races, want)
	}
	for key, hit := range want {
		if got := frag.Races[key].Desc(); got != hit.report.String() {
			t.Errorf("%s: description %q, want %q", key, got, hit.report.String())
		}
	}
}

// TestRaceWinnerDescription pins which sighting's description wins now that
// descriptions are rendered lazily: a race key sighted at run 7 in one unit
// and at run 3, by other threads, in a unit folded later keeps run 3's
// description — folded live, folded after either side went through the
// fragment's JSON (a checkpoint), and in the JSON itself,
// whose form is the rendered {"desc", "run"} it always was.
func TestRaceWinnerDescription(t *testing.T) {
	late := capi.RaceReport{LocName: "x", PriorKind: memmodel.KNAStore, Kind: memmodel.KNALoad, PriorTID: 1, TID: 2}
	early := late
	early.PriorTID, early.TID = 2, 1
	if late.Key() != early.Key() || late.String() == early.String() {
		t.Fatal("the two sightings must share a key and differ in description")
	}
	var keys keyIntern
	unit := func(r capi.RaceReport, run int) fragment {
		f := fragment{Races: map[string]raceHit{}}
		foldRaces(&f, &keys, &capi.Result{Races: []capi.RaceReport{r}}, run)
		return f
	}
	restored := func(f fragment) fragment {
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		var back fragment
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		return back
	}
	first, second := unit(late, 7), unit(early, 3)
	for name, pair := range map[string][2]fragment{
		"live":              {first, second},
		"restored first":    {restored(first), second},
		"restored second":   {first, restored(second)},
		"restored both":     {restored(first), restored(second)},
		"later folded into": {second, first},
	} {
		var acc fragment
		acc.merge(&pair[0])
		acc.merge(&pair[1])
		hit := acc.Races[late.Key()]
		if hit.Run != 3 || hit.Desc() != early.String() {
			t.Errorf("%s: winner run %d %q, want run 3 %q", name, hit.Run, hit.Desc(), early.String())
		}
	}

	want, _ := json.Marshal(map[string]any{"desc": early.String(), "run": 3})
	if got, _ := json.Marshal(second.Races[early.Key()]); string(got) != string(want) {
		t.Errorf("live hit encodes as %s, want %s", got, want)
	}
}
