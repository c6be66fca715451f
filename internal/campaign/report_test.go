package campaign

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
)

// TestReportEndToEnd drives the full forensics join on a real campaign: run a
// racy converge-policy matrix with the trace sink armed, then render the
// report from the summary and the record directory and check every section
// is present and stitched from the right source.
func TestReportEndToEnd(t *testing.T) {
	dir := t.TempDir()
	sum := Run(captureSpec(t, 2, dir))
	man, err := obs.ReadManifest(filepath.Join(dir, obs.ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if missing := WriteReport(&buf, sum, man, dir); missing != 0 {
		t.Fatalf("report counts %d missing trace file(s) in an intact record directory", missing)
	}
	out := buf.String()
	for _, want := range []string{
		"campaign forensics report (schema v",
		"matrix: 2 tool(s)",
		"policy: converge(eps=0.02) — ",
		"build: go",
		"throughput:",
		"execs/sec",
		"detection rates (Table 2):",
		"top 4 cell(s) by p99 ns/exec:",
		"race timeline (",
		"convergence curves (",
		"record index (",
		"repro: go run ./cmd/c11trace replay ",
		"litmus outcome histograms:",
		"phase breakdown (mean)",
		"reset ",
		" of ", // the phase means' sample size, "(n=… of …)"
		"soundness: ok — 0 forbidden outcome(s), 0 unexpected race(s), 0 axiom violation(s), 0 engine failure(s)\n",
		"recorded ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n--- report ---\n%s", want, out)
		}
	}
	// The record index points each trace-backed entry into the record dir.
	if !strings.Contains(out, filepath.Join(dir, "")) {
		t.Errorf("record repro lines do not reference the record dir %s", dir)
	}
}

// TestWriteReportDegradesWithoutSidecars pins that the report renders from
// the summary alone: every summary-backed section is there, and the record
// index, with no manifest behind it, is left out instead of panicking.
func TestWriteReportDegradesWithoutSidecars(t *testing.T) {
	sum := Run(captureSpec(t, 1, t.TempDir()))

	var buf bytes.Buffer
	WriteReport(&buf, sum, nil, "")
	out := buf.String()
	for _, want := range []string{"top 4 cell(s) by p99 ns/exec:", "race timeline (", "convergence curves (", "soundness: "} {
		if !strings.Contains(out, want) {
			t.Errorf("section %q missing from a summary-only report:\n%s", want, out)
		}
	}
	if strings.Contains(out, "record index (") {
		t.Errorf("record index rendered with no manifest:\n%s", out)
	}
}

// TestRaceTimelineAndCurvesFromSummary pins the two summary-backed sections
// byte for byte on a two-tool summary: the timeline has one row per (tool,
// benchmark race key), sorted by (seed, tool, key), each followed by the
// race's description and repro line; an unexpected litmus race is left to
// the soundness section; the curves are sorted by (tool, program), one line
// per point in wave order; a uniform cell (no budget) has no curve.
func TestRaceTimelineAndCurvesFromSummary(t *testing.T) {
	race := func(tool, key, program string, seed int64) harness.RaceSummary {
		return harness.RaceSummary{Key: key, Description: "race on " + key,
			Repro: harness.Repro{Tool: tool, Program: program, Seed: seed}}
	}
	sum := &Summary{Tools: []ToolSummary{
		{
			Tool:            "tsan11",
			Races:           []harness.RaceSummary{race("tsan11", "q.b", "ms-queue", 12), race("tsan11", "q.a", "ms-queue", 12)},
			UnexpectedRaces: []harness.RaceSummary{race("tsan11", "x", "MP+rlx", 3)},
			Benchmarks:      []CellSummary{{Program: "ms-queue"}},
		},
		{
			Tool:  "c11tester",
			Races: []harness.RaceSummary{race("c11tester", "q.b", "ms-queue", 12), race("c11tester", "s.v", "seqlock", 40)},
			Benchmarks: []CellSummary{
				{Program: "seqlock", Budget: &BudgetSummary{Curve: []CurvePoint{
					{Wave: 1, TrackerState: explore.TrackerState{Execs: 150, DetectionRate: 0.97, DistinctRaces: 1, Converged: true}},
				}}},
			},
			Litmus: []LitmusSummary{
				{Test: "CoRR", Budget: &BudgetSummary{Curve: []CurvePoint{
					{Wave: 1, TrackerState: explore.TrackerState{Execs: 400, OutcomeL1: 0.0756, WindowNewInfo: true}},
					{Wave: 2, TrackerState: explore.TrackerState{Execs: 550, RateShift: -0.0125, OutcomeL1: 0.065}},
				}}},
			},
		},
	}}
	var buf bytes.Buffer
	writeRaceTimeline(&buf, sum)
	writeConvergence(&buf, sum)
	want := `
race timeline (4 distinct race(s)):
seed  tool       program   race key
----  ---------  --------  --------
12    c11tester  ms-queue  q.b     
  race on q.b
  repro: go run ./cmd/c11tester -tools c11tester -bench ms-queue -litmus none -runs 1 -seed 12 -json ''
12    tsan11     ms-queue  q.a     
  race on q.a
  repro: go run ./cmd/c11tester -tools tsan11 -bench ms-queue -litmus none -runs 1 -seed 12 -json ''
12    tsan11     ms-queue  q.b     
  race on q.b
  repro: go run ./cmd/c11tester -tools tsan11 -bench ms-queue -litmus none -runs 1 -seed 12 -json ''
40    c11tester  seqlock   s.v     
  race on s.v
  repro: go run ./cmd/c11tester -tools c11tester -bench seqlock -litmus none -runs 1 -seed 40 -json ''

convergence curves (2 cell(s)):
  c11tester/CoRR:
    wave 1: 400 execs, rate 0.00 (shift +0.000), 0 distinct race(s), L1 0.076 — new info in window
    wave 2: 550 execs, rate 0.00 (shift -0.013), 0 distinct race(s), L1 0.065 — diverging
  c11tester/seqlock:
    wave 1: 150 execs, rate 0.97 (shift +0.000), 1 distinct race(s), L1 0.000 — CONVERGED
`
	if got := buf.String(); got != want {
		t.Errorf("sections =\n%s\nwant\n%s", got, want)
	}
}

// TestPhaseBreakdownStatesSampleSize pins that the phase means carry their
// sample size: the phase histograms count the timed executions only, and
// the record span may count fewer still.
func TestPhaseBreakdownStatesSampleSize(t *testing.T) {
	h := blankHists
	for _, v := range []uint64{500, 1500} {
		h.PhaseNS[core.PhaseReset].Observe(v)
	}
	for _, v := range []uint64{8000, 10000} {
		h.PhaseNS[core.PhaseRun].Observe(v)
	}
	h.PhaseNS[core.PhaseRecord].Observe(5000)
	if got, want := phaseBreakdown(&h.PhaseNS, 30), "reset 1.0µs  run 9.0µs  record 5.0µs (n=2 of 30)"; got != want {
		t.Errorf("phaseBreakdown = %q, want %q", got, want)
	}
	if got, want := phaseBreakdown(&blankHists.PhaseNS, 30), "(no phase spans)"; got != want {
		t.Errorf("phaseBreakdown of no spans = %q, want %q", got, want)
	}
}

// TestWriteOutcomesTags pins the tags of the litmus outcome histograms on a
// two-tool summary: CoRR+opposed's "21" is the full fragment's fragment-gap
// witness under c11tester and a forbidden outcome under the commit-order
// baseline tsan11, and SB+rlx's weak outcome is tagged weak.
func TestWriteOutcomesTags(t *testing.T) {
	sb := mustLitmus(t, "SB+rlx")
	weak := harness.SortedKeys(sb.Weak)[0]
	sum := &Summary{
		Spec: SpecInfo{Litmus: []string{"CoRR+opposed", "SB+rlx"}},
		Tools: []ToolSummary{
			{Tool: "c11tester", Litmus: []LitmusSummary{
				{Test: "CoRR+opposed", Outcomes: map[string]int{"11": 3, "21": 2}, WeakSeen: []string{"21"}, WeakDefined: 1},
				{Test: "SB+rlx", Outcomes: map[string]int{weak: 4}, WeakSeen: []string{weak}, WeakDefined: len(sb.Weak)},
			}},
			{Tool: "tsan11", Litmus: []LitmusSummary{
				{Test: "CoRR+opposed", Outcomes: map[string]int{"21": 1}, WeakSeen: []string{"21"}, WeakDefined: 1,
					ForbiddenSeen: []ForbiddenOutcome{{Test: "CoRR+opposed", Outcome: "21", Count: 1}}},
				{Test: "SB+rlx", Outcomes: map[string]int{}, WeakDefined: len(sb.Weak)},
			}},
		},
	}
	var buf bytes.Buffer
	writeOutcomes(&buf, sum)
	out := buf.String()
	for _, want := range []string{
		"\nlitmus outcome histograms:\n",
		"\n    c11tester   \"11\"×3  \"21\"×2~fragment-gap  (weak 1/1)\n",
		"\n    tsan11      \"21\"×1!FORBIDDEN  (weak 1/1)\n",
		fmt.Sprintf("\n    c11tester   %q×4~weak  (weak 1/%d)\n", weak, len(sb.Weak)),
		fmt.Sprintf("\n    tsan11      (weak 0/%d)\n", len(sb.Weak)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histograms lack %q:\n%s", want, out)
		}
	}
}

// TestReportRendersEachReproOnce pins that the report loses nothing and
// repeats nothing: on a converge campaign with races, analyzer findings,
// validation and a record directory, each race's and each finding's repro
// line appears exactly once, under its description, and no other campaign
// repro line is printed but the record index's trace-less entries.
func TestReportRendersEachReproOnce(t *testing.T) {
	dir := t.TempDir()
	spec := captureSpec(t, 2, dir)
	spec.ValidateAxioms = true
	spec.Analyzers = ParseAnalyzers("all")
	sum := Run(spec)
	man, err := obs.ReadManifest(filepath.Join(dir, obs.ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	WriteReport(&buf, sum, man, dir)
	out := buf.String()

	want := 0
	for _, ts := range sum.Tools {
		if ts.Validation == nil {
			t.Fatalf("%s: no validation results", ts.Tool)
		}
		for _, r := range ts.Races {
			if block := "  " + r.Description + "\n  repro: " + r.Repro.Command() + "\n"; strings.Count(out, block) != 1 {
				t.Errorf("%s race %s: its description and repro appear %d time(s), want 1", ts.Tool, r.Key, strings.Count(out, block))
			}
			want++
		}
		for _, f := range ts.Findings {
			if block := f.Description + fmt.Sprintf(" (×%d)\n    repro: ", f.Count) + f.Repro.Command() + "\n"; strings.Count(out, block) != 1 {
				t.Errorf("%s finding %s: its description and repro appear %d time(s), want 1", ts.Tool, f.Key, strings.Count(out, block))
			}
			want++
		}
	}
	for _, c := range man.Captures {
		if c.File == "" {
			want++
		}
	}
	if sum.Tools[0].Races == nil || len(sum.Tools[0].Findings) == 0 {
		t.Fatalf("campaign has %d race(s) and %d finding(s), want both", len(sum.Tools[0].Races), len(sum.Tools[0].Findings))
	}
	if got := strings.Count(out, "repro: go run ./cmd/c11tester "); got != want {
		t.Errorf("report prints %d campaign repro line(s), want %d (one per race, finding and trace-less record entry):\n%s", got, want, out)
	}
}

// TestFailedVerdictCarriesRepros pins the headline of a failed campaign: the
// verdict counts every kind of failure and is followed by each failure's
// repro line. The report's soundness section prints the same lines, and an
// unexpected litmus race appears there alone, not in the race timeline.
func TestFailedVerdictCarriesRepros(t *testing.T) {
	repro := func(program string, litmus bool, seed int64) harness.Repro {
		return harness.Repro{Tool: "tsan11", Program: program, Litmus: litmus, Seed: seed}
	}
	forbidden := ForbiddenOutcome{Test: "CoRR+opposed", Outcome: "21", Count: 3, Repro: repro("CoRR+opposed", true, 7)}
	unexpected := harness.RaceSummary{Key: "x", Description: "race on x", Repro: repro("MP+rlx", true, 4)}
	failure := EngineFailure{Error: "infeasible: no candidate", Repro: repro("ms-queue", false, 9)}
	sum := &Summary{
		Spec: SpecInfo{Tools: []string{"tsan11"}, Litmus: []string{"CoRR+opposed"}, Runs: 10},
		Tools: []ToolSummary{{
			Tool:            "tsan11",
			Validation:      &ValidationSummary{Checked: 9, Violations: 1, Samples: []string{"tsan11/CoRR+opposed seed 8: coherence"}},
			EngineFailures:  2,
			FailureSamples:  []EngineFailure{failure},
			UnexpectedRaces: []harness.RaceSummary{unexpected},
			Litmus:          []LitmusSummary{{Test: "CoRR+opposed", ForbiddenSeen: []ForbiddenOutcome{forbidden}}},
		}},
	}
	lines := []string{
		"soundness: FAILED — 1 forbidden outcome(s), 1 unexpected race(s), 1 axiom violation(s), 2 engine failure(s)\n",
		"  FORBIDDEN OUTCOME CoRR+opposed=\"21\" ×3\n    repro: " + forbidden.Repro.Command() + "\n",
		"  UNEXPECTED RACE in litmus program: race on x\n    repro: " + unexpected.Repro.Command() + "\n",
		"  tsan11: ENGINE FAILURE: infeasible: no candidate\n    repro: " + failure.Repro.Command() + "\n",
		"  tsan11: VIOLATION tsan11/CoRR+opposed seed 8: coherence\n",
	}
	var report bytes.Buffer
	WriteReport(&report, sum, nil, "")
	for name, text := range map[string]string{"headline": sum.String(), "report": report.String()} {
		for _, want := range lines {
			if n := strings.Count(text, want); n != 1 {
				t.Errorf("%s holds %q %d time(s), want 1:\n%s", name, want, n, text)
			}
		}
	}
	if strings.Contains(report.String(), "race timeline (") {
		t.Errorf("an unexpected litmus race was put in the race timeline:\n%s", report.String())
	}
}

// TestReportFromArtifactIdentity pins that the artifact is the whole
// campaign: the report WriteReport renders from a run's live summary equals,
// byte for byte, the one rendered from its written and loaded artifact, for
// the duty shape, the converge shape and a 3-shard merge. It also pins the
// partial marker: a mid-run artifact and a shard artifact render as
// partial, a complete one does not.
func TestReportFromArtifactIdentity(t *testing.T) {
	report := func(sum *Summary) string {
		var b bytes.Buffer
		WriteReport(&b, sum, nil, "")
		return b.String()
	}
	loaded := func(path string) string {
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return report(ck.Summarize())
	}
	identical := func(name string, spec Spec) {
		t.Helper()
		spec.CheckpointPath = filepath.Join(t.TempDir(), name+".json")
		live := report(Run(spec))
		if got := loaded(spec.CheckpointPath); got != live {
			t.Errorf("%s: the artifact's report differs from the live summary's:\nartifact:\n%s\nlive:\n%s", name, got, live)
		}
		if strings.Contains(live, "\npartial: ") {
			t.Errorf("%s: a complete campaign's report is marked partial:\n%s", name, live)
		}
	}

	benches, err := SelectBenchmarks("all,atomic-counter")
	if err != nil {
		t.Fatal(err)
	}
	litmusAll, err := SelectLitmus("all")
	if err != nil {
		t.Fatal(err)
	}
	identical("duty", Spec{
		Tools: []ToolSpec{mustTool(t, "c11tester", ToolOptions{})}, Benchmarks: benches, Litmus: litmusAll,
		Runs: 20, SeedBase: 1, Workers: 2, ValidateAxioms: true, Analyzers: ParseAnalyzers("all"),
		RecordDir: t.TempDir(),
	})

	converge := func(workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue"), benchSpec(t, "seqlock")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rel+acq"), mustLitmus(t, "SB+sc")},
			Runs:       400, SeedBase: 1, Workers: workers,
			Policy: &explore.Converge{},
		}
	}
	identical("converge", converge(2))

	shards := func(workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{}), mustTool(t, "tsan11", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
			Runs:       60, SeedBase: 31, Workers: workers, Analyzers: ParseAnalyzers("all"),
		}
	}
	parts, cks := runShards(t, shards, 3)
	merged, err := MergeCheckpoints(cks)
	if err != nil {
		t.Fatal(err)
	}
	spec := shards(1)
	spec.Resume = merged
	identical("merge", spec)

	// A shard's artifact is its partial.
	shardReport := report(cks[1].Summarize())
	if !strings.Contains(shardReport, "\npartial: shard 1/3 ") || report(parts[1]) != shardReport {
		t.Errorf("a shard artifact's report lacks the partial marker, or differs from the shard's live one:\n%s", shardReport)
	}
	// So is the artifact of a barrier that more waves follow.
	var mid []*Checkpoint
	spec = converge(2)
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	spec.checkpointHook = func(c *Checkpoint) {
		if !c.Complete {
			mid = append(mid, deepCopy(t, c))
		}
	}
	Run(spec)
	if len(mid) == 0 {
		t.Fatal("the converge campaign wrote no mid-run artifact")
	}
	if got := report(mid[0].Summarize()); !strings.Contains(got, "\npartial: stopped after wave 1: ") {
		t.Errorf("a mid-run artifact's report lacks the partial marker:\n%s", got)
	}
}
