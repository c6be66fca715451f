package campaign

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/explore"
	"c11tester/internal/harness"
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
	WriteReport(&buf, sum, man, ReportOptions{TopSlow: 3, RecordDir: dir})
	out := buf.String()
	for _, want := range []string{
		"campaign forensics report (schema v",
		"matrix: 2 tool(s)",
		"build: go",
		"top 3 cell(s) by p99 ns/exec:",
		"race timeline (",
		"convergence curves (",
		"record index (",
		"repro: go run ./cmd/c11trace replay ",
		"litmus outcome histograms:",
		"phase breakdown (mean)",
		"reset ",
		" of ", // the phase means' sample size, "(n=… of …)"
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
	WriteReport(&buf, sum, nil, ReportOptions{TopSlow: 2})
	out := buf.String()
	for _, want := range []string{"top 2 cell(s) by p99 ns/exec:", "race timeline (", "convergence curves ("} {
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
// race key), unexpected litmus races included, sorted by (seed, tool, key);
// the curves are sorted by (tool, program), one line per point in wave
// order; a uniform cell (no budget) has no curve.
func TestRaceTimelineAndCurvesFromSummary(t *testing.T) {
	race := func(key, program string, seed int64) harness.RaceSummary {
		return harness.RaceSummary{Key: key, Repro: harness.Repro{Program: program, Seed: seed}}
	}
	sum := &Summary{Tools: []ToolSummary{
		{
			Tool:            "tsan11",
			Races:           []harness.RaceSummary{race("q.b", "ms-queue", 12), race("q.a", "ms-queue", 12)},
			UnexpectedRaces: []harness.RaceSummary{race("x", "MP+rlx", 3)},
			Benchmarks:      []CellSummary{{Program: "ms-queue"}},
		},
		{
			Tool:  "c11tester",
			Races: []harness.RaceSummary{race("q.b", "ms-queue", 12), race("s.v", "seqlock", 40)},
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
race timeline (5 distinct race(s)):
seed  tool       program   race key
----  ---------  --------  --------
3     tsan11     MP+rlx    x       
12    c11tester  ms-queue  q.b     
12    tsan11     ms-queue  q.a     
12    tsan11     ms-queue  q.b     
40    c11tester  seqlock   s.v     

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
	got := phaseBreakdown(map[string]*obs.HistogramSnapshot{
		"reset":  {Count: 2, Sum: 2000},
		"run":    {Count: 2, Sum: 18000},
		"record": {Count: 1, Sum: 5000},
	}, 30)
	if want := "reset 1.0µs  run 9.0µs  record 5.0µs (n=2 of 30)"; got != want {
		t.Errorf("phaseBreakdown = %q, want %q", got, want)
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
