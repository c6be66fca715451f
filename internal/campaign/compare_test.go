package campaign

import (
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/harness"
)

func mkSummary(execsPerSec float64, ratePct float64, raceKeys ...string) *Summary {
	var races []harness.RaceSummary
	for _, k := range raceKeys {
		races = append(races, harness.RaceSummary{Key: k})
	}
	return &Summary{
		Tools: []ToolSummary{{
			Tool: "c11tester", ExecsPerSec: execsPerSec, Races: races,
			Benchmarks: []CellSummary{{
				Program:   "ms-queue",
				Detection: harness.DetectionSummary{Runs: 100, RatePct: ratePct},
			}},
		}},
	}
}

func TestCompareDetectsMovement(t *testing.T) {
	old := mkSummary(1000, 80, "a/x/y", "b/x/y")
	new := mkSummary(2000, 95, "a/x/y", "c/x/y")

	c := Compare(old, new)
	if len(c.Tools) != 1 {
		t.Fatalf("matched %d tools, want 1", len(c.Tools))
	}
	td := c.Tools[0]
	if td.ThroughputRatio != 2 {
		t.Errorf("throughput ratio = %v, want 2", td.ThroughputRatio)
	}
	if len(td.NewRaceKeys) != 1 || td.NewRaceKeys[0] != "c/x/y" {
		t.Errorf("new race keys = %v", td.NewRaceKeys)
	}
	if len(td.LostRaceKeys) != 1 || td.LostRaceKeys[0] != "b/x/y" {
		t.Errorf("lost race keys = %v", td.LostRaceKeys)
	}
	if len(td.Detection) != 1 || td.Detection[0].DeltaPct != 15 {
		t.Errorf("detection delta = %+v", td.Detection)
	}
	if !c.Regressed() {
		t.Error("a lost race key must count as a regression")
	}
	text := c.String()
	for _, want := range []string{"2.00×", "LOST race key b/x/y", "NEW race key c/x/y", "ms-queue"} {
		if !strings.Contains(text, want) {
			t.Errorf("comparison text missing %q:\n%s", want, text)
		}
	}

	// No movement → no regression.
	if Compare(old, old).Regressed() {
		t.Error("identical artifacts must not regress")
	}
}

func TestCompareRoundTripsThroughDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.json")
	sum := Run(Spec{
		Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks:     []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:           5,
		SeedBase:       7,
		CheckpointPath: path,
	})
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	c := Compare(ck.Summarize(), sum)
	if c.Regressed() {
		t.Errorf("self-comparison regressed:\n%s", c)
	}
	if len(c.Tools) != 1 || c.Tools[0].ThroughputRatio == 0 {
		t.Errorf("self-comparison lost the tool: %+v", c.Tools)
	}
}

func mkLitmusSummary(weakSeen []string, validation *ValidationSummary) *Summary {
	return &Summary{
		Tools: []ToolSummary{{
			Tool: "c11tester",
			Litmus: []LitmusSummary{{
				Test: "MP+rlx", WeakSeen: weakSeen, WeakDefined: 2,
			}},
			Validation: validation,
		}},
	}
}

func TestCompareWeakOutcomeCoverage(t *testing.T) {
	old := mkLitmusSummary([]string{"r1=1 r2=0", "r1=2 r2=0"}, nil)
	new := mkLitmusSummary([]string{"r1=1 r2=0"}, nil)

	c := Compare(old, new)
	if len(c.Tools) != 1 || len(c.Tools[0].Litmus) != 1 {
		t.Fatalf("litmus deltas = %+v", c.Tools)
	}
	ld := c.Tools[0].Litmus[0]
	if ld.OldWeak != 2 || ld.NewWeak != 1 {
		t.Errorf("weak counts %d → %d, want 2 → 1", ld.OldWeak, ld.NewWeak)
	}
	if len(ld.LostOutcomes) != 1 || ld.LostOutcomes[0] != "r1=2 r2=0" {
		t.Errorf("lost outcomes = %v", ld.LostOutcomes)
	}
	if !c.Regressed() {
		t.Error("lost weak-outcome coverage must count as a regression")
	}
	if !strings.Contains(c.String(), `LOST weak outcome MP+rlx="r1=2 r2=0"`) {
		t.Errorf("report missing lost-outcome line:\n%s", c.String())
	}

	// Gained coverage is movement, not regression.
	c = Compare(new, old)
	if c.Regressed() {
		t.Error("gained coverage must not regress")
	}
	if len(c.Tools[0].Litmus) != 1 || len(c.Tools[0].Litmus[0].GainedOutcomes) != 1 {
		t.Errorf("gained outcomes not reported: %+v", c.Tools[0].Litmus)
	}

	// Identical coverage produces no delta entries at all.
	if ls := Compare(old, old).Tools[0].Litmus; len(ls) != 0 {
		t.Errorf("identical coverage produced deltas: %+v", ls)
	}
}

func TestCompareValidationCounts(t *testing.T) {
	old := mkLitmusSummary([]string{"r1=1 r2=0"}, &ValidationSummary{Checked: 100, Violations: 0})
	new := mkLitmusSummary([]string{"r1=1 r2=0"}, &ValidationSummary{Checked: 100, Violations: 2})

	c := Compare(old, new)
	v := c.Tools[0].Validation
	if v == nil || v.OldViolations != 0 || v.NewViolations != 2 {
		t.Fatalf("validation delta = %+v", v)
	}
	if !c.Regressed() {
		t.Error("new axiom violations must count as a regression")
	}
	if !strings.Contains(c.String(), "violations 0 → 2") {
		t.Errorf("report missing validation line:\n%s", c.String())
	}
	if Compare(old, old).Regressed() {
		t.Error("stable validation must not regress")
	}

	// Validation present on only one side → no delta, no false regression.
	if d := Compare(mkLitmusSummary(nil, nil), new); d.Tools[0].Validation != nil {
		t.Errorf("one-sided validation produced a delta: %+v", d.Tools[0].Validation)
	}
}

// TestCompareReportsSpecSkew pins that comparing artifacts of different
// campaigns — a 30-run against a 300-run artifact, say — is flagged first in
// the report, field by field, without gating Regressed.
func TestCompareReportsSpecSkew(t *testing.T) {
	old := mkSummary(1000, 80, "a/x/y")
	new := mkSummary(1000, 80, "a/x/y")
	old.Spec = SpecInfo{Tools: []string{"c11tester"}, Benchmarks: []string{"ms-queue"}, Litmus: []string{},
		Runs: 30, SeedBase: 1, Workers: 1, ShardSize: 25, Policy: "uniform"}
	new.Spec = old.Spec
	if c := Compare(old, new); len(c.SpecSkew) != 0 {
		t.Fatalf("identical specs report skew %v", c.SpecSkew)
	}
	new.Spec.Workers = 4 // not outcome-affecting
	new.Spec.Runs = 300
	new.Spec.Litmus = []string{"MP+rlx"}
	new.Spec.Validate = true
	c := Compare(old, new)
	want := []string{"runs: 30 → 300", "litmus: [] → [MP+rlx]", "validate: false → true"}
	if strings.Join(c.SpecSkew, "|") != strings.Join(want, "|") {
		t.Fatalf("spec skew = %q, want %q", c.SpecSkew, want)
	}
	if c.Regressed() {
		t.Error("spec skew alone must not count as a regression")
	}
	text := c.String()
	first := strings.Index(text, "WARNING: campaign spec skew: runs: 30 → 300")
	if first < 0 || first > strings.Index(text, "execs/sec old") {
		t.Errorf("spec skew not printed first:\n%s", text)
	}
}

// TestCompareListsMovedCounts pins the layer-count leg of the comparison: a
// cell whose counts moved is listed with both sides, a cell whose counts
// held or that lacks them on one side (it observed nothing) is not, and the
// movement never counts as a regression.
func TestCompareListsMovedCounts(t *testing.T) {
	old := mkSummary(1000, 80, "a/x/y")
	new := mkSummary(1000, 80, "a/x/y")
	if d := Compare(old, new).Tools[0].Counts; len(d) != 0 {
		t.Fatalf("artifacts without counts list movement %+v", d)
	}
	oh := blankHists
	oh.Counts = LayerCounts{Resumes: 700, RaceChecks: 1200, Blocked: 3, Yields: 40}
	old.Tools[0].Benchmarks[0].Hists = &oh
	if d := Compare(old, new).Tools[0].Counts; len(d) != 0 {
		t.Fatalf("one-sided counts list movement %+v", d)
	}
	nh := oh
	nh.Counts.Yields = 25
	moved := nh.Counts
	new.Tools[0].Benchmarks[0].Hists = &nh
	c := Compare(old, new)
	d := c.Tools[0].Counts
	if len(d) != 1 || d[0].Program != "ms-queue" || d[0].Old.Yields != 40 || d[0].New != moved {
		t.Fatalf("counts movement = %+v, want ms-queue's yields 40 → 25", d)
	}
	if c.Regressed() {
		t.Error("count movement alone must not count as a regression")
	}
	if text := c.String(); !strings.Contains(text, "layer-count movement (report-only):") || !strings.Contains(text, "40 → 25") {
		t.Errorf("report lacks the moved counts:\n%s", text)
	}
	if d := Compare(old, old).Tools[0].Counts; len(d) != 0 {
		t.Errorf("identical counts list movement %+v", d)
	}
}

// TestCompareToolP99FoldsCells pins the p99 leg of the comparison: a tool's
// p99 is the quantile of its cells' execution-time histograms folded with
// Add, cells without a timing sample are skipped (so an empty histogram of
// another base, which Add would refuse, never reaches it), and a tool with
// no sample at all reports 0.
func TestCompareToolP99FoldsCells(t *testing.T) {
	timed := func(vals ...uint64) *hists {
		h := blankHists
		for _, v := range vals {
			h.ExecNS.Observe(v)
		}
		return &h
	}
	sum := mkSummary(1000, 80)
	ts := &sum.Tools[0]
	ts.Benchmarks = []CellSummary{
		{Program: "a", Hists: timed(2000, 3000)},
		{Program: "b"},                                                 // observed nothing
		{Program: "c", Hists: timed()},                                 // no timing sample
		{Program: "d", Hists: &hists{Counts: LayerCounts{Resumes: 1}}}, // no base
		{Program: "e", Hists: timed(500_000)},
	}
	ts.Litmus = []LitmusSummary{{Test: "SB", Hists: timed(4000)}}
	want := timed(2000, 3000, 500_000, 4000).ExecNS.Quantile(0.99)
	if want == 0 {
		t.Fatal("reference fold has no p99")
	}
	if got := toolP99(ts); got != want {
		t.Errorf("toolP99 = %d, want %d (the fold of the timed cells)", got, want)
	}
	d := Compare(sum, sum).Tools[0]
	if d.OldP99NS != want || d.NewP99NS != want {
		t.Errorf("compared p99 = %d → %d, want %d on both sides", d.OldP99NS, d.NewP99NS, want)
	}
	if text := Compare(sum, sum).String(); !strings.Contains(text, "p99 ns/exec") {
		t.Errorf("report lacks the p99 line:\n%s", text)
	}
	if got := toolP99(&mkSummary(1000, 80).Tools[0]); got != 0 {
		t.Errorf("toolP99 without samples = %d, want 0", got)
	}
}
