package campaign

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"c11tester/internal/analysis"
	"c11tester/internal/capi"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
)

// analyzerSpec builds the matrix the analyzer-pipeline tests run: one cell
// seeded for the atomicity monitor (atomic-counter), one for SC-robustness
// (the store-buffering litmus test, whose weak outcome is not
// SC-explainable), plus a race cell to check the analyzers do not perturb
// the classic duties.
func analyzerSpec(t *testing.T, workers int) Spec {
	return Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "atomic-counter"), benchSpec(t, "ms-queue")},
		Litmus:     []*litmus.Test{mustLitmus(t, "SB+rlx")},
		Runs:       60,
		SeedBase:   1,
		Workers:    workers,
		ShardSize:  7,
		Analyzers:  []string{"atomicity", "sc-robustness"},
	}
}

// TestAnalyzerFindingsEndToEnd is the analyzer acceptance criterion: the
// SC-robustness analyzer must flag a non-SC execution on a store-buffering
// litmus cell, the atomicity analyzer must report a violation on the seeded
// lost-update workload, and each finding's repro triple must reproduce the
// finding when replayed as a single-seed campaign.
func TestAnalyzerFindingsEndToEnd(t *testing.T) {
	sum := Run(analyzerSpec(t, 2))
	ts := sum.Tools[0]

	// Rollups appear per requested analyzer, in request order.
	if len(ts.Analyzers) != 2 || ts.Analyzers[0].Analyzer != "atomicity" || ts.Analyzers[1].Analyzer != "sc-robustness" {
		t.Fatalf("analyzer rollups = %+v, want [atomicity sc-robustness]", ts.Analyzers)
	}
	for _, as := range ts.Analyzers {
		if as.Distinct == 0 || as.Count == 0 {
			t.Errorf("analyzer %s found nothing (%+v); the seeded cells must trigger it", as.Analyzer, as)
		}
	}

	byKey := map[string]FindingSummary{}
	for _, f := range ts.Findings {
		byKey[f.Analyzer+"/"+f.Program+"/"+f.Key] = f
	}
	atom, ok := byKey["atomicity/atomic-counter/block/counter.increment"]
	if !ok {
		t.Fatalf("no atomicity finding for the seeded block (have %v)", keys(byKey))
	}
	sc, ok := byKey["sc-robustness/SB+rlx/outcome/r1=0 r2=0"]
	if !ok {
		t.Fatalf("no sc-robustness finding for the SB weak outcome (have %v)", keys(byKey))
	}
	if !sc.Litmus {
		t.Error("SB+rlx finding not marked as a litmus finding")
	}
	if !strings.Contains(sc.Description, "not SC-explainable") {
		t.Errorf("sc finding description = %q", sc.Description)
	}

	// The analyzers must not perturb the classic duties: ms-queue's
	// unconditional race is still detected every run, and no analyzer flags
	// it (its increments are not inside marked blocks).
	msq := ts.Benchmarks[1]
	if msq.Detection.Detected != msq.Detection.Runs {
		t.Errorf("ms-queue detection = %d/%d with analyzers on, want 100%%",
			msq.Detection.Detected, msq.Detection.Runs)
	}
	for _, f := range ts.Findings {
		if f.Program == "ms-queue" && f.Analyzer == "atomicity" {
			t.Errorf("atomicity flagged unannotated program: %+v", f)
		}
	}

	// Close the repro loop: replay each finding's (tool, program, seed) with
	// only that analyzer, and the same finding key must reappear.
	for _, f := range []FindingSummary{atom, sc} {
		if !strings.Contains(f.Repro.Flags, "-analyzers "+f.Analyzer) {
			t.Fatalf("repro flags %q do not select analyzer %s", f.Repro.Flags, f.Analyzer)
		}
		spec := Spec{
			Tools:     []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Runs:      1,
			SeedBase:  f.Repro.Seed,
			Analyzers: []string{f.Analyzer},
		}
		if f.Litmus {
			spec.Litmus = []*litmus.Test{mustLitmus(t, f.Program)}
		} else {
			spec.Benchmarks = []BenchmarkSpec{benchSpec(t, f.Program)}
		}
		replay := Run(spec)
		found := false
		for _, rf := range replay.Tools[0].Findings {
			if rf.Analyzer == f.Analyzer && rf.Key == f.Key {
				found = true
			}
		}
		if !found {
			t.Errorf("repro %q did not reproduce finding %s/%s: %+v",
				f.Repro.Command(), f.Analyzer, f.Key, replay.Tools[0].Findings)
		}
	}
}

func keys(m map[string]FindingSummary) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestAnalyzerDeterminismUnderSharding extends the campaign determinism
// guarantee to the analyzer pipeline: per-analyzer findings (keys, counts,
// descriptions, repro seeds) must be byte-identical between workers=1 and
// workers=4.
func TestAnalyzerDeterminismUnderSharding(t *testing.T) {
	serial := canonicalize(Run(analyzerSpec(t, 1)))
	sharded := canonicalize(Run(analyzerSpec(t, 4)))
	if !reflect.DeepEqual(serial.Tools[0].Findings, sharded.Tools[0].Findings) {
		t.Errorf("findings differ between workers=1 and workers=4:\nserial:  %+v\nsharded: %+v",
			serial.Tools[0].Findings, sharded.Tools[0].Findings)
	}
	if got, want := canonicalJSON(t, Run(analyzerSpec(t, 4))), canonicalJSON(t, Run(analyzerSpec(t, 1))); got != want {
		t.Fatalf("summaries differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s", want, got)
	}
	if len(serial.Tools[0].Findings) == 0 {
		t.Fatal("determinism test ran with no findings; the seeded cells must trigger the analyzers")
	}
}

// TestValidationSharesItsLift pins the one-lift pipeline: with validation
// on, the analyzers observe the execution validation lifted into the
// worker's workspace, and their findings must equal those of a campaign
// whose analyzer stage lifts for itself.
func TestValidationSharesItsLift(t *testing.T) {
	own := canonicalize(Run(analyzerSpec(t, 1)))
	spec := analyzerSpec(t, 4)
	spec.ValidateAxioms = true
	shared := canonicalize(Run(spec))
	if val := shared.Tools[0].Validation; val == nil || val.Checked != 3*spec.Runs || val.Violations != 0 {
		t.Fatalf("validation = %+v, want %d clean checks", val, 3*spec.Runs)
	}
	if !reflect.DeepEqual(own.Tools[0].Findings, shared.Tools[0].Findings) {
		t.Errorf("findings differ when validation shares its lift:\nown lift: %+v\nshared:   %+v",
			own.Tools[0].Findings, shared.Tools[0].Findings)
	}
}

// TestAnalyzerShardMergeByteIdentical is the shard-merge satellite: cutting
// an analyzer campaign into three shards and resuming from their checkpoints
// must fold per-analyzer finding sets with the same min-by-(cell, seed)
// winner algebra as races — byte-identical to the single-machine run.
func TestAnalyzerShardMergeByteIdentical(t *testing.T) {
	single := Run(analyzerSpec(t, 1))
	if len(single.Tools[0].Findings) == 0 {
		t.Fatal("merge test ran with no findings; the seeded cells must trigger the analyzers")
	}

	_, cks := runShards(t, func(workers int) Spec { return analyzerSpec(t, workers) }, 3)
	merged := resumeMerged(t, analyzerSpec(t, 1), []*Checkpoint{cks[1], cks[2], cks[0]})
	if got, want := canonicalJSON(t, merged), canonicalJSON(t, single); got != want {
		t.Fatalf("merged analyzer findings differ from single-machine run:\nmerged: %s\nsingle: %s", got, want)
	}
}

// TestCheckpointRoundTripsFindings pins the fragment's own encoding, the
// form the artifact carries: a fragment with every field set
// survives a JSON encode/decode cycle unchanged. A field left untagged
// survives too, but one tagged "-" or unexported comes back zero and fails
// here. The one field the encoding leaves out is Captures: the record
// manifest holds the entries, and the encoding their counts. Finding ids
// encode as "analyzer/key" and split at the first "/", so keys that contain
// one round-trip.
func TestCheckpointRoundTripsFindings(t *testing.T) {
	h := blankHists
	h.ExecNS.Observe(2000)
	h.Counts = LayerCounts{Resumes: 30, RaceChecks: 31, Blocked: 32, Yields: 33}
	for p := range h.PhaseNS {
		h.PhaseNS[p].Observe(uint64(1000 * (p + 1)))
	}
	h.SchedLen.Observe(40)
	h.Choices.Observe(9)
	f := fragment{
		Execs: 9, Detected: 4,
		Ops:      capi.OpStats{AtomicOps: 11, NormalOps: 12},
		Elapsed:  13 * time.Microsecond,
		Races:    map[string]raceHit{"race/a": {desc: "r", Run: 3}},
		Outcomes: map[string]int{"r0=0": 5}, Forbidden: map[string]int{"r0=1": 2},
		Weak:   map[string]int{"r0=0": 1},
		Failed: 1, Failures: []execFailure{{Run: 4, Err: "infeasible"}},
		GuideTraces: 2, GuidedExecs: 3, PrefixDepth: 14, PrefixConsumed: 15, Divergences: 1,
		Checked: 6, Skipped: 1, Violations: 1,
		VioSamples: []execFailure{{Run: 5, Err: "cycle"}},
		Findings: map[findingID]findingHit{
			{analyzer: "atomicity", key: "block/b"}:    {desc: "d1", Run: 7, Count: 3},
			{analyzer: "sc-robustness", key: "non-sc"}: {desc: "d2", Run: 2, Count: 1},
		},
		Captures: []obs.CaptureRecord{{Tool: "c11tester", Program: "p", Seed: 8, Index: 7, Trigger: "race"}},
		Recorded: 1, RecordErrors: 2,
		Hists: &h,
	}
	v := reflect.ValueOf(f)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fragment.%s is zero: set it so the round trip covers it", v.Type().Field(i).Name)
		}
	}
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var back fragment
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	want := f
	want.Captures = nil
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("fragment did not round-trip through %s:\ngot  %+v\nwant %+v", data, back, want)
	}
}

func mkFindingSummary(analyzers []string, findings ...FindingSummary) *Summary {
	return &Summary{
		Spec: SpecInfo{Analyzers: analyzers},
		Tools: []ToolSummary{{
			Tool: "c11tester", ExecsPerSec: 1000, Findings: findings,
		}},
	}
}

// TestCompareFindings covers the compare leg: gained findings are reported,
// lost findings regress, and the deltas are gated on both artifacts having
// run the same analyzer set.
func TestCompareFindings(t *testing.T) {
	an := []string{"atomicity"}
	fa := FindingSummary{Analyzer: "atomicity", Program: "p", Key: "block/a"}
	fb := FindingSummary{Analyzer: "atomicity", Program: "q", Litmus: true, Key: "block/b"}

	c := Compare(mkFindingSummary(an, fa), mkFindingSummary(an, fa, fb))
	if got := c.Tools[0].NewFindingKeys; len(got) != 1 || got[0] != "atomicity litmus/q block/b" {
		t.Errorf("new finding keys = %v", got)
	}
	if c.Regressed() {
		t.Error("a gained finding must not regress")
	}

	c = Compare(mkFindingSummary(an, fa, fb), mkFindingSummary(an, fb))
	if got := c.Tools[0].LostFindingKeys; len(got) != 1 || got[0] != "atomicity p block/a" {
		t.Errorf("lost finding keys = %v", got)
	}
	if !c.Regressed() {
		t.Error("a lost finding must count as a regression")
	}
	if !strings.Contains(c.String(), "LOST analyzer finding") {
		t.Errorf("comparison text missing the lost-finding line:\n%s", c)
	}

	// Different (or absent) analyzer sets: finding deltas are meaningless
	// and must not be computed.
	c = Compare(mkFindingSummary([]string{"sc-robustness"}, fa), mkFindingSummary(an))
	if len(c.Tools[0].LostFindingKeys) != 0 {
		t.Errorf("finding deltas computed across differing analyzer sets: %v", c.Tools[0].LostFindingKeys)
	}
	c = Compare(mkFindingSummary(nil), mkFindingSummary(nil))
	if len(c.Tools[0].NewFindingKeys) != 0 || c.Regressed() {
		t.Error("empty analyzer sets must not produce finding deltas")
	}
}

// TestParseAnalyzers covers the CLI selector and Spec.Validate's analyzer
// checks.
func TestParseAnalyzers(t *testing.T) {
	if got := ParseAnalyzers(""); got != nil {
		t.Errorf("ParseAnalyzers(\"\") = %v, want nil", got)
	}
	if got := ParseAnalyzers("none"); got != nil {
		t.Errorf("ParseAnalyzers(none) = %v, want nil", got)
	}
	if got := ParseAnalyzers("all"); !reflect.DeepEqual(got, analysis.Names()) {
		t.Errorf("ParseAnalyzers(all) = %v, want %v", got, analysis.Names())
	}
	if got := ParseAnalyzers("atomicity"); !reflect.DeepEqual(got, []string{"atomicity"}) {
		t.Errorf("ParseAnalyzers(atomicity) = %v", got)
	}

	base := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:       1,
	}
	good := base
	good.Analyzers = analysis.Names()
	if err := good.Validate(); err != nil {
		t.Errorf("valid analyzer set rejected: %v", err)
	}
	bad := base
	bad.Analyzers = []string{"nope"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown analyzer name accepted")
	}
	dup := base
	dup.Analyzers = []string{"atomicity", "atomicity"}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate analyzer name accepted")
	}
}
