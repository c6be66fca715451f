package campaign

import (
	"encoding/json"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
)

// convergeSpec is a matrix whose every cell converges under the default
// Converge parameter: ms-queue races unconditionally, seqlock's rate is
// stable, and the two litmus tests have small, quickly-saturated outcome
// histograms. Runs is well above the default L = 150, the floor below which
// no cell can stop early.
func convergeSpec(t *testing.T, workers, shardSize int, policy *explore.Converge) Spec {
	return Spec{
		Tools: []ToolSpec{
			mustTool(t, "c11tester", ToolOptions{}),
			mustTool(t, "tsan11", ToolOptions{}),
		},
		Benchmarks: []BenchmarkSpec{
			benchSpec(t, "ms-queue"),
			benchSpec(t, "seqlock"),
		},
		Litmus: []*litmus.Test{
			mustLitmus(t, "MP+rel+acq"),
			mustLitmus(t, "SB+sc"),
		},
		Runs:      1000,
		SeedBase:  1,
		Workers:   workers,
		ShardSize: shardSize,
		Policy:    policy,
	}
}

// convergeFinds lists everything a campaign found: each tool's race keys
// per benchmark and its outcomes per litmus test.
func convergeFinds(sum *Summary) map[string]bool {
	found := map[string]bool{}
	for _, ts := range sum.Tools {
		for _, b := range ts.Benchmarks {
			for _, k := range b.RaceKeys {
				found[ts.Tool+" "+b.Program+" race "+k] = true
			}
		}
		for _, l := range ts.Litmus {
			for o := range l.Outcomes {
				found[ts.Tool+" "+l.Test+" outcome "+o] = true
			}
		}
	}
	return found
}

// TestConvergeKeepsUniformFinds is the regression test for a converge
// policy that stopped cells after 10 quiet executions: on this matrix it
// lost tsan11's msq.len/na-load/na-store at seed bases 1000, 6000 and 7000,
// and c11tester's SB+sc outcome "r1=1 r2=0" at 9000. With the L = ⌈3/ε⌉ run,
// converge must keep every race key and litmus outcome uniform finds.
func TestConvergeKeepsUniformFinds(t *testing.T) {
	for _, seed := range []int64{1000, 6000, 7000, 9000} {
		spec := convergeSpec(t, 2, 0, nil)
		spec.Runs, spec.SeedBase = 500, seed
		uniform := convergeFinds(Run(spec))
		spec.Policy = &explore.Converge{}
		adaptive := convergeFinds(Run(spec))
		for k := range uniform {
			if !adaptive[k] {
				t.Errorf("seed base %d: converge lost %s", seed, k)
			}
		}
	}
}

// TestConvergeDeterminismUnderSharding extends the campaign determinism
// guarantee to adaptive budgets: a Converge-policy campaign must aggregate
// identically on one worker and on four.
func TestConvergeDeterminismUnderSharding(t *testing.T) {
	serial := canonicalize(Run(convergeSpec(t, 1, 60, &explore.Converge{})))
	sharded := canonicalize(Run(convergeSpec(t, 4, 7, &explore.Converge{})))

	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("converge campaign aggregates differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s", sj, pj)
	}
}

// TestConvergeReproducesUniformVerdictsAtLowerBudget is the adaptive-budget
// acceptance test: on a matrix whose cells all converge, the Converge policy
// must reproduce the uniform campaign's race set and forbidden-outcome
// verdicts with at most 60% of the executions.
func TestConvergeReproducesUniformVerdictsAtLowerBudget(t *testing.T) {
	uniform := Run(convergeSpec(t, 2, 0, nil))
	adaptive := Run(convergeSpec(t, 2, 0, &explore.Converge{}))

	var uniExecs, adExecs int
	for i := range uniform.Tools {
		ut, at := uniform.Tools[i], adaptive.Tools[i]
		uniExecs += ut.Execs
		adExecs += at.Execs

		// Same deduplicated race set per tool.
		keys := func(ts ToolSummary) []string {
			var ks []string
			for _, r := range ts.Races {
				ks = append(ks, r.Key)
			}
			return ks
		}
		uk, ak := keys(ut), keys(at)
		if strings.Join(uk, "|") != strings.Join(ak, "|") {
			t.Errorf("%s: race sets differ: uniform %v, converge %v", ut.Tool, uk, ak)
		}
	}
	// Every litmus outcome uniform saw.
	af := convergeFinds(adaptive)
	for k := range convergeFinds(uniform) {
		if !af[k] {
			t.Errorf("converge lost %s", k)
		}
	}
	// Same forbidden-outcome verdict (none, for a sound model).
	if uf, af := len(uniform.Forbidden()), len(adaptive.Forbidden()); uf != af {
		t.Errorf("forbidden verdicts differ: uniform %d, converge %d", uf, af)
	}
	if adaptive.Failed() != uniform.Failed() {
		t.Errorf("failure verdicts differ: uniform %v, converge %v", uniform.Failed(), adaptive.Failed())
	}

	if adExecs*10 > uniExecs*6 {
		t.Errorf("converge campaign used %d executions, want ≤ 60%% of uniform's %d", adExecs, uniExecs)
	}

	// The budget accounting must agree with the throughput counters and mark
	// every cell converged.
	used, planned, converged, cells, ok := adaptive.BudgetReport()
	if !ok || used != adExecs || planned != uniExecs {
		t.Errorf("BudgetReport() = (%d, %d, ok=%v), want (%d, %d, true)", used, planned, ok, adExecs, uniExecs)
	}
	if converged != cells {
		t.Errorf("%d of %d cells converged, want all", converged, cells)
	}
	if uniform.Tools[0].Benchmarks[0].Budget != nil {
		t.Error("uniform campaign must carry no budget accounting")
	}
}

// TestConvergeRedistributesFreedBudget pins the budget-reassignment
// behaviour: pairing a quickly-converging cell with a diverging one (IRIW+acq
// keeps producing fresh outcomes for a long time) must reassign the freed
// budget, keep the total at the uniform level, and mark only the converging
// cell as such.
func TestConvergeRedistributesFreedBudget(t *testing.T) {
	// Runs is well above L = 150, so SB+sc has room to stop early.
	spec := Spec{
		Tools:    []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Litmus:   []*litmus.Test{mustLitmus(t, "SB+sc"), mustLitmus(t, "IRIW+acq")},
		Runs:     1000,
		SeedBase: 1,
		Workers:  2,
		Policy:   &explore.Converge{},
	}
	sum := Run(spec)
	sb, iriw := sum.Tools[0].Litmus[0], sum.Tools[0].Litmus[1]
	if sb.Budget == nil || !sb.Budget.Converged || sb.Budget.Used >= spec.Runs {
		t.Fatalf("SB+sc budget = %+v, want early convergence", sb.Budget)
	}
	if iriw.Budget == nil || iriw.Budget.Extended == 0 {
		t.Fatalf("IRIW+acq budget = %+v, want reassigned budget (extended > 0)", iriw.Budget)
	}
	total := sb.Budget.Used + iriw.Budget.Used
	if total > 2*spec.Runs {
		t.Errorf("total executions %d exceed the campaign budget %d", total, 2*spec.Runs)
	}
}

// TestGuidedCampaignFindsSeededRaceAtHigherRate is the trace-guided
// acceptance test: record the racy executions of a cell whose uniform
// detection rate is well below 100% (dekker-fences), then re-run the same
// budget guided by those traces — the seeded race must be found in strictly
// more executions, and every race key of the uniform campaign must still be
// found.
func TestGuidedCampaignFindsSeededRaceAtHigherRate(t *testing.T) {
	dir := t.TempDir()
	base := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "dekker-fences")},
		Runs:       50,
		SeedBase:   1,
		Workers:    2,
		RecordDir:  dir, // records the signal-bearing (racy) executions
	}
	uniform := Run(base)
	uniCell := uniform.Tools[0].Benchmarks[0]
	if uniCell.Detection.Detected == 0 || uniCell.Detection.Detected == uniCell.Detection.Runs {
		t.Fatalf("uniform dekker-fences detection %d/%d is not informative for this test",
			uniCell.Detection.Detected, uniCell.Detection.Runs)
	}
	if uniform.Tools[0].RecordedTraces == 0 {
		t.Fatal("no racy traces recorded to seed the guided campaign")
	}

	guides, err := LoadGuides(dir)
	if err != nil {
		t.Fatal(err)
	}
	guided := base
	guided.RecordDir = ""
	guided.Guides = guides
	gsum := Run(guided)
	gCell := gsum.Tools[0].Benchmarks[0]

	if gCell.Detection.Detected <= uniCell.Detection.Detected {
		t.Fatalf("guided campaign detected %d/%d, want strictly more than uniform's %d/%d",
			gCell.Detection.Detected, gCell.Detection.Runs,
			uniCell.Detection.Detected, uniCell.Detection.Runs)
	}
	seeded := map[string]bool{}
	for _, k := range gCell.RaceKeys {
		seeded[k] = true
	}
	for _, k := range uniCell.RaceKeys {
		if !seeded[k] {
			t.Errorf("guided campaign lost race key %s", k)
		}
	}

	// Guided cells must report their prefix statistics in the summary.
	gs := gCell.Guided
	if gs == nil || gs.GuidedExecs != base.Runs || gs.Traces != uniform.Tools[0].RecordedTraces {
		t.Fatalf("guided stats = %+v, want %d guided execs over %d traces",
			gs, base.Runs, uniform.Tools[0].RecordedTraces)
	}
	if gs.MeanPrefixDepth <= 0 || gs.MeanConsumed <= 0 {
		t.Errorf("guided stats carry no depth data: %+v", gs)
	}
	if gsum.Spec.GuideDir != dir || gsum.Spec.GuideTraces != guides.Len() {
		t.Errorf("spec echo = %q/%d, want %q/%d", gsum.Spec.GuideDir, gsum.Spec.GuideTraces, dir, guides.Len())
	}
}

// TestGuidedCampaignDeterminismUnderSharding extends the determinism
// guarantee to guided cells: the prefix depth is drawn from the execution
// seed, so worker count must not change any aggregate.
func TestGuidedCampaignDeterminismUnderSharding(t *testing.T) {
	dir := t.TempDir()
	rec := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "dekker-fences")},
		Runs:       20,
		SeedBase:   1,
		RecordDir:  dir,
	}
	Run(rec)
	guides, err := LoadGuides(dir)
	if err != nil {
		t.Fatal(err)
	}
	build := func(workers, shard int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "dekker-fences")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
			Runs:       30,
			SeedBase:   100,
			Workers:    workers,
			ShardSize:  shard,
			Guides:     guides,
		}
	}
	serial, _ := json.Marshal(canonicalize(Run(build(1, 30))))
	sharded, _ := json.Marshal(canonicalize(Run(build(4, 7))))
	if string(serial) != string(sharded) {
		t.Fatalf("guided campaign aggregates differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s", serial, sharded)
	}
}

// infeasibleModel panics with a core.InfeasibleError on every atomic load —
// the failure mode of a model soundness bug — while completing every other
// operation trivially.
type infeasibleModel struct{}

func (infeasibleModel) Begin(*core.Engine) {}
func (infeasibleModel) AtomicLoad(ts *core.ThreadState, op *capi.Op) memmodel.Value {
	panic(&core.InfeasibleError{Stage: "load", Loc: op.Loc, Detail: "stub model"})
}
func (infeasibleModel) AtomicStore(*core.ThreadState, *capi.Op) {}
func (infeasibleModel) AtomicRMW(ts *core.ThreadState, op *capi.Op) (memmodel.Value, bool) {
	return 0, true
}
func (infeasibleModel) Fence(*core.ThreadState, *capi.Op) {}
func (infeasibleModel) PromoteNAStore(*core.ThreadState, memmodel.LocID, memmodel.TID, memmodel.SeqNum, memmodel.Value) {
}
func (infeasibleModel) Maintain(*core.Engine) {}

// TestEngineFailureRecordedAndCampaignContinues pins the infeasible-store
// hardening: a cell whose every execution hits an infeasible model state is
// recorded as failed — with seed and repro triple — while the rest of the
// matrix keeps running to completion.
func TestEngineFailureRecordedAndCampaignContinues(t *testing.T) {
	loads := capi.Program{Name: "loads", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		env.Load(x, memmodel.Relaxed)
	}}
	stores := capi.Program{Name: "stores", Run: func(env capi.Env) {
		x := env.NewAtomic("x", 0)
		env.Store(x, 1, memmodel.Relaxed)
	}}
	spec := Spec{
		Tools: []ToolSpec{{Name: "stub", New: func() capi.Tool {
			return core.New("stub", infeasibleModel{}, core.Config{})
		}}},
		Benchmarks: []BenchmarkSpec{
			{Name: "loads", New: func() capi.Program { return loads }},
			{Name: "stores", New: func() capi.Program { return stores }},
		},
		Runs:      12,
		SeedBase:  5,
		Workers:   3,
		ShardSize: 4,
	}
	sum := Run(spec)
	ts := sum.Tools[0]
	failing, healthy := ts.Benchmarks[0], ts.Benchmarks[1]

	if failing.Failed != spec.Runs || ts.EngineFailures != spec.Runs {
		t.Fatalf("failing cell recorded %d/%d failures (tool total %d)", failing.Failed, spec.Runs, ts.EngineFailures)
	}
	if healthy.Failed != 0 || healthy.Detection.Runs != spec.Runs {
		t.Fatalf("healthy cell = %+v, want %d clean executions", healthy, spec.Runs)
	}
	if len(ts.FailureSamples) == 0 {
		t.Fatal("no failure samples recorded")
	}
	s := ts.FailureSamples[0]
	if s.Repro.Seed != spec.SeedBase || s.Repro.Program != "loads" || s.Repro.Tool != "stub" {
		t.Errorf("failure repro = %+v, want stub/loads seed=%d", s.Repro, spec.SeedBase)
	}
	if !strings.Contains(s.Error, "infeasible") {
		t.Errorf("failure error = %q, want an infeasibility message", s.Error)
	}
	if !sum.Failed() {
		t.Error("a campaign with engine failures must fail")
	}
	if !strings.Contains(sum.String(), "ENGINE FAILURE") {
		t.Error("report does not surface the engine failures")
	}
}

// TestSchemaArtifactRoundTrip pins the versioned summary fields through JSON.
func TestSchemaArtifactRoundTrip(t *testing.T) {
	sum := Run(Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:       30,
		SeedBase:   1,
		Policy:     &explore.Converge{Epsilon: 0.3}, // L = 10: room to converge within 30 runs
	})
	if sum.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version = %d, want %d", sum.SchemaVersion, SchemaVersion)
	}
	if want := "converge(eps=0.3)"; sum.Spec.Policy != want {
		t.Fatalf("policy echo = %q, want %q", sum.Spec.Policy, want)
	}
	if sum.Obs == nil || sum.Obs.EventsDropped != 0 {
		t.Fatalf("obs accounting = %+v, want present with zero drops", sum.Obs)
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var rt Summary
	if err := json.Unmarshal(data, &rt); err != nil {
		t.Fatal(err)
	}
	b := rt.Tools[0].Benchmarks[0].Budget
	if b == nil || !b.Converged || b.Planned != 30 || b.Used == 0 {
		t.Fatalf("budget did not round-trip: %+v", b)
	}
	tm := rt.Tools[0].Benchmarks[0].Timing
	if tm == nil || tm.Count == 0 || tm.Sum == 0 || tm.P50 == 0 {
		t.Fatalf("timing snapshot did not round-trip: %+v", tm)
	}
	ph := rt.Tools[0].Benchmarks[0].Phases
	if ph == nil || ph["run"] == nil || ph["run"].Count == 0 {
		t.Fatalf("phase snapshots did not round-trip: %+v", ph)
	}
	if _, ok := ph["validate"]; ok {
		t.Fatal("validate phase present without validation duties")
	}
	if rt.Provenance == nil || rt.Provenance.GoVersion == "" {
		t.Fatalf("provenance did not round-trip: %+v", rt.Provenance)
	}
}

// TestLoadGuidesRefusesLegacyTrace pins that a guide directory holding a
// trace recorded under the removed -rng legacy source is refused by name:
// guiding from it would silently replay a different workload stream.
func TestLoadGuidesRefusesLegacyTrace(t *testing.T) {
	_, err := LoadGuides("../trace/testdata/legacy")
	if err == nil || !strings.Contains(err.Error(), "-rng legacy") {
		t.Fatalf("LoadGuides(legacy trace) = %v, want an error naming -rng legacy", err)
	}
}
