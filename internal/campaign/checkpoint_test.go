package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/explore"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
	"c11tester/internal/safeio"
)

// canonicalJSON renders a summary's canonical form — the byte-identity the
// shard-merge and checkpoint-resume guarantees are stated over.
func canonicalJSON(t *testing.T, s *Summary) string {
	t.Helper()
	data, err := json.MarshalIndent(s.Canonical(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestParseShard(t *testing.T) {
	good := map[string]ShardSel{
		"0/1": {Index: 0, Count: 1},
		"0/3": {Index: 0, Count: 3},
		"2/3": {Index: 2, Count: 3},
	}
	for in, want := range good {
		sel, err := ParseShard(in)
		if err != nil || sel != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", in, sel, err, want)
		}
		if sel.String() != in {
			t.Errorf("ShardSel(%+v).String() = %q, want %q", sel, sel.String(), in)
		}
	}
	for _, in := range []string{"", "3/3", "-1/3", "x/3", "1/x", "1", "1/0", "0/-2", "1/2/3"} {
		if sel, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) = %+v, want error", in, sel)
		}
	}
}

func TestValidateCrashOptions(t *testing.T) {
	base := func() Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Runs:       4,
		}
	}
	s := base()
	s.Shard = ShardSel{Index: 1, Count: 3}
	if err := s.Validate(); err != nil {
		t.Errorf("valid shard selection rejected: %v", err)
	}
	s = base()
	s.Shard = ShardSel{Index: 3, Count: 3}
	if err := s.Validate(); err == nil {
		t.Error("out-of-range shard index accepted")
	}
	s = base()
	s.Shard = ShardSel{Index: 0, Count: 2}
	s.Policy = &explore.Converge{}
	if err := s.Validate(); err == nil {
		t.Error("sharding under an adaptive policy accepted; the round-robin deal is only deterministic under uniform budgets")
	}
	// A shard's checkpoint is its partial; a sharded run never resumes.
	s = base()
	s.Shard = ShardSel{Index: 0, Count: 2}
	s.CheckpointPath = "ck.json"
	if err := s.Validate(); err != nil {
		t.Errorf("sharding combined with -checkpoint rejected: %v", err)
	}
	s = base()
	s.Shard = ShardSel{Index: 0, Count: 2}
	s.Resume = &Checkpoint{}
	if err := s.Validate(); err == nil {
		t.Error("sharded run with -resume accepted")
	}
	s = base()
	s.CheckpointPath = "ck.json"
	if err := s.Validate(); err != nil {
		t.Errorf("checkpointing alone rejected: %v", err)
	}
}

// runShards runs build's campaign as `shards` shards, shard i at i+2
// workers, each writing its checkpoint, and returns the shards' summaries
// and their checkpoints as loaded from disk.
func runShards(t *testing.T, build func(workers int) Spec, shards int) ([]*Summary, []*Checkpoint) {
	t.Helper()
	dir := t.TempDir()
	var parts []*Summary
	var cks []*Checkpoint
	for i := 0; i < shards; i++ {
		spec := build(i + 2)
		spec.Shard = ShardSel{Index: i, Count: shards}
		spec.CheckpointPath = filepath.Join(dir, fmt.Sprintf("part%d.ck", i))
		parts = append(parts, Run(spec))
		ck, err := LoadCheckpoint(spec.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Shard == nil || *ck.Shard != spec.Shard || !ck.Complete {
			t.Fatalf("shard %d checkpoint: shard %+v, complete %v", i, ck.Shard, ck.Complete)
		}
		cks = append(cks, ck)
	}
	return parts, cks
}

// resumeMerged resumes spec from the merge of the shard checkpoints, as
// `c11tester -resume p0.ck,p1.ck,...` does.
func resumeMerged(t *testing.T, spec Spec, cks []*Checkpoint) *Summary {
	t.Helper()
	ck, err := MergeCheckpoints(cks)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.ValidateAgainst(spec); err != nil {
		t.Fatal(err)
	}
	spec.Resume = ck
	return Run(spec)
}

// TestShardMergeByteIdentical is half the tentpole acceptance criterion: cut
// a campaign into three shards (each run with a different worker count),
// resume the unsharded campaign from the three shard checkpoints, and the
// summary must be byte-identical — modulo Canonical, which strips
// machine-local timing — to an unsharded run, whatever order the
// checkpoints come in.
func TestShardMergeByteIdentical(t *testing.T) {
	guideDir := t.TempDir()
	Run(Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "dekker-fences")},
		Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
		Runs:       4,
		SeedBase:   1,
		RecordDir:  guideDir,
		RecordOn:   obs.Of(obs.TriggerAll),
	})
	guides, err := LoadGuides(guideDir)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		build func(workers int) Spec
		// check rejects a single-machine run that does not exercise the
		// case's feature (a vacuous comparison).
		check func(t *testing.T, single *Summary)
	}{
		{name: "validated", build: func(workers int) Spec {
			return Spec{
				Tools: []ToolSpec{
					mustTool(t, "c11tester", ToolOptions{}),
					mustTool(t, "tsan11", ToolOptions{}),
				},
				Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue"), benchSpec(t, "seqlock")},
				Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
				Runs:       30,
				SeedBase:   500,
				Workers:    workers,
				// Does not divide Runs: the ragged tail chunk lands in a shard too.
				ShardSize:      4,
				ValidateAxioms: true,
			}
		}},
		{name: "guided", build: func(workers int) Spec {
			return Spec{
				Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
				Benchmarks: []BenchmarkSpec{benchSpec(t, "dekker-fences")},
				Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
				Runs:       30,
				SeedBase:   100,
				Workers:    workers,
				ShardSize:  7,
				Guides:     guides,
			}
		}, check: func(t *testing.T, single *Summary) {
			g := single.Tools[0].Benchmarks[0].Guided
			if g == nil || g.Traces == 0 || g.PrefixDepthSum == 0 || single.Tools[0].Litmus[0].Guided == nil {
				t.Fatalf("guided case ran unguided: %+v", g)
			}
		}},
		{name: "analyzers+validate", build: func(workers int) Spec {
			return Spec{
				Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
				Benchmarks:     []BenchmarkSpec{benchSpec(t, "atomic-counter"), benchSpec(t, "ms-queue")},
				Litmus:         []*litmus.Test{mustLitmus(t, "SB+rlx"), mustLitmus(t, "CoRR")},
				Runs:           30,
				SeedBase:       1,
				Workers:        workers,
				ShardSize:      4,
				Analyzers:      ParseAnalyzers("all"),
				ValidateAxioms: true,
			}
		}, check: func(t *testing.T, single *Summary) {
			if len(single.Tools[0].Findings) == 0 || single.Tools[0].Validation.Checked == 0 {
				t.Fatal("analyzer case found nothing or validated nothing")
			}
		}},
		{name: "empty-shards", build: func(workers int) Spec {
			// One chunk per cell: shards 1 and 2 run no chunk of any cell.
			return Spec{
				Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
				Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
				Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
				Runs:       4,
				SeedBase:   9,
				Workers:    workers,
				ShardSize:  4,
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := tc.build
			single := Run(build(1))
			if tc.check != nil {
				tc.check(t, single)
			}

			parts, cks := runShards(t, build, 3)
			// The spec echo's outcome-affecting fields must not depend on
			// shard selection or worker count.
			if skew := specSkew(cks[0].Spec, specInfo(build(1).withDefaults())); len(skew) > 0 {
				t.Fatalf("shard spec echo skews from the unsharded spec: %q", skew)
			}

			// Every execution runs in exactly one shard.
			var total int
			for _, p := range parts {
				for _, ts := range p.Tools {
					total += ts.Execs
				}
			}
			var want int
			for _, ts := range single.Tools {
				want += ts.Execs
			}
			if total != want {
				t.Fatalf("shards ran %d executions in total, single run %d", total, want)
			}

			// Merge order must not matter.
			wantJSON := canonicalJSON(t, single)
			checkSampledCounts(t, single)
			for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
				merged := resumeMerged(t, build(1), []*Checkpoint{cks[order[0]], cks[order[1]], cks[order[2]]})
				if got := canonicalJSON(t, merged); got != wantJSON {
					t.Fatalf("summary resumed from shards %v differs from single-machine run:\nmerged: %s\nsingle: %s", order, got, wantJSON)
				}
				checkSameSamples(t, single, merged)
			}
		})
	}
}

// TestFragmentMergeOrderIndependent pins the fold every merge path shares:
// two fragments whose failures and violation samples interleave by run
// merge to the same fragment either way round, and to the same fragment as
// folding the executions one by one in run order. The capped lists hold the
// five smallest runs, whichever fragment they came from.
func TestFragmentMergeOrderIndependent(t *testing.T) {
	exec := func(run int) *fragment {
		return &fragment{Execs: 1, Failed: 1, Violations: 1, GuideTraces: 2,
			Races:      map[string]raceHit{fmt.Sprintf("race%d", run%3): {desc: fmt.Sprint(run), Run: run}},
			Failures:   []execFailure{{Run: run, Err: fmt.Sprintf("fail %d", run)}},
			VioSamples: []execFailure{{Run: run, Err: fmt.Sprintf("vio %d", run)}},
			Captures:   []obs.CaptureRecord{{Seed: int64(run), Index: run}},
		}
	}
	unit := func(runs ...int) fragment {
		var f fragment
		for _, r := range runs {
			f.merge(exec(r))
		}
		return f
	}
	// Two units dealt alternating chunks of three runs, as shards are.
	a := func() fragment { return unit(0, 1, 2, 6, 7, 8) }
	b := func() fragment { return unit(3, 4, 5, 9, 10, 11) }
	ab, bPart := a(), b()
	ab.merge(&bPart)
	ba, aPart := b(), a()
	ba.merge(&aPart)
	serial := unit(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)

	want := serial
	if !reflect.DeepEqual(ab, want) {
		t.Errorf("a.merge(b) = %+v\nwant %+v", ab, want)
	}
	if !reflect.DeepEqual(ba, want) {
		t.Errorf("b.merge(a) = %+v\nwant %+v", ba, want)
	}
	runs := func(fs []execFailure) []int {
		var out []int
		for _, f := range fs {
			out = append(out, f.Run)
		}
		return out
	}
	smallest := []int{0, 1, 2, 3, 4}
	if got := runs(want.Failures); !reflect.DeepEqual(got, smallest) {
		t.Errorf("failure samples hold runs %v, want %v", got, smallest)
	}
	if got := runs(want.VioSamples); !reflect.DeepEqual(got, smallest) {
		t.Errorf("violation samples hold runs %v, want %v", got, smallest)
	}
	if want.Execs != 12 || want.Failed != 12 || want.GuideTraces != 2 || len(want.Captures) != 12 {
		t.Errorf("folded counts = %+v", want)
	}
}

// TestMergeRunsKeepsAndCopies pins mergeRuns' list rules, which folding
// unit fragments into a runner's accumulator relies on. A merge that adds
// nothing returns dst's list untouched: src is empty, or dst is full and
// src's runs all come later. A merge that adds something never aliases src,
// whose array the unit's next reset reuses, and never rewrites dst's
// entries: later runs that fit are appended to dst's list, anything else
// builds a new list.
func TestMergeRunsKeepsAndCopies(t *testing.T) {
	run := execFailure.runOf
	samples := func(runs ...int) []execFailure {
		out := make([]execFailure, 0, len(runs))
		for _, r := range runs {
			out = append(out, execFailure{Run: r, Err: fmt.Sprint(r)})
		}
		return out
	}
	same := func(a, b []execFailure) bool { return len(a) > 0 && &a[0] == &b[0] }

	dst := samples(1, 4)
	if got := mergeRuns(dst, nil, run, maxViolationSamples); !same(got, dst) || len(got) != 2 {
		t.Errorf("merging an empty list returned %v, want dst's list untouched", got)
	}
	full := samples(1, 2, 3, 4, 5)
	if got := mergeRuns(full, samples(6, 7), run, maxViolationSamples); !same(got, full) || len(got) != 5 {
		t.Errorf("merging later runs into a full list returned %v, want dst's list untouched", got)
	}
	src := samples(2, 3)
	got := mergeRuns(nil, src, run, maxViolationSamples)
	if same(got, src) {
		t.Fatal("merging into an empty list aliased src")
	}
	src[0].Run = 99 // the unit's next reset reuses its array
	if got[0].Run != 2 {
		t.Errorf("the merged list changed with src: %v", got)
	}
	if got := mergeRuns(full, samples(0), run, maxViolationSamples); same(got, full) ||
		!reflect.DeepEqual(got, samples(0, 1, 2, 3, 4)) || full[0].Run != 1 {
		t.Errorf("merging an earlier run into a full list = %v (dst now %v), want a new list", got, full)
	}
	short := append(make([]execFailure, 0, maxViolationSamples), samples(1, 4)...)
	later := samples(6, 7)
	if got := mergeRuns(short, later, run, maxViolationSamples); !same(got, short) ||
		!reflect.DeepEqual(got, samples(1, 4, 6, 7)) || same(got[2:], later) {
		t.Errorf("merging later runs that fit = %v, want them appended to dst's list", got)
	}
}

// TestMergeCheckpointsRefusals pins that MergeCheckpoints folds only the
// complete shard checkpoints of one campaign, built by one build.
func TestMergeCheckpointsRefusals(t *testing.T) {
	build := func(seedBase int64) func(int) Spec {
		return func(workers int) Spec {
			return Spec{
				Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
				Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
				Runs:       6,
				SeedBase:   seedBase,
				Workers:    workers,
				ShardSize:  2,
			}
		}
	}
	_, two := runShards(t, build(1), 2)
	_, three := runShards(t, build(1), 3)
	_, alien := runShards(t, build(999), 2)
	p0, p1 := two[0], two[1]
	refused := func(what string, cks []*Checkpoint, want string) {
		t.Helper()
		if _, err := MergeCheckpoints(cks); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one naming %q", what, err, want)
		}
	}
	// A copy of c with its own shard selection, so edits leave c alone.
	edit := func(c *Checkpoint) *Checkpoint {
		cp := *c
		sel := *c.Shard
		cp.Shard = &sel
		return &cp
	}

	refused("empty list", nil, "no checkpoints")
	refused("1 of 2 shards", []*Checkpoint{p0}, "cut into 2 shards")
	refused("duplicate index", []*Checkpoint{p0, p0}, "given twice")
	refused("mixed counts", []*Checkpoint{p0, three[1]}, "different counts")
	// A shard cut from a different spec must refuse, naming the field that
	// changed, even though the matrix shape matches.
	refused("spec skew", []*Checkpoint{p0, alien[1]}, "different campaign spec (seed_base: 1 → 999)")
	skewed := edit(p1)
	prov := *p1.Provenance
	prov.GoVersion = "go0.0"
	skewed.Provenance = &prov
	refused("provenance skew", []*Checkpoint{p0, skewed}, "provenance skew")
	incomplete := edit(p1)
	incomplete.Complete = false
	refused("incomplete shard", []*Checkpoint{p0, incomplete}, "did not complete")
	whole := edit(p1)
	whole.Shard = nil
	refused("unsharded checkpoint in a list", []*Checkpoint{p0, whole}, "whole campaign")

	// A single unsharded checkpoint is what -resume always took.
	if got, err := MergeCheckpoints([]*Checkpoint{whole}); err != nil || got != whole {
		t.Errorf("single unsharded checkpoint: %v, %v", got, err)
	}
	// The refusals above left the inputs alone: they still merge.
	merged, err := MergeCheckpoints([]*Checkpoint{p1, p0})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Shard != nil || !merged.Complete || p0.Shard == nil || p1.Shard.Index != 1 {
		t.Errorf("merged checkpoint shard %+v complete %v; inputs %+v %+v", merged.Shard, merged.Complete, p0.Shard, p1.Shard)
	}
	if err := merged.ValidateAgainst(build(1)(1)); err != nil {
		t.Errorf("merged checkpoint does not validate against the unsharded spec: %v", err)
	}
}

// TestResumeListRules pins -resume's file rules: a single missing file starts
// fresh, but in a list every file must load, and a sharded run never
// resumes.
func TestResumeListRules(t *testing.T) {
	build := func(workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Runs:       4,
			SeedBase:   3,
			Workers:    workers,
			ShardSize:  2,
		}
	}
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 2; i++ {
		spec := build(1)
		spec.Shard = ShardSel{Index: i, Count: 2}
		spec.CheckpointPath = filepath.Join(dir, fmt.Sprintf("part%d.ck", i))
		Run(spec)
		paths = append(paths, spec.CheckpointPath)
	}
	missing := filepath.Join(dir, "missing.ck")

	var warn strings.Builder
	spec := build(1)
	if err := (CrashFlags{Resume: missing}).Apply(&spec, &warn); err != nil || spec.Resume != nil ||
		!strings.Contains(warn.String(), "starting fresh") {
		t.Errorf("single missing file: err %v, resume %v, warnings %q; want a warned fresh start", err, spec.Resume != nil, warn.String())
	}
	for _, list := range []string{paths[0] + "," + missing, missing + "," + paths[1]} {
		warn.Reset()
		spec := build(1)
		if err := (CrashFlags{Resume: list}).Apply(&spec, &warn); err == nil || spec.Resume != nil {
			t.Errorf("-resume %s: err %v; want a refusal, not a fresh start (warnings %q)", list, err, warn.String())
		}
	}
	spec = build(1)
	if err := (CrashFlags{Resume: paths[0]}).Apply(&spec, nil); err == nil {
		t.Error("-resume of one shard checkpoint of two accepted")
	}
	spec = build(1)
	if err := (CrashFlags{Resume: paths[1] + "," + paths[0]}).Apply(&spec, nil); err != nil || spec.Resume == nil {
		t.Fatalf("-resume of both shard checkpoints: %v", err)
	}
	spec = build(1)
	err := (CrashFlags{Shard: "0/2", Resume: paths[1] + "," + paths[0]}).Apply(&spec, nil)
	if err == nil {
		err = spec.Validate()
	}
	if err == nil {
		t.Error("sharded run with -resume accepted")
	}
}

// TestCheckpointResumeByteIdentical is the other half of the tentpole
// acceptance criterion: interrupt an adaptive campaign at ANY wave barrier,
// resume from the checkpoint (with a different worker count), and the
// finished summary — convergence curves included — must be byte-identical
// to the uninterrupted run's. At L = 8 every cell converges in wave 1; at
// L = 20 and 48 runs two cells are extended into wave 2, so a checkpoint
// falls between two points of their curves.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	for _, c := range []struct {
		runs  int
		eps   float64
		waves int // the most waves one curve must span
	}{{32, 0.375, 1}, {48, 0.15, 2}} {
		t.Run(fmt.Sprintf("runs=%d,eps=%g", c.runs, c.eps), func(t *testing.T) {
			testCheckpointResume(t, c.runs, c.eps, c.waves)
		})
	}
}

func testCheckpointResume(t *testing.T, runs int, eps float64, waves int) {
	build := func(workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue"), benchSpec(t, "seqlock")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
			Runs:       runs,
			SeedBase:   100,
			Workers:    workers,
			Policy:     &explore.Converge{Epsilon: eps},
		}
	}

	// Baseline: uninterrupted, collecting the checkpoint written at every
	// wave barrier (deep-copied: later waves must not alias earlier state).
	var checkpoints []*Checkpoint
	spec := build(2)
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	spec.checkpointHook = func(c *Checkpoint) {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var copied Checkpoint
		if err := json.Unmarshal(data, &copied); err != nil {
			t.Fatal(err)
		}
		checkpoints = append(checkpoints, &copied)
	}
	baseline := Run(spec)
	want := canonicalJSON(t, baseline)
	// One artifact per wave barrier: the final one only once, complete.
	if len(checkpoints) != waves {
		t.Fatalf("campaign wrote %d artifact(s) over %d wave(s), want one per barrier", len(checkpoints), waves)
	}
	for i, ck := range checkpoints {
		if ck.Wave != i+1 || ck.Complete != (i == len(checkpoints)-1) {
			t.Fatalf("artifact %d: wave %d, complete %v", i, ck.Wave, ck.Complete)
		}
	}

	checkSampledCounts(t, baseline)
	// The curves ride the checkpoints: a cell extended over later waves has
	// a curve point from a wave before each later checkpoint.
	if n := checkCurves(t, baseline); n != waves {
		t.Fatalf("longest curve spans %d wave(s), want %d", n, waves)
	}
	wantCurves := curvesOf(baseline)

	for i, ck := range checkpoints {
		resumed := build(3) // different worker count: must not matter
		resumed.Resume = ck
		sum := Run(resumed)
		if got := curvesOf(sum); !reflect.DeepEqual(got, wantCurves) {
			t.Fatalf("resume from checkpoint %d (wave %d) changed the convergence curves:\nresumed: %+v\nwant:    %+v",
				i, ck.Wave, got, wantCurves)
		}
		got := canonicalJSON(t, sum)
		if got != want {
			t.Fatalf("resume from checkpoint %d (wave %d, complete=%v) diverged from the uninterrupted run:\nresumed: %s\nwant:    %s",
				i, ck.Wave, ck.Complete, got, want)
		}
		// The histograms ride the checkpointed fragments, so a resumed
		// summary samples exactly the uninterrupted run's indices, and its
		// deterministic histograms (kept by Canonical) matched above.
		checkSampledCounts(t, sum)
	}
}

// curvesOf collects every cell's convergence curve, in matrix order.
func curvesOf(sum *Summary) [][]CurvePoint {
	var out [][]CurvePoint
	for _, ts := range sum.Tools {
		for _, c := range ts.Benchmarks {
			out = append(out, c.Budget.Curve)
		}
		for _, c := range ts.Litmus {
			out = append(out, c.Budget.Curve)
		}
	}
	return out
}

// TestUniformCheckpointResume covers the uniform policy's pass through the
// wave loop: a uniform campaign is a single wave, so it writes its artifact
// once, complete. Resuming from it, at any worker count, replays the summary
// byte-identically without re-running anything — not even constructing a
// tool. Its cells carry no tracker.
func TestUniformCheckpointResume(t *testing.T) {
	var built atomic.Int64
	tool := mustTool(t, "c11tester", ToolOptions{})
	newTool := tool.New
	tool.New = func() capi.Tool { built.Add(1); return newTool() }
	build := func(workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{tool},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:     []*litmus.Test{mustLitmus(t, "SB+sc")},
			Runs:       8,
			SeedBase:   7,
			ShardSize:  3,
			Workers:    workers,
		}
	}
	var checkpoints []*Checkpoint
	spec := build(2)
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	spec.checkpointHook = func(c *Checkpoint) {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		var copied Checkpoint
		if err := json.Unmarshal(data, &copied); err != nil {
			t.Fatal(err)
		}
		checkpoints = append(checkpoints, &copied)
	}
	want := canonicalJSON(t, Run(spec))
	if built.Load() == 0 {
		t.Fatal("the counting tool factory was never called")
	}
	if len(checkpoints) != 1 || !checkpoints[0].Complete || checkpoints[0].Wave != 1 {
		t.Fatalf("uniform campaign should write one complete wave-1 artifact; got %d artifact(s)", len(checkpoints))
	}
	// The persisted file is the last (complete) checkpoint.
	ck, err := LoadCheckpoint(spec.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Complete {
		t.Fatalf("uniform campaign checkpoint not complete: %+v", ck)
	}
	// A uniform plan holds no tracker, so its cells checkpoint none.
	for _, cc := range ck.Cells {
		if cc.Tracker != nil || cc.Stopped {
			t.Fatalf("uniform cell %s/%s checkpointed tracker %+v, stopped %v; want none", cc.ToolRef, cc.Program, cc.Tracker, cc.Stopped)
		}
	}
	if err := ck.ValidateAgainst(build(1)); err != nil {
		t.Fatalf("checkpoint does not validate against its own spec: %v", err)
	}
	for i, ck := range append(checkpoints, ck) {
		built.Store(0)
		resumed := build(1 + i) // different worker counts: must not matter
		resumed.Resume = ck
		if got := canonicalJSON(t, Run(resumed)); got != want {
			t.Fatalf("resume from checkpoint %d (complete=%v) diverged:\n%s\nwant:\n%s", i, ck.Complete, got, want)
		}
		if n := built.Load(); n != 0 {
			t.Errorf("resume from checkpoint %d (complete=%v) constructed %d tool(s); a finished uniform wave must run nothing", i, ck.Complete, n)
		}
	}
}

// TestValidateAgainstDetectsSpecDrift pins that a checkpoint refuses to
// resume under a spec that would change execution outcomes.
func TestValidateAgainstDetectsSpecDrift(t *testing.T) {
	build := func(runs int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Runs:       runs,
			SeedBase:   7,
		}
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	spec := build(4)
	spec.CheckpointPath = path
	Run(spec)
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.ValidateAgainst(build(5)); err == nil ||
		!strings.Contains(err.Error(), "(runs: 4 → 5)") {
		t.Errorf("spec drift (runs 4→5) not refused by name: %v", err)
	}
	// The trigger set and the guide-trace count change what a run records
	// and how it explores, so they refuse too.
	recorded := build(4)
	recorded.RecordDir = t.TempDir()
	if err := ck.ValidateAgainst(recorded); err == nil ||
		!strings.Contains(err.Error(), "record_on:  → hit") {
		t.Errorf("record_on drift not refused by name: %v", err)
	}
	guided := *ck
	guided.Spec.GuideTraces = 3
	if err := guided.ValidateAgainst(build(4)); err == nil ||
		!strings.Contains(err.Error(), "guide_traces: 3 → 0") {
		t.Errorf("guide_traces drift not refused by name: %v", err)
	}
	// Worker count and paths are left out of the comparison: resuming on a
	// different machine shape, or with the guides in another directory, is
	// legitimate.
	same := build(4)
	same.Workers = 13
	same.RecordDir = ""
	if err := ck.ValidateAgainst(same); err != nil {
		t.Errorf("worker-count change refused: %v", err)
	}
	moved := *ck
	moved.Spec.GuideDir = "elsewhere"
	if err := moved.ValidateAgainst(same); err != nil {
		t.Errorf("guide-directory change refused: %v", err)
	}
}

// TestCheckpointWriteFailureDoesNotAbort is the ENOSPC fault-injection leg:
// every artifact write fails, and the campaign must complete with the
// identical summary, counting the failed barrier writes in the final
// artifact's CheckpointErrors and returning its failed write as WriteErr.
func TestCheckpointWriteFailureDoesNotAbort(t *testing.T) {
	build := func() Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue"), benchSpec(t, "seqlock")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
			Runs:       48,
			SeedBase:   100,
			Policy:     &explore.Converge{Epsilon: 0.15}, // L = 20: two waves
		}
	}
	want := canonicalJSON(t, Run(build()))

	path := filepath.Join(t.TempDir(), "ck.json")
	safeio.SetFailpoint(func(p string) error {
		if p == path {
			return errors.New("injected ENOSPC")
		}
		return nil
	})
	defer safeio.SetFailpoint(nil)
	spec := build()
	spec.CheckpointPath = path
	var last *Checkpoint
	spec.checkpointHook = func(c *Checkpoint) { last = c }
	sum := Run(spec)
	if last == nil || !last.Complete || last.CheckpointErrors != 1 || sum.WriteErr == nil ||
		!strings.Contains(sum.WriteErr.Error(), "injected ENOSPC") {
		t.Fatalf("final artifact %+v, WriteErr %v; want the wave-1 barrier's failure counted in it and its own write's returned",
			last, sum.WriteErr)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("failed artifact writes left a file behind")
	}
	if got := canonicalJSON(t, sum); got != want {
		t.Fatal("campaign outcome changed under artifact write failures")
	}
}

// TestLoadCheckpointCorrupt feeds torn and corrupt checkpoint files to the
// loader: structured *safeio.DecodeError, never a panic.
func TestLoadCheckpointCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	spec := Spec{
		Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks:     []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:           4,
		CheckpointPath: path,
	}
	Run(spec)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// len(data)-1 would only shave the trailing newline and still parse; -2
	// cuts into the closing brace.
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 2} {
		torn := filepath.Join(dir, "torn.json")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(torn)
		var de *safeio.DecodeError
		if !errors.As(err, &de) {
			t.Errorf("truncation at byte %d: err = %v, want *safeio.DecodeError", cut, err)
		}
	}
	wrong := filepath.Join(dir, "wrong.json")
	if err := os.WriteFile(wrong, []byte(`{"schema":"other/thing","schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(wrong); err == nil {
		t.Error("foreign schema accepted as a checkpoint")
	}
}

// TestStaleCheckpointRefused pins that an artifact of the previous schema
// version is refused with a named error, both by LoadCheckpoint and by
// -resume, rather than being taken for a missing file and silently
// restarted from scratch.
func TestStaleCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	spec := Spec{
		Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks:     []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:           4,
		CheckpointPath: path,
	}
	Run(spec)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	// A version-16 artifact was a rendered summary with no cells to resume
	// from; the version alone must refuse it.
	raw["schema_version"] = SchemaVersion - 1
	stale := filepath.Join(dir, "stale.json")
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stale, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("reads only version %d", SchemaVersion)
	if _, err := LoadCheckpoint(stale); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("LoadCheckpoint(stale) = %v, want an error naming %q", err, want)
	}
	var warn strings.Builder
	resumed := spec
	err = CrashFlags{Resume: stale}.Apply(&resumed, &warn)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("-resume of a stale checkpoint: err = %v, want an error naming %q", err, want)
	}
	if resumed.Resume != nil || strings.Contains(warn.String(), "starting fresh") {
		t.Errorf("-resume of a stale checkpoint started fresh (warnings %q)", warn.String())
	}
}

// TestRebasedHistogramsRefused pins the loader's histogram-base check on
// the resume paths: an artifact whose cell histogram has another base would
// make the fold panic (obs: adding a base-2048 histogram to a base-1024
// one), so -resume refuses it, alone or in a merge list, naming the cell.
func TestRebasedHistogramsRefused(t *testing.T) {
	build := func(workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
			Runs:       4,
			SeedBase:   3,
			Workers:    workers,
			ShardSize:  2,
		}
	}
	_, shards := runShards(t, build, 2)
	rebase := func(ck *Checkpoint, cell int) string {
		t.Helper()
		data, err := json.Marshal(ck)
		if err != nil {
			t.Fatal(err)
		}
		var raw map[string]any
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatal(err)
		}
		frag := raw["cells"].([]any)[cell].(map[string]any)["frag"].(map[string]any)
		frag["hists"].(map[string]any)["exec_ns"].(map[string]any)["base"] = 2048
		if data, err = json.Marshal(raw); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "rebased.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	whole := filepath.Join(t.TempDir(), "whole.json")
	spec := build(1)
	spec.CheckpointPath = whole
	Run(spec)
	ck, err := LoadCheckpoint(whole)
	if err != nil {
		t.Fatal(err)
	}
	part0 := filepath.Join(t.TempDir(), "part0.json")
	data, err := json.Marshal(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(part0, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ list, cell string }{
		{rebase(ck, 0), "c11tester/ms-queue: histogram bases"},
		{part0 + "," + rebase(shards[1], 1), "c11tester/litmus/MP+rlx: histogram bases"},
	} {
		spec := build(1)
		if err := (CrashFlags{Resume: c.list}).Apply(&spec, nil); err == nil || !strings.Contains(err.Error(), c.cell) || spec.Resume != nil {
			t.Errorf("-resume %s: %v; want a refusal naming %q", c.list, err, c.cell)
		}
	}
}

// TestCompleteArtifactDropsTrackers pins the complete artifact of a
// converge campaign: the barrier artifact between its two waves carries the
// cells' tracker snapshots, the complete one none, and resuming the complete
// artifact onto its own path (-json ck -resume ck) writes the same artifact
// back, wall clock and GC aside.
func TestCompleteArtifactDropsTrackers(t *testing.T) {
	spec := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue"), benchSpec(t, "seqlock")},
		Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
		Runs:       48,
		SeedBase:   100,
		Workers:    2,
		Policy:     &explore.Converge{Epsilon: 0.15},
	}
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	barrierTrackers := 0
	spec.checkpointHook = func(c *Checkpoint) {
		for _, cc := range c.Cells {
			if cc.Tracker != nil && !c.Complete {
				barrierTrackers++
			}
		}
	}
	Run(spec)
	if barrierTrackers == 0 {
		t.Fatal("the barrier artifact between the waves carries no tracker snapshot")
	}
	read := func() (*Checkpoint, string) {
		t.Helper()
		ck, err := LoadCheckpoint(spec.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		c := *ck
		c.WallNS, c.GC = 0, GCSummary{}
		data, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		return ck, string(data)
	}
	ck, want := read()
	if !ck.Complete {
		t.Fatal("the campaign's artifact is not complete")
	}
	for _, cc := range ck.Cells {
		if cc.Tracker != nil {
			t.Fatalf("complete artifact carries the tracker snapshot of %s/%s", cc.ToolRef, cc.Program)
		}
	}
	resumed := spec
	resumed.checkpointHook = nil
	resumed.Resume = ck
	Run(resumed)
	if _, got := read(); got != want {
		t.Fatalf("resuming the complete artifact wrote another:\n%s\nwant:\n%s", got, want)
	}
}
