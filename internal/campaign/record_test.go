package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
	"c11tester/internal/obs"
	"c11tester/internal/trace"
)

// anomalies is the trigger set of the capture tests: every trigger but hit
// and all.
var anomalies = obs.Of(obs.TriggerInfeasible, obs.TriggerForbidden, obs.TriggerNewRace, obs.TriggerSlowSteps)

// captureSpec is the fixed matrix of the trace-sink tests: benchmark cells
// that race (new-race triggers) plus litmus cells, under the converge policy
// so the summary also carries convergence curves.
func captureSpec(t *testing.T, workers int, dir string) Spec {
	return Spec{
		Tools: []ToolSpec{
			mustTool(t, "c11tester", ToolOptions{}),
			mustTool(t, "tsan11", ToolOptions{}),
		},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx")},
		Runs:       40,
		SeedBase:   500,
		Workers:    workers,
		ShardSize:  7,
		Policy:     &explore.Converge{},
		RecordDir:  dir,
		RecordOn:   anomalies,
	}
}

// TestCaptureDeterminismUnderSharding extends the workers=1 ≡ workers=K
// byte-identity to the forensics layer: the record manifest and the summary,
// convergence curves included, must be byte-identical across worker counts,
// and every recorded trace must replay exactly.
func TestCaptureDeterminismUnderSharding(t *testing.T) {
	run := func(workers int) (*Summary, []byte, string) {
		dir := t.TempDir()
		sum := Run(captureSpec(t, workers, dir))
		man, err := os.ReadFile(filepath.Join(dir, obs.ManifestFileName))
		if err != nil {
			t.Fatalf("workers=%d: no manifest: %v", workers, err)
		}
		return sum, man, dir
	}
	serialSum, serialMan, serialDir := run(1)
	shardSum, shardMan, _ := run(4)

	if !bytes.Equal(serialMan, shardMan) {
		t.Errorf("capture manifests differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s",
			serialMan, shardMan)
	}
	// Canonical drops the record directory echo, which differs per TempDir.
	if a, b := canonicalJSON(t, serialSum), canonicalJSON(t, shardSum); a != b {
		t.Errorf("summaries differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s", a, b)
	}
	checkCurves(t, serialSum)

	man, err := obs.ReadManifest(filepath.Join(serialDir, obs.ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Captures) == 0 {
		t.Fatal("racy matrix produced no captures")
	}
	// Every manifest entry is well-formed; count the trace-backed ones.
	traced := 0
	for _, c := range man.Captures {
		if c.Trigger == "" || c.Repro == "" {
			t.Errorf("malformed capture record: %+v", c)
		}
		if c.File != "" {
			traced++
		} else if c.Err == "" && c.Trigger != obs.TriggerInfeasible.String() {
			t.Errorf("capture with neither trace nor error: %+v", c)
		}
	}
	for _, sum := range []*Summary{serialSum, shardSum} {
		total := 0
		for _, ts := range sum.Tools {
			total += ts.RecordedTraces
		}
		if total != traced {
			t.Errorf("summary counts %d recorded traces, manifest has %d", total, traced)
		}
		if sum.Spec.RecordDir == "" || sum.Spec.RecordOn != anomalies.String() {
			t.Errorf("summary echoes record dir %q on %q", sum.Spec.RecordDir, sum.Spec.RecordOn)
		}
	}

	// The summary report mentions the recorded traces.
	if !strings.Contains(serialSum.String(), "recorded") {
		t.Error("report does not surface the recorded traces")
	}
	if traced == 0 {
		t.Fatal("no capture produced a trace file")
	}

	// Exact-replay verification: every captured trace must re-drive to the
	// recorded race keys, outcome, and event stream.
	verified := 0
	for _, c := range man.Captures {
		if c.File == "" {
			continue
		}
		tr, err := trace.ReadFile(filepath.Join(serialDir, c.File))
		if err != nil {
			t.Fatalf("capture %s/%s seed %d: %v", c.Tool, c.Program, c.Seed, err)
		}
		if tr.Seed != c.Seed || tr.Program != c.Program {
			t.Fatalf("trace identity %s/%d does not match manifest entry %+v", tr.Program, tr.Seed, c)
		}
		sub, err := TraceSubject(tr)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := trace.Replay(tr, sub)
		if err != nil {
			t.Fatalf("capture %s replay: %v", c.File, err)
		}
		if err := tr.Verify(rr); err != nil {
			t.Errorf("capture %s failed exact replay: %v", c.File, err)
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("verified no captures")
	}
}

// TestUniformSlowCapture pins that the deterministic slow trigger fires
// under the default policy, where a unit is ShardSize (25) executions: the
// recorder arms after 16 digests, not after its 64-digest ring fills. The
// recorded set stays a pure function of the seed indices, so the manifest is
// byte-identical at one and at two workers.
func TestUniformSlowCapture(t *testing.T) {
	run := func(workers int) []byte {
		dir := t.TempDir()
		Run(Spec{
			Tools:     []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Litmus:    []*litmus.Test{mustLitmus(t, "SB+sc"), mustLitmus(t, "CoRR")},
			Runs:      3000,
			SeedBase:  1,
			Workers:   workers,
			RecordDir: dir,
			RecordOn:  anomalies,
		})
		man, err := os.ReadFile(filepath.Join(dir, obs.ManifestFileName))
		if err != nil {
			t.Fatalf("workers=%d: no manifest: %v", workers, err)
		}
		return man
	}
	serial, pooled := run(1), run(2)
	if !bytes.Equal(serial, pooled) {
		t.Errorf("capture manifests differ between workers=1 and workers=2:\nworkers=1: %s\nworkers=2: %s", serial, pooled)
	}
	var man obs.Manifest
	if err := json.Unmarshal(serial, &man); err != nil {
		t.Fatal(err)
	}
	slow := 0
	for _, c := range man.Captures {
		if c.Trigger == obs.TriggerSlowSteps.String() {
			slow++
		}
	}
	if slow == 0 {
		t.Fatalf("no slow_steps capture among %d captures", len(man.Captures))
	}
	t.Logf("%d slow_steps captures of %d", slow, len(man.Captures))
}

// TestRecordOnRequiresRecordDir pins the spec validation of the trigger
// set: triggers without a directory to record into are refused.
func TestRecordOnRequiresRecordDir(t *testing.T) {
	spec := Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
		Runs:       1, SeedBase: 1,
		RecordOn: obs.Of(obs.TriggerSlowSteps),
	}
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "RecordDir") {
		t.Fatalf("Validate() = %v, want RecordOn-requires-RecordDir error", err)
	}
}

// TestRecordInfeasibleEntries pins the infeasible trigger: every execution
// the engine aborts gets a trace-less manifest entry carrying its repro line
// — uncapped, so a unit of 20 aborted executions lists all 20 — and the
// entries count neither as recorded traces nor as record errors.
func TestRecordInfeasibleEntries(t *testing.T) {
	loads := capi.Program{Name: "loads", Run: func(env capi.Env) {
		env.Load(env.NewAtomic("x", 0), memmodel.Relaxed)
	}}
	dir := t.TempDir()
	spec := Spec{
		Tools: []ToolSpec{{Name: "stub", New: func() capi.Tool {
			return core.New("stub", infeasibleModel{}, core.Config{})
		}}},
		Benchmarks: []BenchmarkSpec{{Name: "loads", New: func() capi.Program { return loads }}},
		Runs:       20, SeedBase: 5, Workers: 1,
		RecordDir: dir, RecordOn: obs.Of(obs.TriggerInfeasible),
	}
	sum := Run(spec)
	man, err := obs.ReadManifest(filepath.Join(dir, obs.ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Captures) != spec.Runs {
		t.Fatalf("manifest lists %d entries, want one per aborted execution (%d)", len(man.Captures), spec.Runs)
	}
	for i, c := range man.Captures {
		if c.Trigger != "infeasible" || c.File != "" || c.Err != "" || c.Seed != spec.SeedBase+int64(i) ||
			!strings.Contains(c.Repro, "-bench loads") {
			t.Errorf("entry %d = %+v, want a trace-less infeasible entry for seed %d", i, c, spec.SeedBase+int64(i))
		}
	}
	if ts := sum.Tools[0]; ts.RecordedTraces != 0 || ts.RecordErrors != 0 {
		t.Errorf("summary counts %d traces and %d record errors, want neither", ts.RecordedTraces, ts.RecordErrors)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "trace_*.json")); len(files) != 0 {
		t.Errorf("aborted executions left trace files %v", files)
	}
}

// TestRecordHitDefault pins the sink's default trigger set: with RecordDir
// alone, every signal-bearing execution is recorded under trigger "hit", the
// summary echoes record_on "hit", and the directory holds exactly the
// manifest's files.
func TestRecordHitDefault(t *testing.T) {
	dir := t.TempDir()
	sum := Run(Spec{
		Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
		Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue"), benchSpec(t, "seqlock")},
		Runs:       30, SeedBase: 1, Workers: 2,
		RecordDir: dir,
	})
	man, err := obs.ReadManifest(filepath.Join(dir, obs.ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Spec.RecordOn != "hit" {
		t.Errorf("record_on echo = %q, want hit", sum.Spec.RecordOn)
	}
	for _, c := range man.Captures {
		if c.Trigger != "hit" || c.File == "" {
			t.Errorf("entry %+v: want a recorded hit", c)
		}
		if _, err := os.Stat(filepath.Join(dir, c.File)); err != nil {
			t.Error(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "trace_*.json"))
	if len(man.Captures) == 0 || len(files) != len(man.Captures) || sum.Tools[0].RecordedTraces != len(files) {
		t.Fatalf("%d manifest entries, %d trace files, %d recorded traces: want equal and nonzero",
			len(man.Captures), len(files), sum.Tools[0].RecordedTraces)
	}
}

// TestRecordManifestShardAndResume extends shard-merge ≡ single-machine and
// resumed ≡ uninterrupted to the record manifest: a campaign resumed from
// the shards' checkpoints writes the single-machine manifest byte for byte,
// the shards' trace files together are the single run's, and a campaign
// resumed from any of its checkpoints writes the uninterrupted campaign's
// manifest.
func TestRecordManifestShardAndResume(t *testing.T) {
	build := func(dir string, workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{}), mustTool(t, "tsan11", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
			Runs:       60, SeedBase: 700, Workers: workers, ShardSize: 20,
			RecordDir: dir, RecordOn: anomalies,
		}
	}
	manifest := func(dir string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, obs.ManifestFileName))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	singleDir := t.TempDir()
	Run(build(singleDir, 1))
	want := manifest(singleDir)
	single := dirFiles(t, singleDir)
	if len(single) < 2 {
		t.Fatalf("single run recorded %d file(s); the comparison needs traces", len(single))
	}

	var shardDirs []string
	_, cks := runShards(t, func(workers int) Spec {
		shardDirs = append(shardDirs, t.TempDir())
		return build(shardDirs[len(shardDirs)-1], workers)
	}, 3)
	mergeDir := t.TempDir()
	resumeMerged(t, build(mergeDir, 1), []*Checkpoint{cks[2], cks[0], cks[1]})
	merged := dirFiles(t, mergeDir)
	if got := manifest(mergeDir); len(merged) != 1 || !bytes.Equal(got, want) {
		t.Fatalf("resuming from the shard checkpoints wrote %d file(s) and this manifest:\n%s\nwant only the single-machine one:\n%s", len(merged), got, want)
	}
	for _, dir := range shardDirs {
		for name, data := range dirFiles(t, dir) {
			if name != obs.ManifestFileName {
				merged[name] = data
			}
		}
	}
	if !reflect.DeepEqual(merged, single) {
		t.Fatalf("shards recorded %d file(s), the single run %d, or their bytes differ", len(merged), len(single))
	}
	var checkpoints []*Checkpoint
	spec := build(t.TempDir(), 2)
	spec.Policy = &explore.Converge{Epsilon: 0.375} // L = 8: several wave barriers
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
	Run(spec)
	want = manifest(spec.RecordDir)
	if len(checkpoints) < 2 {
		t.Fatalf("campaign wrote %d checkpoint(s); the test needs several wave barriers", len(checkpoints))
	}
	for i, ck := range checkpoints {
		resumed := build(t.TempDir(), 3)
		resumed.Policy = spec.Policy
		resumed.Resume = ck
		Run(resumed)
		if got := manifest(resumed.RecordDir); !bytes.Equal(got, want) {
			t.Fatalf("resume from checkpoint %d (wave %d) wrote a different manifest:\n%s\nwant:\n%s", i, ck.Wave, got, want)
		}
	}
}
