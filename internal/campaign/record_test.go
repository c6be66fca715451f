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

	// The report mentions the recorded traces.
	var report bytes.Buffer
	WriteReport(&report, serialSum, nil, "")
	if !strings.Contains(report.String(), "recorded") {
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
// the shards' artifacts writes the single-machine manifest byte for byte,
// reading the entries back from each shard's own record directory; the
// shards' trace files together are the single run's; and a campaign resumed
// from any of its artifacts, whose entries its finished manifest holds
// together with later ones, writes the uninterrupted campaign's manifest.
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
	spec.Policy = &explore.Converge{Epsilon: 0.15} // L = 20: a barrier between two waves
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
		resumed.Resume = mergeOne(t, ck)
		Run(resumed)
		if got := manifest(resumed.RecordDir); !bytes.Equal(got, want) {
			t.Fatalf("resume from checkpoint %d (wave %d) wrote a different manifest:\n%s\nwant:\n%s", i, ck.Wave, got, want)
		}
	}
}

// mergeOne readies one artifact for a resume as -resume does, reading its
// manifest entries back from its record directory.
func mergeOne(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	merged, err := MergeCheckpoints([]*Checkpoint{ck})
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// deepCopy returns c as it would be written and loaded again.
func deepCopy(t *testing.T, c *Checkpoint) *Checkpoint {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var copied Checkpoint
	if err := json.Unmarshal(data, &copied); err != nil {
		t.Fatal(err)
	}
	return &copied
}

// TestResumeWithManifestAhead crashes a converge -record campaign between
// its two writes at a barrier: the manifest of the final barrier has landed,
// the artifact is still the previous barrier's. Resuming into the crashed
// record directory must leave it identical, manifest and traces, to the
// uninterrupted run's. A resume whose record directory has lost its
// manifest is refused with the manifest's path named.
func TestResumeWithManifestAhead(t *testing.T) {
	build := func(dir string, workers int) Spec {
		return Spec{
			Tools:      []ToolSpec{mustTool(t, "c11tester", ToolOptions{}), mustTool(t, "tsan11", ToolOptions{})},
			Benchmarks: []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:     []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "CoRR")},
			Runs:       60, SeedBase: 700, Workers: workers, ShardSize: 20,
			Policy:    &explore.Converge{Epsilon: 0.15}, // L = 20: two waves
			RecordDir: dir, RecordOn: obs.Of(obs.TriggerAll),
		}
	}
	wantDir := t.TempDir()
	Run(build(wantDir, 2))
	want := dirFiles(t, wantDir)

	// The hook runs after a barrier's manifest is written and before its
	// artifact is: the record directory then is the crashed run's, and the
	// artifact on disk the previous barrier's.
	dir := t.TempDir()
	spec := build(dir, 2)
	spec.CheckpointPath = filepath.Join(t.TempDir(), "ck.json")
	var cks []*Checkpoint
	var snaps []map[string]string
	spec.checkpointHook = func(c *Checkpoint) {
		cks = append(cks, deepCopy(t, c))
		snaps = append(snaps, dirFiles(t, dir))
	}
	Run(spec)
	if len(cks) < 2 {
		t.Fatal("the campaign passed one barrier; the test needs a manifest a barrier ahead")
	}
	for i, ck := range cks[:len(cks)-1] {
		files := snaps[i+1]
		if files[obs.ManifestFileName] == snaps[i][obs.ManifestFileName] {
			t.Fatalf("barrier %d's manifest equals barrier %d's: it is not ahead of the artifact", i+2, i+1)
		}
		crashDir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(crashDir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		ck.Spec.RecordDir = crashDir
		resumed := build(crashDir, 3)
		resumed.Resume = mergeOne(t, ck)
		Run(resumed)
		if got := dirFiles(t, crashDir); !reflect.DeepEqual(got, want) {
			t.Fatalf("resume from the wave-%d artifact with the next barrier's manifest left %d file(s), the uninterrupted run %d, or their bytes differ",
				ck.Wave, len(got), len(want))
		}
	}

	// A record directory without its manifest refuses the resume, naming
	// the manifest it looked for.
	lost := t.TempDir()
	ck := cks[0]
	ck.Spec.RecordDir = lost
	path := filepath.Join(t.TempDir(), "ck.json")
	data, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed := build(lost, 1)
	err = CrashFlags{Resume: path}.Apply(&resumed, nil)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(lost, obs.ManifestFileName)) || resumed.Resume != nil {
		t.Fatalf("-resume with no manifest in %s: %v; want a refusal naming the manifest", lost, err)
	}
}

// TestRecordAllArtifactSize pins that manifest entries stay out of the
// artifact: a converge campaign recording every execution writes an
// artifact within 2× of the same campaign's unarmed one, while its manifest
// holds an entry per execution.
func TestRecordAllArtifactSize(t *testing.T) {
	size := func(recordDir string) (int64, int) {
		spec := Spec{
			Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{})},
			Litmus:         []*litmus.Test{mustLitmus(t, "MP+rlx"), mustLitmus(t, "SB+rlx"), mustLitmus(t, "CoRR"), mustLitmus(t, "LB+rlx")},
			Runs:           200,
			SeedBase:       1,
			Workers:        2,
			Policy:         &explore.Converge{},
			CheckpointPath: filepath.Join(t.TempDir(), "ck.json"),
		}
		if recordDir != "" {
			spec.RecordDir, spec.RecordOn = recordDir, obs.Of(obs.TriggerAll)
		}
		sum := Run(spec)
		path := spec.CheckpointPath
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size(), sum.Tools[0].RecordedTraces
	}
	unarmed, _ := size("")
	armed, traces := size(t.TempDir())
	if traces < 400 || armed > 2*unarmed {
		t.Fatalf("-record-on all artifact is %d bytes for %d traces, the unarmed one %d: want at most 2×", armed, traces, unarmed)
	}
	t.Logf("artifact %d bytes armed (%d traces), %d unarmed", armed, traces, unarmed)
}

// TestRaceDeduplicationAcrossExecutions pins the campaign's race
// deduplication (Section 7.6) on the trace sink's new_race trigger: in a
// unit where every execution races, an execution is owed a new_race entry
// exactly when it reports a race key no earlier execution of its unit
// reported, so the trigger fires once per key per unit. The expected
// entries come from replaying each seed on a fresh engine, unit by unit.
func TestRaceDeduplicationAcrossExecutions(t *testing.T) {
	twoWrites := capi.Program{Name: "two-writes", Run: func(env capi.Env) {
		d := env.NewLoc("data", 0)
		e := env.NewLoc("extra", 0)
		a := env.Spawn("A", func(env capi.Env) {
			env.Write(d, 1)
			env.Read(e)
		})
		env.Write(d, 2)
		env.Write(e, 1)
		env.Join(a)
	}}
	tool := mustTool(t, "c11tester", ToolOptions{})
	for _, shard := range []int{30, 7} {
		dir := t.TempDir()
		spec := Spec{
			Tools: []ToolSpec{tool},
			Benchmarks: []BenchmarkSpec{
				{Name: twoWrites.Name, New: func() capi.Program { return twoWrites }},
				benchSpec(t, "ms-queue"),
			},
			Runs: 30, SeedBase: 40, Workers: 2, ShardSize: shard,
			RecordDir: dir, RecordOn: obs.Of(obs.TriggerNewRace),
		}
		Run(spec)
		man, err := obs.ReadManifest(filepath.Join(dir, obs.ManifestFileName))
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]int{}
		for _, c := range man.Captures {
			if c.Trigger != "new_race" {
				t.Errorf("shard %d: entry %+v has trigger %q", shard, c, c.Trigger)
			}
			got[c.Program] = append(got[c.Program], c.Index)
		}
		for _, b := range spec.Benchmarks {
			eng := tool.New()
			prog := b.New()
			var want []int
			seen := map[string]bool{}
			for i := 0; i < spec.Runs; i++ {
				if i%shard == 0 {
					clear(seen) // a unit starts
				}
				res := eng.Execute(prog, spec.SeedBase+int64(i))
				if len(res.Races) == 0 {
					t.Fatalf("%s seed %d: no race; every execution of the unit must race", b.Name, spec.SeedBase+int64(i))
				}
				isNew := false
				for _, r := range res.Races {
					if k := r.Key(); !seen[k] {
						seen[k], isNew = true, true
					}
				}
				if isNew {
					want = append(want, i)
				}
			}
			eng.(*core.Engine).Close()
			if len(want) >= spec.Runs {
				t.Fatalf("%s: every execution found a new key; the test needs repeats", b.Name)
			}
			if !reflect.DeepEqual(got[b.Name], want) {
				t.Errorf("shard %d, %s: new_race entries at %v, want %v", shard, b.Name, got[b.Name], want)
			}
		}
	}
}
