package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/campaign"
	"c11tester/internal/obs"
	"c11tester/internal/trace"
)

// recordOneTrace runs a tiny recording campaign and returns one trace file.
func recordOneTrace(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	tool, err := campaign.StandardTool("c11tester", campaign.ToolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := campaign.SelectBenchmarks("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	campaign.Run(campaign.Spec{
		Tools: []campaign.ToolSpec{tool}, Benchmarks: bench,
		Runs: 1, SeedBase: 9, RecordDir: dir, RecordOn: obs.Of(obs.TriggerAll),
	})
	files, err := filepath.Glob(filepath.Join(dir, "trace_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no recorded trace (err=%v)", err)
	}
	return files[0]
}

func devNull(t *testing.T) *os.File {
	t.Helper()
	f, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestCorruptTraceInputsExitStructured fuzzes truncation points through every
// subcommand: corrupt input must produce exit code 1 (a structured read
// error), never a panic and never a zero exit.
func TestCorruptTraceInputsExitStructured(t *testing.T) {
	tracePath := recordOneTrace(t)
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	out := devNull(t)

	// The intact trace must pass every read-only subcommand first.
	for _, sub := range []string{"show", "validate", "replay"} {
		if code := run([]string{sub, tracePath}, out); code != 0 {
			t.Fatalf("%s on intact trace = exit %d", sub, code)
		}
	}

	dir := t.TempDir()
	stride := len(data)/40 + 1
	for cut := 0; cut < len(data)-1; cut += stride {
		torn := filepath.Join(dir, "torn.json")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		for _, sub := range []string{"show", "validate", "replay", "minimize"} {
			if code := run([]string{sub, torn}, out); code != 1 {
				t.Fatalf("%s on trace truncated at byte %d = exit %d, want 1", sub, cut, code)
			}
		}
	}

	// Garbage that is valid JSON but not a trace.
	bogus := filepath.Join(dir, "bogus.json")
	if err := os.WriteFile(bogus, []byte(`{"schema":"not/a-trace","schema_version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"show", bogus}, out); code != 1 {
		t.Fatalf("foreign-schema trace = exit %d, want 1", code)
	}
	// Missing file.
	if code := run([]string{"show", filepath.Join(dir, "absent.json")}, out); code != 1 {
		t.Fatalf("missing trace = exit %d, want 1", code)
	}
}

// TestLegacyTraceRefused pins that every subcommand refuses a trace recorded
// under the removed -rng legacy source (exit 1) instead of replaying it on
// the PCG source and silently diverging.
func TestLegacyTraceRefused(t *testing.T) {
	out := devNull(t)
	legacy := "../../internal/trace/testdata/legacy/trace_c11tester_SB+sc_1.json"
	for _, sub := range []string{"show", "validate", "replay", "minimize"} {
		if code := run([]string{sub, legacy}, out); code != 1 {
			t.Errorf("%s on a legacy-rng trace = exit %d, want 1", sub, code)
		}
	}
}

// TestRemovedToolFieldsRefused pins that replay refuses a trace whose tool
// config sets a field of a removed flag (-sched, -quantum, -max-steps,
// -prune), exiting 1 with the field named on stderr, as it refuses -rng
// legacy.
func TestRemovedToolFieldsRefused(t *testing.T) {
	out := devNull(t)
	legacy, err := os.ReadFile("../../internal/trace/testdata/legacy/trace_c11tester_SB+sc_1.json")
	if err != nil {
		t.Fatal(err)
	}
	for field, line := range map[string]string{
		"sched": `"sched": "quantum"`, "quantum_mean": `"quantum_mean": 50`, "max_steps": `"max_steps": 1000`,
		"prune": `"prune": "conservative"`,
	} {
		// Neutral file names: the refusal, not the path, must name the field.
		dir := t.TempDir()
		path := filepath.Join(dir, "trace.json")
		data := strings.Replace(string(legacy), `"rng": "legacy"`, line, 1)
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		stderr := filepath.Join(dir, "stderr.txt")
		code := withStderr(t, stderr, func() int { return run([]string{"replay", path}, out) })
		msg, err := os.ReadFile(stderr)
		if err != nil {
			t.Fatal(err)
		}
		if code != 1 || !strings.Contains(string(msg), field) {
			t.Errorf("replay on a trace with %s = exit %d, stderr %q; want exit 1 naming %q", line, code, msg, field)
		}
	}
}

// TestLegacyFaithfulTraceReplays pins that a trace recorded by an older
// build with tsan11rec on kernel-thread handoff (tool field
// faithful_handoff) still loads and replays with its schedule verified. The
// handoff never changed an execution, so, unlike the fields of removed
// flags above, the field is ignored rather than refused.
func TestLegacyFaithfulTraceReplays(t *testing.T) {
	const legacy = "../../internal/trace/testdata/legacy/trace_tsan11rec_MP+rlx_1.json"
	data, err := os.ReadFile(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"faithful_handoff": true`) {
		t.Fatal("fixture does not set faithful_handoff")
	}
	tr, err := trace.ReadFile(legacy)
	if err != nil || tr.Tool.Name != "tsan11rec" {
		t.Fatalf("ReadFile = %+v, %v; want the tsan11rec trace", tr, err)
	}
	stdout := filepath.Join(t.TempDir(), "stdout.txt")
	f, err := os.Create(stdout)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if code := run([]string{"replay", legacy}, f); code != 0 {
		t.Fatalf("replay = exit %d, want 0", code)
	}
	got, err := os.ReadFile(stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), `replay OK: tsan11rec litmus "MP+rlx" seed 1`) {
		t.Fatalf("replay printed %q, want a verified replay", got)
	}
}

// withStderr runs fn with os.Stderr redirected to the file at path.
func withStderr(t *testing.T, path string, fn func() int) int {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	return fn()
}
