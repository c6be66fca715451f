package main

import (
	"os"
	"path/filepath"
	"testing"

	"c11tester/internal/campaign"
	"c11tester/internal/obs"
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
