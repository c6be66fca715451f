package campaign

import (
	"path/filepath"
	"testing"
)

func TestRunPerfProducesArtifact(t *testing.T) {
	spec, err := StandardTool("c11tester", ToolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	benches, err := SelectBenchmarks("seqlock")
	if err != nil {
		t.Fatal(err)
	}
	lits, err := SelectLitmus("MP+rel+acq")
	if err != nil {
		t.Fatal(err)
	}
	sum := RunPerf(PerfSpec{
		Tools: []ToolSpec{spec}, Benchmarks: benches, Litmus: lits,
		Runs: 4, Warmup: 2, SeedBase: 1,
	})
	if sum.Schema != PerfSchemaName || sum.SchemaVersion != PerfSchemaVersion {
		t.Fatalf("schema header %q v%d", sum.Schema, sum.SchemaVersion)
	}
	if len(sum.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(sum.Cells))
	}
	for _, c := range sum.Cells {
		if c.Execs != 4 {
			t.Errorf("%s/%s execs = %d, want 4", c.Tool, c.Program, c.Execs)
		}
		if c.NsPerExec <= 0 {
			t.Errorf("%s/%s ns/exec = %v, want > 0", c.Tool, c.Program, c.NsPerExec)
		}
		if c.AtomicOpsPerExec <= 0 {
			t.Errorf("%s/%s atomic ops/exec = %v, want > 0", c.Tool, c.Program, c.AtomicOpsPerExec)
		}
	}
	if len(sum.Tools) != 1 || sum.Tools[0].Execs != 8 {
		t.Fatalf("tool totals wrong: %+v", sum.Tools)
	}
	if sum.String() == "" {
		t.Fatal("empty report")
	}

	path := filepath.Join(t.TempDir(), "BENCH_perf.json")
	if err := sum.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPerfSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.SchemaVersion != sum.SchemaVersion || len(loaded.Cells) != len(sum.Cells) {
		t.Fatalf("roundtrip mismatch: %+v", loaded)
	}
}

func TestLoadPerfSummaryRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	sum := &PerfSummary{Schema: "other/schema", SchemaVersion: 1}
	if err := sum.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPerfSummary(path); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
}

// TestLoadPerfSummaryRejectsRetiredRegimes pins the schema v4 handoff rule:
// the spec and every matrix cell must name fiber or osthread, while pre-v4
// artifacts keep loading with their historical regime names.
func TestLoadPerfSummaryRejectsRetiredRegimes(t *testing.T) {
	for _, tc := range []struct {
		sum PerfSummary
		ok  bool
	}{
		{PerfSummary{SchemaVersion: 4, Spec: PerfSpecInfo{Handoff: "osthread"}, HandoffMatrix: []HandoffCell{{Handoff: "fiber"}}}, true},
		{PerfSummary{SchemaVersion: 4, Spec: PerfSpecInfo{Handoff: "channel"}}, false},
		{PerfSummary{SchemaVersion: 4, HandoffMatrix: []HandoffCell{{Handoff: "cond"}}}, false},
		{PerfSummary{SchemaVersion: 3, Spec: PerfSpecInfo{Handoff: "cond"}}, true},
	} {
		tc.sum.Schema = PerfSchemaName
		path := filepath.Join(t.TempDir(), "perf.json")
		if err := tc.sum.WriteJSON(path); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadPerfSummary(path); (err == nil) != tc.ok {
			t.Errorf("v%d spec %q matrix %v: load error %v, want ok=%v",
				tc.sum.SchemaVersion, tc.sum.Spec.Handoff, tc.sum.HandoffMatrix, err, tc.ok)
		}
	}
}
