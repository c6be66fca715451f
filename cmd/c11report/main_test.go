package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/campaign"
)

func writeSummary(t *testing.T, dir string) string {
	t.Helper()
	path, _ := writeSummaryRuns(t, dir, 2)
	return path
}

// writeSummaryRuns runs a c11tester × ms-queue campaign of the given runs
// and writes its summary into dir.
func writeSummaryRuns(t *testing.T, dir string, runs int) (string, *campaign.Summary) {
	t.Helper()
	tool, err := campaign.StandardTool("c11tester", campaign.ToolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := campaign.SelectBenchmarks("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	sum := campaign.Run(campaign.Spec{
		Tools: []campaign.ToolSpec{tool}, Benchmarks: bench,
		Runs: runs, SeedBase: 5,
	})
	path := filepath.Join(dir, "BENCH_campaign.json")
	if err := sum.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	return path, sum
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

// TestCorruptArtifactsExitStructured fuzzes truncation points of the summary
// artifact through the report renderer: every cut must exit 1 with a
// structured error, never panic, never exit 0.
func TestCorruptArtifactsExitStructured(t *testing.T) {
	dir := t.TempDir()
	path := writeSummary(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := devNull(t)

	if code := run([]string{"-summary", path}, out); code != 0 {
		t.Fatalf("intact summary = exit %d", code)
	}

	stride := len(data)/40 + 1
	for cut := 0; cut < len(data)-1; cut += stride {
		torn := filepath.Join(dir, "torn.json")
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-summary", torn}, out); code != 1 {
			t.Fatalf("summary truncated at byte %d = exit %d, want 1", cut, code)
		}
	}

	// A torn event stream is lenient (skipped lines), not fatal…
	events := filepath.Join(dir, "events.jsonl")
	lines := `{"v":1,"type":"campaign_start"}` + "\n" + `{"v":1,"type":"race_first_seen","key":"k"}` + "\n" + `{"v":1,"type":"torn`
	if err := os.WriteFile(events, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-summary", path, "-events", events}, out); code != 0 {
		t.Fatalf("torn event line = exit %d, want lenient 0", code)
	}
	// …but an unreadable events path is a structured failure.
	if code := run([]string{"-summary", path, "-events", filepath.Join(dir, "absent.jsonl")}, out); code != 1 {
		t.Fatal("missing events file did not exit 1")
	}

	// Corrupt capture manifest: structured failure.
	capDir := filepath.Join(dir, "captures")
	if err := os.MkdirAll(capDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(capDir, "manifest.json"), []byte(`{"schema":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-summary", path, "-captures", capDir}, out); code != 1 {
		t.Fatal("corrupt capture manifest did not exit 1")
	}
}

// TestSlowCellColumns pins the slow-cell table's execs and sched_len
// columns. Execution time is timed on every 16th execution index only, so
// the timing histogram counts 2 of 20 executions: the execs column must show
// the cell's 20, the phase means must state their sample against it, and the
// sched_len column must show the quantiles of all 20 schedule lengths.
func TestSlowCellColumns(t *testing.T) {
	dir := t.TempDir()
	path, sum := writeSummaryRuns(t, dir, 20)
	cell := sum.Tools[0].Benchmarks[0]
	if cell.Timing == nil || cell.Timing.Count != 2 || cell.SchedLen == nil || cell.SchedLen.Count != 20 {
		t.Fatalf("cell histograms: timing %+v, sched_len %+v; want 2 timed and 20 observed executions",
			cell.Timing, cell.SchedLen)
	}
	outPath := filepath.Join(dir, "report.txt")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	code := run([]string{"-summary", path}, out)
	out.Close()
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	report, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(report), "\n")
	header := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "tool ") {
			header = i
		}
	}
	if header < 0 || header+2 >= len(lines) {
		t.Fatalf("no slow-cell table:\n%s", report)
	}
	if want := []string{"execs", "sched_len p50/p99"}; !strings.Contains(lines[header], "  "+want[0]+"  ") ||
		!strings.Contains(lines[header], want[1]) {
		t.Fatalf("header %q lacks the %q columns", lines[header], want)
	}
	f := strings.Fields(lines[header+2])
	if len(f) < 6 || f[0] != "c11tester" || f[1] != "ms-queue" {
		t.Fatalf("slow-cell row %q", lines[header+2])
	}
	if f[4] != "20" {
		t.Errorf("execs column = %q, want the cell's 20 executions (row %q)", f[4], lines[header+2])
	}
	if want := fmt.Sprintf("%d/%d", cell.SchedLen.P50, cell.SchedLen.P99); f[5] != want {
		t.Errorf("sched_len column = %q, want %q (row %q)", f[5], want, lines[header+2])
	}
	if !strings.HasSuffix(strings.TrimSpace(lines[header+2]), "(n=2 of 20)") {
		t.Errorf("phase means do not state their sample against the cell's executions: %q", lines[header+2])
	}
}
