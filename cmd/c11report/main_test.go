package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/campaign"
)

func writeSummary(t *testing.T, dir string) string {
	t.Helper()
	path, _ := writeSummaryRuns(t, dir, 2, "")
	return path
}

// writeSummaryRuns runs a c11tester × ms-queue campaign of the given runs,
// recording the executions that hit into recordDir unless it is empty, and
// writes its artifact into dir.
func writeSummaryRuns(t *testing.T, dir string, runs int, recordDir string) (string, *campaign.Summary) {
	t.Helper()
	tool, err := campaign.StandardTool("c11tester", campaign.ToolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bench, err := campaign.SelectBenchmarks("ms-queue")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "BENCH_campaign.json")
	sum := campaign.Run(campaign.Spec{
		Tools: []campaign.ToolSpec{tool}, Benchmarks: bench,
		Runs: runs, SeedBase: 5, RecordDir: recordDir, CheckpointPath: path,
	})
	if sum.WriteErr != nil {
		t.Fatal(sum.WriteErr)
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

	// The event stream is gone: -events is an unknown flag.
	if code := run([]string{"-summary", path, "-events", filepath.Join(dir, "events.jsonl")}, out); code != 1 {
		t.Fatalf("-events = exit %d, want 1 (unknown flag)", code)
	}

	// Corrupt record manifest: structured failure.
	capDir := filepath.Join(dir, "traces")
	if err := os.MkdirAll(capDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(capDir, "manifest.json"), []byte(`{"schema":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-summary", path, "-record", capDir}, out); code != 1 {
		t.Fatal("corrupt record manifest did not exit 1")
	}
}

// TestSlowCellColumns pins the slow-cell table's execs, sched_len and layer
// columns. Execution time is timed on every 16th execution index only, so
// the timing histogram counts 2 of 20 executions: the execs column must show
// the cell's 20, the phase means must state their sample against it, the
// sched_len column must show the quantiles of all 20 schedule lengths, and
// the layer column the cell's resumes and race checks per execution, from
// its counts over all 20.
func TestSlowCellColumns(t *testing.T) {
	dir := t.TempDir()
	path, sum := writeSummaryRuns(t, dir, 20, "")
	h := sum.Tools[0].Benchmarks[0].Hists
	if h == nil || h.ExecNS.Count() != 2 || h.SchedLen.Count() != 20 {
		t.Fatalf("cell histograms %+v; want 2 timed and 20 observed executions", h)
	}
	code, report := runCapture(t, "-summary", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(report, "\n")
	header := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "tool ") {
			header = i
		}
	}
	if header < 0 || header+2 >= len(lines) {
		t.Fatalf("no slow-cell table:\n%s", report)
	}
	if want := []string{"execs", "sched_len p50/p99", "resumes/race checks per exec", "phase breakdown (mean)"}; !strings.Contains(lines[header], "  "+want[0]+"  ") ||
		!strings.Contains(lines[header], want[1]) || !strings.Contains(lines[header], want[2]) ||
		!strings.Contains(lines[header], want[3]) {
		t.Fatalf("header %q lacks the %q columns", lines[header], want)
	}
	f := strings.Fields(lines[header+2])
	if len(f) < 7 || f[0] != "c11tester" || f[1] != "ms-queue" {
		t.Fatalf("slow-cell row %q", lines[header+2])
	}
	if f[4] != "20" {
		t.Errorf("execs column = %q, want the cell's 20 executions (row %q)", f[4], lines[header+2])
	}
	if want := fmt.Sprintf("%d/%d", h.SchedLen.Quantile(0.50), h.SchedLen.Quantile(0.99)); f[5] != want {
		t.Errorf("sched_len column = %q, want %q (row %q)", f[5], want, lines[header+2])
	}
	if c := h.Counts; c.RaceChecks == 0 {
		t.Errorf("cell counts %+v, want race checks", c)
	} else if want := fmt.Sprintf("%.1f/%.1f", float64(c.Resumes)/20, float64(c.RaceChecks)/20); f[6] != want {
		t.Errorf("layer column = %q, want %q (row %q)", f[6], want, lines[header+2])
	}
	// Phase spans are sampled on index 8 of every 16, so once in 20.
	if !strings.HasSuffix(strings.TrimSpace(lines[header+2]), "(n=1 of 20)") {
		t.Errorf("phase means do not state their sample against the cell's executions: %q", lines[header+2])
	}
}

// runCapture runs the command with stdout captured to a file and returns
// the exit code and the output.
func runCapture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "out.txt")
	out, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	code := run(args, out)
	out.Close()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(text)
}

// writeWithoutRace copies the artifact at src, whose summary is sum, to
// dir/name with the first race key of its first tool removed from every
// cell.
func writeWithoutRace(t *testing.T, src string, sum *campaign.Summary, dir, name string) string {
	t.Helper()
	if len(sum.Tools[0].Races) == 0 {
		t.Fatal("campaign found no race to remove")
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, c := range raw["cells"].([]any) {
		if races, ok := c.(map[string]any)["frag"].(map[string]any)["races"].(map[string]any); ok {
			delete(races, sum.Tools[0].Races[0].Key)
		}
	}
	if data, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEqualExitCodes pins -equal's exit codes: 0 for identical summaries
// (a re-run of the same campaign differs only in wall-clock fields), 2 for
// summaries that differ in a race key, 1 for bad usage or input.
func TestEqualExitCodes(t *testing.T) {
	dir := t.TempDir()
	a, sum := writeSummaryRuns(t, dir, 4, "")
	b, _ := writeSummaryRuns(t, t.TempDir(), 4, "")
	edited := writeWithoutRace(t, a, sum, dir, "edited.json")

	if code, out := runCapture(t, "-equal", a, b); code != 0 || !strings.HasPrefix(out, "identical (modulo canonicalization): ") {
		t.Errorf("-equal on two runs of one campaign = exit %d:\n%s", code, out)
	}
	if code, out := runCapture(t, "-equal", a, edited); code != 2 || !strings.HasPrefix(out, "DIFFERENT: first divergence at canonical line ") {
		t.Errorf("-equal on a summary with a race key removed = exit %d:\n%s", code, out)
	}
	for _, args := range [][]string{
		{"-equal", a},
		{"-equal", a, b, edited},
		{"-equal", a, filepath.Join(dir, "missing.json")},
		{"-equal", "-compare", a, b},
	} {
		if code, _ := runCapture(t, args...); code != 1 {
			t.Errorf("c11report %v = exit %d, want 1", args, code)
		}
	}
}

// TestCompareExitCodes pins -compare's exit codes: 0 on a self-compare, 2
// when the new summary lost a race key, 1 on bad usage or input.
func TestCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	a, sum := writeSummaryRuns(t, dir, 4, "")
	edited := writeWithoutRace(t, a, sum, dir, "edited.json")

	if code, out := runCapture(t, "-compare", a, a); code != 0 {
		t.Errorf("-compare self = exit %d:\n%s", code, out)
	}
	if code, out := runCapture(t, "-compare", a, edited); code != 2 || !strings.Contains(out, sum.Tools[0].Races[0].Key) {
		t.Errorf("-compare on a lost race key = exit %d, want 2 naming %s:\n%s", code, sum.Tools[0].Races[0].Key, out)
	}
	for _, args := range [][]string{
		{"-compare", a},
		{"-compare", a + "," + edited},
		{"-compare", a, filepath.Join(dir, "missing.json")},
		{"-summary", a, edited},
	} {
		if code, _ := runCapture(t, args...); code != 1 {
			t.Errorf("c11report %v = exit %d, want 1", args, code)
		}
	}
}

// TestRecordIndexListsMissingTraces deletes one trace from a recorded
// directory: the report still renders whole, lists the deleted file as
// missing in place of its repro line, and exits 1.
func TestRecordIndexListsMissingTraces(t *testing.T) {
	dir := t.TempDir()
	rec := filepath.Join(dir, "rec")
	path, _ := writeSummaryRuns(t, dir, 4, rec)
	traces, err := filepath.Glob(filepath.Join(rec, "trace_*.json"))
	if err != nil || len(traces) < 2 {
		t.Fatalf("recorded %d trace(s) (%v), want at least 2", len(traces), err)
	}
	if code, out := runCapture(t, "-summary", path, "-record", rec); code != 0 || strings.Contains(out, "missing: ") {
		t.Fatalf("intact record directory = exit %d:\n%s", code, out)
	}
	if err := os.Remove(traces[0]); err != nil {
		t.Fatal(err)
	}
	code, out := runCapture(t, "-summary", path, "-record", rec)
	if code != 1 {
		t.Errorf("record directory missing a trace = exit %d, want 1", code)
	}
	if n := strings.Count(out, "    missing: "); n != 1 || !strings.Contains(out, "    missing: "+traces[0]+"\n") {
		t.Errorf("report lists %d missing file(s), want %s alone:\n%s", n, traces[0], out)
	}
	if strings.Contains(out, "replay "+traces[0]) {
		t.Errorf("report prints a repro line for the missing %s", traces[0])
	}
	if n := strings.Count(out, "repro: go run ./cmd/c11trace replay "); n != len(traces)-1 {
		t.Errorf("report prints %d trace repro line(s), want %d", n, len(traces)-1)
	}
	for _, want := range []string{"race timeline (", "soundness: ok", "record index ("} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestIncompatibleSummaryRefused pins that every mode refuses an artifact of
// the previous schema version (v16 was a rendered summary with no cells) and
// one whose histograms have another base: report mode, -equal and -compare
// each exit 1.
func TestIncompatibleSummaryRefused(t *testing.T) {
	dir := t.TempDir()
	path := writeSummary(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	write := func(name string) string {
		t.Helper()
		data, err := json.Marshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	raw["schema_version"] = campaign.SchemaVersion - 1
	old := write("v16.json")
	if _, err := campaign.LoadCheckpoint(old); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprintf("schema version %d", campaign.SchemaVersion-1)) {
		t.Fatalf("LoadCheckpoint(v%d) = %v, want an error naming the version", campaign.SchemaVersion-1, err)
	}
	// A current artifact whose execution-time histogram has another base
	// would make -compare's fold panic; it is refused by name instead.
	raw["schema_version"] = campaign.SchemaVersion
	cell := raw["cells"].([]any)[0].(map[string]any)["frag"].(map[string]any)
	cell["hists"].(map[string]any)["exec_ns"].(map[string]any)["base"] = 2048
	rebased := write("rebased.json")
	if _, err := campaign.LoadCheckpoint(rebased); err == nil || !strings.Contains(err.Error(), "c11tester/ms-queue: histogram bases") {
		t.Fatalf("LoadCheckpoint(rebased) = %v, want an error naming the cell's histogram bases", err)
	}
	for _, bad := range []string{old, rebased} {
		for _, args := range [][]string{
			{"-summary", bad},
			{"-equal", path, bad},
			{"-equal", bad, path},
			{"-compare", bad, path},
			{"-compare", path, bad},
		} {
			if code, _ := runCapture(t, args...); code != 1 {
				t.Errorf("c11report %v = exit %d, want 1", args, code)
			}
		}
	}
}
