package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c11tester/internal/harness"
	"c11tester/internal/obs"
)

// TestReportEndToEnd drives the full forensics join on a real campaign: run a
// racy converge-policy matrix with the trace sink armed and the event
// stream on, then render the report from the three artifacts and check every
// section is present and stitched from the right source.
func TestReportEndToEnd(t *testing.T) {
	dir := t.TempDir()
	var events bytes.Buffer
	tel := NewTelemetry(TelemetryOptions{EventSink: &events})
	sum := Run(captureSpec(t, 2, dir, tel))

	evPath := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(evPath, events.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, bad, err := ReadEvents(evPath)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("ReadEvents skipped %d lines of a clean stream", bad)
	}
	if len(evs) == 0 {
		t.Fatal("no events read back")
	}
	man, err := obs.ReadManifest(filepath.Join(dir, obs.ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	WriteReport(&buf, sum, evs, man, ReportOptions{TopSlow: 3, RecordDir: dir})
	out := buf.String()
	for _, want := range []string{
		"campaign forensics report (schema v",
		"matrix: 2 tool(s)",
		"build: go",
		"top 3 cell(s) by p99 ns/exec:",
		"race timeline (",
		"convergence curves (",
		"record index (",
		"repro: go run ./cmd/c11trace replay ",
		"litmus outcome histograms:",
		"phase breakdown (mean)",
		"reset ",
		" of ", // the phase means' sample size, "(n=… of …)"
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n--- report ---\n%s", want, out)
		}
	}
	// The record index points each trace-backed entry into the record dir.
	if !strings.Contains(out, filepath.Join(dir, "")) {
		t.Errorf("record repro lines do not reference the record dir %s", dir)
	}
}

// TestReadEventsToleratesTornLines pins the crash-forensics property of the
// reader: an events file whose final line was cut mid-write (or interleaved
// by a non-serialized writer) still yields every parseable event, with the
// damage counted rather than fatal.
func TestReadEventsToleratesTornLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	raw := `{"type":"campaign_start","wave":0}
not json at all
{"seq":3}
{"type":"exec_slow","tool":"c11tester","program":"ms-queue","seed":7}
{"type":"capture","trig`
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, bad, err := ReadEvents(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("read %d events, want 2 (campaign_start + exec_slow)", len(evs))
	}
	if evs[0].Type != "campaign_start" || evs[1].Type != "exec_slow" {
		t.Fatalf("events = %q, %q", evs[0].Type, evs[1].Type)
	}
	if bad != 3 {
		t.Fatalf("counted %d bad lines, want 3 (garbage, typeless, torn tail)", bad)
	}

	if _, _, err := ReadEvents(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("missing file must be an error, not an empty stream")
	}
}

// TestWriteReportDegradesWithoutSidecars pins that the report renders from
// the summary alone: no events and no manifest means the optional sections
// say so instead of disappearing silently or panicking.
func TestWriteReportDegradesWithoutSidecars(t *testing.T) {
	var events bytes.Buffer
	tel := NewTelemetry(TelemetryOptions{EventSink: &events})
	sum := Run(captureSpec(t, 1, t.TempDir(), tel))

	var buf bytes.Buffer
	WriteReport(&buf, sum, nil, nil, ReportOptions{TopSlow: 2})
	out := buf.String()
	if !strings.Contains(out, "top 2 cell(s) by p99 ns/exec:") {
		t.Errorf("slow-cell table missing without sidecars:\n%s", out)
	}
	for _, absent := range []string{"race timeline (", "record index ("} {
		if strings.Contains(out, absent) {
			t.Errorf("section %q rendered with no backing data:\n%s", absent, out)
		}
	}
}

// TestPhaseBreakdownStatesSampleSize pins that the phase means carry their
// sample size: the phase histograms count the timed executions only, and
// the record span may count fewer still.
func TestPhaseBreakdownStatesSampleSize(t *testing.T) {
	got := phaseBreakdown(map[string]*obs.HistogramSnapshot{
		"reset":  {Count: 2, Sum: 2000},
		"run":    {Count: 2, Sum: 18000},
		"record": {Count: 1, Sum: 5000},
	}, 30)
	if want := "reset 1.0µs  run 9.0µs  record 5.0µs (n=2 of 30)"; got != want {
		t.Errorf("phaseBreakdown = %q, want %q", got, want)
	}
}

// TestWriteOutcomesTags pins the tags of the litmus outcome histograms on a
// two-tool summary: CoRR+opposed's "21" is the full fragment's fragment-gap
// witness under c11tester and a forbidden outcome under the commit-order
// baseline tsan11, and SB+rlx's weak outcome is tagged weak.
func TestWriteOutcomesTags(t *testing.T) {
	sb := mustLitmus(t, "SB+rlx")
	weak := harness.SortedKeys(sb.Weak)[0]
	sum := &Summary{
		Spec: SpecInfo{Litmus: []string{"CoRR+opposed", "SB+rlx"}},
		Tools: []ToolSummary{
			{Tool: "c11tester", Litmus: []LitmusSummary{
				{Test: "CoRR+opposed", Outcomes: map[string]int{"11": 3, "21": 2}, WeakSeen: []string{"21"}, WeakDefined: 1},
				{Test: "SB+rlx", Outcomes: map[string]int{weak: 4}, WeakSeen: []string{weak}, WeakDefined: len(sb.Weak)},
			}},
			{Tool: "tsan11", Litmus: []LitmusSummary{
				{Test: "CoRR+opposed", Outcomes: map[string]int{"21": 1}, WeakSeen: []string{"21"}, WeakDefined: 1,
					ForbiddenSeen: []ForbiddenOutcome{{Test: "CoRR+opposed", Outcome: "21", Count: 1}}},
				{Test: "SB+rlx", Outcomes: map[string]int{}, WeakDefined: len(sb.Weak)},
			}},
		},
	}
	var buf bytes.Buffer
	writeOutcomes(&buf, sum)
	out := buf.String()
	for _, want := range []string{
		"\nlitmus outcome histograms:\n",
		"\n    c11tester   \"11\"×3  \"21\"×2~fragment-gap  (weak 1/1)\n",
		"\n    tsan11      \"21\"×1!FORBIDDEN  (weak 1/1)\n",
		fmt.Sprintf("\n    c11tester   %q×4~weak  (weak 1/%d)\n", weak, len(sb.Weak)),
		fmt.Sprintf("\n    tsan11      (weak 0/%d)\n", len(sb.Weak)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histograms lack %q:\n%s", want, out)
		}
	}
}
