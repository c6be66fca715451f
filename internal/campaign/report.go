// report.go is the offline forensics renderer behind cmd/c11report: it joins
// the three artifacts a campaign leaves behind — the versioned summary
// (BENCH_campaign.json), the structured event stream (events.jsonl), and the
// flight-recorder capture manifest — into one human-readable report. Every
// section degrades gracefully when its source artifact is absent, so the
// report is useful on partial evidence (a summary alone, or just a capture
// directory).
package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"c11tester/internal/core"
	"c11tester/internal/harness"
	"c11tester/internal/obs"
	"c11tester/internal/safeio"
)

// ReadEvents reads a JSONL event stream appended by -events, through the
// shared lenient reader (safeio.ForEachJSONLine). Unparseable lines are
// counted, not fatal: an interrupted campaign may leave a torn final line,
// and the report should still render the rest.
func ReadEvents(path string) (events []Event, bad int, err error) {
	bad, err = safeio.ForEachJSONLine(path, func(line []byte) bool {
		var ev Event
		if json.Unmarshal(line, &ev) != nil || ev.Type == "" {
			return false
		}
		events = append(events, ev)
		return true
	})
	if err != nil {
		return nil, bad, err
	}
	return events, bad, nil
}

// ReportOptions configures WriteReport.
type ReportOptions struct {
	// TopSlow bounds the slow-cell table (default 5).
	TopSlow int
	// CaptureDir prefixes trace file names in capture repro lines, so the
	// printed `c11trace replay` command works from the caller's directory.
	CaptureDir string
}

// slowCell is one row of the slow-cell table: a cell's execution count and
// histograms from the summary.
type slowCell struct {
	tool, program string
	execs         int
	CellHists
}

// WriteReport renders the forensics report. sum is required; events and man
// may be nil (their sections are skipped).
func WriteReport(w io.Writer, sum *Summary, events []Event, man *obs.Manifest, opts ReportOptions) {
	if opts.TopSlow <= 0 {
		opts.TopSlow = 5
	}
	fmt.Fprintf(w, "campaign forensics report (schema v%d)\n", sum.SchemaVersion)
	fmt.Fprintf(w, "matrix: %d tool(s) × (%d benchmark(s) + %d litmus test(s)) × %d runs, seed base %d\n",
		len(sum.Spec.Tools), len(sum.Spec.Benchmarks), len(sum.Spec.Litmus), sum.Spec.Runs, sum.Spec.SeedBase)
	if p := sum.Provenance; p != nil {
		fmt.Fprintf(w, "build: %s %s/%s", p.GoVersion, p.GOOS, p.GOARCH)
		if p.Module != "" {
			fmt.Fprintf(w, " %s", p.Module)
			if p.ModuleVersion != "" {
				fmt.Fprintf(w, "@%s", p.ModuleVersion)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "wall clock: %s\n", harness.FmtDuration(time.Duration(sum.WallNS)))

	writeSlowCells(w, sum, opts.TopSlow)
	writeFindings(w, sum)
	writeRaceTimeline(w, events)
	writeConvergence(w, events)
	writeCaptureIndex(w, man, opts.CaptureDir)
}

// writeFindings renders the analyzer pipeline's results (schema v7): the
// per-analyzer rollups and each deduplicated finding with its one-command
// repro line.
func writeFindings(w io.Writer, sum *Summary) {
	for _, ts := range sum.Tools {
		if len(ts.Analyzers) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n%s: analyzer findings:\n", ts.Tool)
		tb := &harness.Table{Header: []string{"analyzer", "distinct", "hits"}}
		for _, as := range ts.Analyzers {
			tb.AddRow(as.Analyzer, fmt.Sprintf("%d", as.Distinct), fmt.Sprintf("%d", as.Count))
		}
		fmt.Fprint(w, tb.String())
		for _, f := range ts.Findings {
			program := f.Program
			if f.Litmus {
				program = "litmus/" + program
			}
			fmt.Fprintf(w, "  [%s] %s: %s (×%d)\n    repro: %s\n",
				f.Analyzer, program, f.Description, f.Count, f.Repro.Command())
		}
	}
}

// writeSlowCells renders the top cells by p99 ns/exec with their execution
// counts, schedule-length quantiles and per-phase mean breakdowns (phase
// mean = histogram Sum/Count). The schedule length tells a tail of longer
// schedules from a tail of dearer steps.
func writeSlowCells(w io.Writer, sum *Summary, top int) {
	var cells []slowCell
	for _, ts := range sum.Tools {
		for _, c := range ts.Benchmarks {
			if c.Timing != nil {
				cells = append(cells, slowCell{ts.Tool, c.Program, c.Detection.Runs, c.CellHists})
			}
		}
		for _, c := range ts.Litmus {
			if c.Timing != nil {
				cells = append(cells, slowCell{ts.Tool, c.Test, c.Execs, c.CellHists})
			}
		}
	}
	if len(cells) == 0 {
		return
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Timing.P99 != cells[j].Timing.P99 {
			return cells[i].Timing.P99 > cells[j].Timing.P99
		}
		if cells[i].tool != cells[j].tool {
			return cells[i].tool < cells[j].tool
		}
		return cells[i].program < cells[j].program
	})
	if len(cells) > top {
		cells = cells[:top]
	}
	fmt.Fprintf(w, "\ntop %d cell(s) by p99 ns/exec:\n", len(cells))
	tb := &harness.Table{Header: []string{"tool", "program", "p50", "p99", "execs", "sched_len p50/p99", "phase breakdown (mean)"}}
	for _, c := range cells {
		schedLen := "-"
		if h := c.SchedLen; h != nil {
			schedLen = fmt.Sprintf("%d/%d", h.P50, h.P99)
		}
		tb.AddRow(c.tool, c.program,
			harness.FmtDuration(time.Duration(c.Timing.P50)),
			harness.FmtDuration(time.Duration(c.Timing.P99)),
			fmt.Sprintf("%d", c.execs),
			schedLen,
			phaseBreakdown(c.Phases, c.execs))
	}
	fmt.Fprint(w, tb.String())
}

// phaseBreakdown renders the per-phase means in canonical phase order,
// followed by their sample size against the cell's execs: phase spans are
// timed on every timingSample-th execution index only, so the means cover n
// of the execs executions.
func phaseBreakdown(phases map[string]*obs.HistogramSnapshot, execs int) string {
	if len(phases) == 0 {
		return "(no phase spans)"
	}
	out := ""
	var n uint64
	for p := 0; p < core.NumPhases; p++ {
		h := phases[core.Phase(p).String()]
		if h == nil || h.Count == 0 {
			continue
		}
		if out != "" {
			out += "  "
		}
		out += fmt.Sprintf("%s %s", core.Phase(p), harness.FmtDuration(time.Duration(h.Sum/h.Count)))
		n = max(n, h.Count)
	}
	return out + fmt.Sprintf(" (n=%d of %d)", n, execs)
}

// writeRaceTimeline renders when each distinct race was first seen: the
// race_first_seen events sorted by (wave, seed, tool, key).
func writeRaceTimeline(w io.Writer, events []Event) {
	var races []Event
	for _, ev := range events {
		if ev.Type == "race_first_seen" {
			races = append(races, ev)
		}
	}
	if len(races) == 0 {
		return
	}
	sort.Slice(races, func(i, j int) bool {
		a, b := races[i], races[j]
		if a.Wave != b.Wave {
			return a.Wave < b.Wave
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		if a.Tool != b.Tool {
			return a.Tool < b.Tool
		}
		return a.Key < b.Key
	})
	fmt.Fprintf(w, "\nrace timeline (%d first-seen event(s)):\n", len(races))
	tb := &harness.Table{Header: []string{"wave", "seed", "tool", "program", "race key"}}
	for _, ev := range races {
		tb.AddRow(fmt.Sprintf("%d", ev.Wave), fmt.Sprintf("%d", ev.Seed),
			ev.Tool, ev.Program, ev.Key)
	}
	fmt.Fprint(w, tb.String())
}

// writeConvergence renders each cell's convergence curve: the
// cell_converge_state snapshots the wave loop emitted at its wave
// barriers, in wave order per cell.
func writeConvergence(w io.Writer, events []Event) {
	type curve struct {
		tool, program string
		points        []Event
	}
	byCell := map[string]*curve{}
	var order []string
	for _, ev := range events {
		if ev.Type != "cell_converge_state" || ev.Converge == nil {
			continue
		}
		key := ev.Tool + "\x00" + ev.Program
		c := byCell[key]
		if c == nil {
			c = &curve{tool: ev.Tool, program: ev.Program}
			byCell[key] = c
			order = append(order, key)
		}
		c.points = append(c.points, ev)
	}
	if len(order) == 0 {
		return
	}
	sort.Strings(order)
	fmt.Fprintf(w, "\nconvergence curves (%d cell(s)):\n", len(order))
	for _, key := range order {
		c := byCell[key]
		sort.SliceStable(c.points, func(i, j int) bool { return c.points[i].Wave < c.points[j].Wave })
		fmt.Fprintf(w, "  %s/%s:\n", c.tool, c.program)
		for _, ev := range c.points {
			st := ev.Converge
			verdict := "diverging"
			if st.Converged {
				verdict = "CONVERGED"
			} else if st.WindowNewInfo {
				verdict = "new info in window"
			}
			fmt.Fprintf(w, "    wave %d: %d execs, rate %.2f (shift %+.3f), %d distinct race(s), L1 %.3f — %s\n",
				ev.Wave, st.Execs, st.DetectionRate, st.RateShift, st.DistinctRaces, st.OutcomeL1, verdict)
		}
	}
}

// writeCaptureIndex renders the flight-recorder manifest with one-command
// repro lines: the captured trace replays under c11trace, and trace-less
// captures (engine failures) fall back to the tool repro triple.
func writeCaptureIndex(w io.Writer, man *obs.Manifest, dir string) {
	if man == nil || len(man.Captures) == 0 {
		return
	}
	fmt.Fprintf(w, "\ncapture index (%d capture(s)):\n", len(man.Captures))
	for _, c := range man.Captures {
		fmt.Fprintf(w, "  %s/%s seed %d — trigger %s", c.Tool, c.Program, c.Seed, c.Trigger)
		if c.Outcome != "" {
			fmt.Fprintf(w, ", outcome %q", c.Outcome)
		}
		if len(c.RaceKeys) > 0 {
			fmt.Fprintf(w, ", %d race key(s)", len(c.RaceKeys))
		}
		fmt.Fprintln(w)
		switch {
		case c.File != "":
			fmt.Fprintf(w, "    repro: go run ./cmd/c11trace replay %s\n", filepath.Join(dir, c.File))
		case c.Err != "":
			fmt.Fprintf(w, "    no trace (%s)\n    repro: %s\n", c.Err, c.Repro)
		default:
			fmt.Fprintf(w, "    repro: %s\n", c.Repro)
		}
	}
}
