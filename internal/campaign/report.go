// report.go is the renderer behind cmd/c11report: it joins the two
// artifacts a campaign leaves behind — the summary rendered from the
// versioned artifact (BENCH_campaign.json) and the record directory's
// manifest — into one human-readable report. The record index is skipped
// when no manifest is given, so the report renders from the artifact alone.
package campaign

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"c11tester/internal/core"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
)

// topSlow bounds the slow-cell table.
const topSlow = 5

// slowCell is one row of the slow-cell table: a cell's execution count,
// folded histograms and execution-time p99.
type slowCell struct {
	tool, program string
	execs         int
	h             *hists
	p99           uint64
}

// WriteReport renders the report. sum is required; man may be nil (the
// record index is skipped). recordDir is the directory man was read from:
// it prefixes the trace files in the record index's repro lines, so the
// printed `c11trace replay` command works from the caller's directory. It
// returns how many trace files the manifest names that recordDir lacks;
// each is listed as missing in place of its repro line.
func WriteReport(w io.Writer, sum *Summary, man *obs.Manifest, recordDir string) (missing int) {
	fmt.Fprintf(w, "campaign forensics report (schema v%d)\n", SchemaVersion)
	fmt.Fprintf(w, "matrix: %d tool(s) × (%d benchmark(s) + %d litmus test(s)) × %d runs, seed base %d\n",
		len(sum.Spec.Tools), len(sum.Spec.Benchmarks), len(sum.Spec.Litmus), sum.Spec.Runs, sum.Spec.SeedBase)
	if sum.Partial != "" {
		fmt.Fprintf(w, "partial: %s\n", sum.Partial)
	}
	fmt.Fprint(w, sum.budgetLine())
	if sum.Spec.GuideDir != "" {
		fmt.Fprintf(w, "guided by %d trace(s) from %s\n", sum.Spec.GuideTraces, sum.Spec.GuideDir)
	}
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

	fmt.Fprintf(w, "\nthroughput:\n%s", sum.ThroughputTable())
	if len(sum.Spec.Benchmarks) > 0 {
		fmt.Fprintf(w, "\ndetection rates (Table 2):\n%s", sum.DetectionTable())
	}
	writeSlowCells(w, sum)
	writeOutcomes(w, sum)
	writeFindings(w, sum)
	writeRaceTimeline(w, sum)
	writeConvergence(w, sum)
	writeSoundness(w, sum)
	return writeRecordIndex(w, man, recordDir)
}

// writeOutcomes renders each litmus cell's outcome histogram, one line per
// (test, tool), with each outcome tagged by what the test says of it:
// !FORBIDDEN (forbidden for this tool: a soundness bug), ~fragment-gap
// (forbidden only for the commit-order baselines, so under the full fragment
// it is the allowed witness of the gap, Section 1.1), or ~weak (allowed, not
// SC).
func writeOutcomes(w io.Writer, sum *Summary) {
	if len(sum.Spec.Litmus) == 0 {
		return
	}
	fmt.Fprintf(w, "\nlitmus outcome histograms:\n")
	for l, name := range sum.Spec.Litmus {
		test, _ := litmus.ByName(name)
		if test != nil {
			fmt.Fprintf(w, "  %s — %s\n", name, test.Doc)
		} else {
			fmt.Fprintf(w, "  %s\n", name)
		}
		for _, ts := range sum.Tools {
			cell := ts.Litmus[l]
			fmt.Fprintf(w, "    %-10s", ts.Tool)
			for _, outcome := range harness.SortedKeys(cell.Outcomes) {
				tag := ""
				switch {
				case slices.ContainsFunc(cell.ForbiddenSeen, func(f ForbiddenOutcome) bool { return f.Outcome == outcome }):
					tag = "!FORBIDDEN"
				case test != nil && test.BaselineForbidden[outcome]:
					tag = "~fragment-gap"
				case slices.Contains(cell.WeakSeen, outcome):
					tag = "~weak"
				}
				fmt.Fprintf(w, "  %q×%d%s", outcome, cell.Outcomes[outcome], tag)
			}
			fmt.Fprintf(w, "  (weak %d/%d)\n", len(cell.WeakSeen), cell.WeakDefined)
		}
	}
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
// counts, schedule-length quantiles, per-execution resumes and race checks
// (the per-operation layers, counted rather than timed) and per-phase mean
// breakdowns (phase mean = histogram Sum/Count). The schedule length tells a
// tail of longer schedules from a tail of dearer steps.
func writeSlowCells(w io.Writer, sum *Summary) {
	var cells []slowCell
	add := func(tool, program string, execs int, h *hists) {
		if h != nil && h.ExecNS.Count() > 0 {
			cells = append(cells, slowCell{tool, program, execs, h, h.ExecNS.Quantile(0.99)})
		}
	}
	for _, ts := range sum.Tools {
		for _, c := range ts.Benchmarks {
			add(ts.Tool, c.Program, c.Detection.Runs, c.Hists)
		}
		for _, c := range ts.Litmus {
			add(ts.Tool, c.Test, c.Execs, c.Hists)
		}
	}
	if len(cells) == 0 {
		return
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].p99 != cells[j].p99 {
			return cells[i].p99 > cells[j].p99
		}
		if cells[i].tool != cells[j].tool {
			return cells[i].tool < cells[j].tool
		}
		return cells[i].program < cells[j].program
	})
	if len(cells) > topSlow {
		cells = cells[:topSlow]
	}
	fmt.Fprintf(w, "\ntop %d cell(s) by p99 ns/exec:\n", len(cells))
	tb := &harness.Table{Header: []string{"tool", "program", "p50", "p99", "execs", "sched_len p50/p99",
		"resumes/race checks per exec", "phase breakdown (mean)"}}
	for _, c := range cells {
		schedLen, layers := "-", "-"
		if h := &c.h.SchedLen; h.Count() > 0 {
			schedLen = fmt.Sprintf("%d/%d", h.Quantile(0.50), h.Quantile(0.99))
			if k := c.h.Counts; k != (LayerCounts{}) {
				n := float64(h.Count())
				layers = fmt.Sprintf("%.1f/%.1f", float64(k.Resumes)/n, float64(k.RaceChecks)/n)
			}
		}
		tb.AddRow(c.tool, c.program,
			harness.FmtDuration(time.Duration(c.h.ExecNS.Quantile(0.50))),
			harness.FmtDuration(time.Duration(c.p99)),
			fmt.Sprintf("%d", c.execs),
			schedLen, layers,
			phaseBreakdown(&c.h.PhaseNS, c.execs))
	}
	fmt.Fprint(w, tb.String())
}

// phaseBreakdown renders the per-phase means in canonical phase order,
// followed by their sample size against the cell's execs: phase spans are
// timed on one execution index in every timingSample only (spansSampled),
// so the means cover n of the execs executions.
func phaseBreakdown(phases *[core.NumSpans]obs.Histogram, execs int) string {
	out := ""
	var n uint64
	for p := range phases {
		h := &phases[p]
		c := h.Count()
		if c == 0 {
			continue
		}
		if out != "" {
			out += "  "
		}
		out += fmt.Sprintf("%s %s", core.Phase(p), harness.FmtDuration(time.Duration(h.Sum/c)))
		n = max(n, c)
	}
	if out == "" {
		return "(no phase spans)"
	}
	return out + fmt.Sprintf(" (n=%d of %d)", n, execs)
}

// writeRaceTimeline renders when each distinct benchmark race was first
// seen: one row per (tool, race key) at the seed and program of its earliest
// execution, sorted by (seed, tool, key), each followed by the race's
// description and repro line. Unexpected litmus races are soundness
// failures, rendered by writeSoundness.
func writeRaceTimeline(w io.Writer, sum *Summary) {
	type row struct {
		tool string
		harness.RaceSummary
	}
	var rows []row
	for _, ts := range sum.Tools {
		for _, r := range ts.Races {
			rows = append(rows, row{ts.Tool, r})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Repro.Seed != b.Repro.Seed {
			return a.Repro.Seed < b.Repro.Seed
		}
		if a.tool != b.tool {
			return a.tool < b.tool
		}
		return a.Key < b.Key
	})
	fmt.Fprintf(w, "\nrace timeline (%d distinct race(s)):\n", len(rows))
	tb := &harness.Table{Header: []string{"seed", "tool", "program", "race key"}}
	for _, r := range rows {
		tb.AddRow(fmt.Sprintf("%d", r.Repro.Seed), r.tool, r.Repro.Program, r.Key)
	}
	lines := strings.SplitAfter(tb.String(), "\n")
	fmt.Fprint(w, lines[0], lines[1])
	for i, r := range rows {
		fmt.Fprintf(w, "%s  %s\n  repro: %s\n", lines[2+i], r.Description, r.Repro.Command())
	}
}

// writeConvergence renders each converge cell's convergence curve: the
// tracker states its budget carries, one per wave that granted the cell
// budget, with the cells sorted by (tool, program).
func writeConvergence(w io.Writer, sum *Summary) {
	type curve struct {
		tool, program string
		points        []CurvePoint
	}
	var curves []curve
	add := func(tool, program string, b *BudgetSummary) {
		if b != nil && len(b.Curve) > 0 {
			curves = append(curves, curve{tool, program, b.Curve})
		}
	}
	for _, ts := range sum.Tools {
		for _, c := range ts.Benchmarks {
			add(ts.Tool, c.Program, c.Budget)
		}
		for _, c := range ts.Litmus {
			add(ts.Tool, c.Test, c.Budget)
		}
	}
	if len(curves) == 0 {
		return
	}
	sort.Slice(curves, func(i, j int) bool {
		if curves[i].tool != curves[j].tool {
			return curves[i].tool < curves[j].tool
		}
		return curves[i].program < curves[j].program
	})
	fmt.Fprintf(w, "\nconvergence curves (%d cell(s)):\n", len(curves))
	for _, c := range curves {
		fmt.Fprintf(w, "  %s/%s:\n", c.tool, c.program)
		for _, pt := range c.points {
			verdict := "diverging"
			if pt.Converged {
				verdict = "CONVERGED"
			} else if pt.WindowNewInfo {
				verdict = "new info in window"
			}
			fmt.Fprintf(w, "    wave %d: %d execs, rate %.2f (shift %+.3f), %d distinct race(s), L1 %.3f — %s\n",
				pt.Wave, pt.Execs, pt.DetectionRate, pt.RateShift, pt.DistinctRaces, pt.OutcomeL1, verdict)
		}
	}
}

// writeSoundness renders the soundness section: the verdict with every
// failure and its repro line (the headline's), a warning when barrier
// writes of the artifact failed during its run, then each tool's axiomatic
// validation counts and recorded-trace and record-error counts.
func writeSoundness(w io.Writer, sum *Summary) {
	fmt.Fprintln(w)
	sum.writeVerdict(w)
	if n := sum.CheckpointErrors; n > 0 {
		fmt.Fprintf(w, "  WARNING: %d barrier write(s) of this artifact failed during its run: the results are whole, but a kill then would have resumed from an earlier wave\n", n)
	}
	for _, ts := range sum.Tools {
		if v := ts.Validation; v != nil {
			fmt.Fprintf(w, "  %s: axiomatic validation: %d checked, %d skipped, %d violation(s)\n",
				ts.Tool, v.Checked, v.Skipped, v.Violations)
		}
		if ts.RecordedTraces > 0 {
			fmt.Fprintf(w, "  %s: recorded %d trace(s) to %s\n", ts.Tool, ts.RecordedTraces, sum.Spec.RecordDir)
		}
		if ts.RecordErrors > 0 {
			fmt.Fprintf(w, "  %s: WARNING: failed to record %d trace(s) to %s\n", ts.Tool, ts.RecordErrors, sum.Spec.RecordDir)
		}
	}
}

// writeRecordIndex renders the record manifest with one-command repro
// lines: a recorded trace replays under c11trace, and trace-less entries
// (engine failures, traces that could not be written) fall back to the tool
// repro triple. A trace file missing from dir is listed as missing in place
// of its repro line, and counted in the result.
func writeRecordIndex(w io.Writer, man *obs.Manifest, dir string) (missing int) {
	if man == nil || len(man.Captures) == 0 {
		return 0
	}
	fmt.Fprintf(w, "\nrecord index (%d execution(s)):\n", len(man.Captures))
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
			path := filepath.Join(dir, c.File)
			if _, err := os.Stat(path); err != nil {
				missing++
				fmt.Fprintf(w, "    missing: %s\n", path)
				continue
			}
			fmt.Fprintf(w, "    repro: go run ./cmd/c11trace replay %s\n", path)
		case c.Err != "":
			fmt.Fprintf(w, "    no trace (%s)\n    repro: %s\n", c.Err, c.Repro)
		default:
			fmt.Fprintf(w, "    repro: %s\n", c.Repro)
		}
	}
	return missing
}
