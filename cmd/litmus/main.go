// Command litmus runs the weak-memory litmus suite (internal/litmus) under
// one or more tools and prints the full outcome histograms — the detailed
// view behind cmd/c11tester's summary matrix. Forbidden outcomes (and, for
// the baselines, their additionally-forbidden fragment-gap outcomes) are
// flagged, and the command exits 2 if any was observed.
//
// Examples:
//
//	go run ./cmd/litmus -runs 500                 # whole suite, all tools
//	go run ./cmd/litmus -tools c11tester -tests IRIW+sc,IRIW+acq
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"c11tester/internal/campaign"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("litmus", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		tools     = fs.String("tools", strings.Join(campaign.StandardToolNames(), ","), "comma-separated tools to run")
		tests     = fs.String("tests", "all", "comma-separated litmus tests or 'all'")
		runs      = fs.Int("runs", 300, "executions per (tool, test) cell")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		seed      = fs.Int64("seed", 1, "seed base; execution i runs with seed+i")
		policy    = fs.String("policy", "uniform", "per-cell budget policy: uniform or converge")
		analyzers = fs.String("analyzers", "", "comma-separated execution analyzers to run per cell, 'all', or 'none'")
		epsilon   = fs.Float64("epsilon", 0, "converge policy: ε, its one parameter — a cell stops only after ⌈3/ε⌉ executions with no new race key or outcome, so a key seen in ≥ ε of executions is kept with ≥ 95% probability (0 = default 0.02)")
		quiet     = fs.Bool("q", false, "suppress progress lines on stderr")
		list      = fs.Bool("list", false, "list the litmus suite and exit")
	)
	var tflags campaign.TelemetryFlags
	tflags.Register(fs)
	var cflags campaign.CrashFlags
	cflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	tflags.Quiet = *quiet
	if *list {
		for _, t := range litmus.Tests() {
			fmt.Fprintf(out, "%-14s %s\n", t.Name, t.Doc)
		}
		return 0
	}

	pol, err := campaign.ParsePolicy(*policy, *epsilon)
	if err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		return 1
	}
	spec := campaign.Spec{Runs: *runs, SeedBase: *seed, Workers: *workers, Policy: pol,
		Analyzers: campaign.ParseAnalyzers(*analyzers)}
	for _, name := range campaign.SplitList(*tools) {
		ts, err := campaign.StandardTool(name, campaign.ToolOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "litmus:", err)
			return 1
		}
		spec.Tools = append(spec.Tools, ts)
	}
	if *tests == "all" {
		spec.Litmus = litmus.Tests()
	} else {
		for _, name := range campaign.SplitList(*tests) {
			t, ok := litmus.ByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "litmus: unknown test %q (see -list)\n", name)
				return 1
			}
			spec.Litmus = append(spec.Litmus, t)
		}
	}
	if err := tflags.ApplyCaptureFlags(&spec); err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		return 1
	}
	if err := cflags.Apply(&spec, tflags.EventsPath, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		return 1
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "litmus:", err)
		return 1
	}

	// The telemetry wiring (-events, -v, progress lines) is the helper
	// shared with cmd/c11tester, so both commands expose the same telemetry.
	tel, cleanup, err := campaign.SetupTelemetry("litmus", tflags)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer cleanup()
	spec.Telemetry = tel

	sum := campaign.Run(spec)

	for l, test := range spec.Litmus {
		fmt.Fprintf(out, "%s — %s\n", test.Name, test.Doc)
		for ti, ts := range sum.Tools {
			cell := ts.Litmus[l]
			fmt.Fprintf(out, "  %-10s", ts.Tool)
			for _, outcome := range harness.SortedKeys(cell.Outcomes) {
				// Forbidden-for-this-tool trumps everything; for the full
				// fragment, a BaselineForbidden outcome is the allowed
				// fragment-gap witness (Section 1.1), which is more telling
				// than the generic weak tag.
				tag := ""
				switch {
				case test.Forbidden[outcome],
					spec.Tools[ti].Baseline && test.BaselineForbidden[outcome]:
					tag = "!FORBIDDEN"
				case test.BaselineForbidden[outcome]:
					tag = "~fragment-gap"
				case test.Weak[outcome]:
					tag = "~weak"
				}
				fmt.Fprintf(out, "  %q×%d%s", outcome, cell.Outcomes[outcome], tag)
			}
			fmt.Fprintf(out, "  (weak %d/%d)\n", len(cell.WeakSeen), cell.WeakDefined)
		}
	}

	for _, ts := range sum.Tools {
		for _, f := range ts.Findings {
			fmt.Fprintf(out, "FINDING [%s] %s: %s (×%d)\n  repro: %s\n",
				f.Analyzer, f.Program, f.Description, f.Count, f.Repro.Command())
		}
	}
	for _, f := range sum.Forbidden() {
		fmt.Fprintf(out, "FORBIDDEN OUTCOME: %s %s=%q ×%d\n  repro: %s\n",
			f.Repro.Tool, f.Test, f.Outcome, f.Count, f.Repro.Command())
	}
	for _, r := range sum.UnexpectedRaces() {
		fmt.Fprintf(out, "UNEXPECTED RACE: %s\n  repro: %s\n", r.Description, r.Repro.Command())
	}
	// Engine failures go to stderr with their repro triples via the helper
	// shared with cmd/c11tester, so scripts piping stdout still see them.
	campaign.WriteEngineFailures(os.Stderr, sum)
	// Failed also covers soundness signals with no detailed line above
	// (e.g. axiom violations from a future -validate flag here).
	if sum.Failed() {
		return 2
	}
	total := 0
	for _, ts := range sum.Tools {
		total += ts.Execs
	}
	fmt.Fprintf(out, "\nno forbidden outcomes in %d executions\n", total)
	if used, planned, converged, cells, ok := sum.BudgetReport(); ok {
		fmt.Fprintf(out, "budget: %d/%d executions (%.0f%% of uniform), %d/%d cells converged\n",
			used, planned, 100*float64(used)/float64(planned), converged, cells)
	}
	return 0
}
