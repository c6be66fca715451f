// Command c11tester runs exploration campaigns: (tool × program × N
// executions) matrices over the paper's benchmark and litmus suites,
// sharded across worker goroutines (internal/campaign), and writes the
// versioned BENCH_campaign.json artifact: the resumable checkpoint of the
// campaign, rewritten at every wave barrier. It prints the campaign's headline
// (matrix shape, wall clock, budget line and soundness verdict); cmd/c11report
// renders the whole artifact.
//
// Examples:
//
//	go run ./cmd/c11tester -runs 200                          # full matrix
//	go run ./cmd/c11tester -tools c11tester -bench ms-queue \
//	    -runs 1 -seed 1042                                    # replay one execution
//	go run ./cmd/c11tester -list                              # show selectable names
//
// The command exits 2 when the campaign observed a memory-model soundness
// problem: a forbidden litmus outcome, a data race reported inside a litmus
// program (which only performs atomic accesses), an axiomatic-model
// violation, or an execution the engine aborted with an infeasible
// memory-model state. It then prints the headline, with every failure's
// repro line, on stderr, even under -q.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"c11tester/internal/analysis"
	"c11tester/internal/campaign"
	"c11tester/internal/litmus"
	"c11tester/internal/obs"
	"c11tester/internal/structures"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("c11tester", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		tools     = fs.String("tools", strings.Join(campaign.StandardToolNames(), ","), "comma-separated tools to run")
		bench     = fs.String("bench", "all", "comma-separated benchmarks ('all' adds the paper's set), or 'none'")
		lit       = fs.String("litmus", "all", "comma-separated litmus tests, 'all', or 'none'")
		runs      = fs.Int("runs", 100, "executions per (tool, program) cell")
		workers   = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		shardSz   = fs.Int("shard-size", 0, "executions per work chunk (0 = default)")
		seed      = fs.Int64("seed", 1, "seed base; execution i runs with seed+i")
		jsonPath  = fs.String("json", "BENCH_campaign.json", "campaign artifact path, written at every wave barrier and resumable with -resume ('' disables)")
		policy    = fs.String("policy", "uniform", "per-cell budget policy: uniform, or converge (stop a cell early once its statistics stabilize and reassign the freed budget)")
		epsilon   = fs.Float64("epsilon", 0, "converge policy: ε, its one parameter — a cell stops only after ⌈3/ε⌉ executions with no new race key or outcome, so a key seen in ≥ ε of executions is kept with ≥ 95% probability (0 = default 0.02)")
		guide     = fs.String("guide", "", "directory of recorded traces for trace-guided exploration: matching cells replay the first 50-100% of a recorded schedule before exploring live ('' disables)")
		record    = fs.String("record", "", "directory to persist portable traces of the executions -record-on selects, indexed by a manifest.json ('' disables)")
		recordOn  = fs.String("record-on", "hit", "with -record, comma-separated triggers that owe an execution a trace: hit (a detection signal, race or forbidden outcome), all, new_race, forbidden, infeasible (a trace-less manifest entry), slow_steps (a schedule longer than the unit's trailing p99, at most 2 per unit)")
		validate  = fs.Bool("validate", false, "axiom-check every explored execution against the Appendix A model")
		analyzers = fs.String("analyzers", "", "comma-separated execution analyzers to run per cell, 'all', or 'none' (see -list)")
		quiet     = fs.Bool("q", false, "suppress the headline on a passing campaign and the stderr progress lines")
		list      = fs.Bool("list", false, "list selectable tools, benchmarks, and litmus tests")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the campaign to this file")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile taken after the campaign to this file")
	)
	var cflags campaign.CrashFlags
	cflags.Register(fs)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		fmt.Fprintf(out, "tools:      %s\n", strings.Join(campaign.StandardToolNames(), " "))
		fmt.Fprintf(out, "benchmarks: %s\n", strings.Join(structures.Names(), " "))
		fmt.Fprintf(out, "litmus:     %s\n", strings.Join(litmus.Names(), " "))
		fmt.Fprintf(out, "analyzers:  %s\n", strings.Join(analysis.Names(), " "))
		return 0
	}

	recOn, err := obs.ParseTriggers(*recordOn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester: -record-on:", err)
		return 1
	}
	if *record == "" {
		set := false
		fs.Visit(func(f *flag.Flag) { set = set || f.Name == "record-on" })
		if set {
			fmt.Fprintln(os.Stderr, "c11tester: -record-on requires -record")
			return 1
		}
		recOn = 0
	}
	pol, err := campaign.ParsePolicy(*policy, *epsilon)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return 1
	}
	spec := campaign.Spec{
		Runs: *runs, SeedBase: *seed,
		Workers: *workers, ShardSize: *shardSz,
		Policy:    pol,
		RecordDir: *record, RecordOn: recOn,
		ValidateAxioms: *validate,
		Analyzers:      campaign.ParseAnalyzers(*analyzers),
		CheckpointPath: *jsonPath,
	}
	if *guide != "" {
		guides, err := campaign.LoadGuides(*guide)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11tester:", err)
			return 1
		}
		spec.Guides = guides
	}
	for _, name := range campaign.SplitList(*tools) {
		ts, err := campaign.StandardTool(name, campaign.ToolOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11tester:", err)
			return 1
		}
		spec.Tools = append(spec.Tools, ts)
	}
	spec.Benchmarks, err = campaign.SelectBenchmarks(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return 1
	}
	spec.Litmus, err = campaign.SelectLitmus(*lit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return 1
	}
	// Crash-safety flags resolve after the matrix so -resume can validate the
	// artifact's spec echo against the fully-built spec.
	if err := cflags.Apply(&spec, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return 1
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", err)
		return 1
	}
	// The record directory is made only for a command that will run, so a
	// refused one leaves nothing behind.
	if *record != "" {
		if err := os.MkdirAll(*record, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -record:", err)
			return 1
		}
	}

	if !*quiet {
		spec.Progress = os.Stderr
	}

	// Profiling hooks: make hot-path investigation a one-liner
	// (go run ./cmd/c11tester -runs 200 -cpuprofile cpu.pb.gz, then
	// go tool pprof cpu.pb.gz).
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -cpuprofile:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -cpuprofile:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	sum := campaign.Run(spec)

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -memprofile:", err)
			return 1
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date in-use statistics in the profile
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "c11tester: -memprofile:", err)
			return 1
		}
	}

	switch {
	case sum.Failed():
		fmt.Fprint(os.Stderr, sum)
	case !*quiet:
		fmt.Fprint(out, sum)
	}
	if sum.WriteErr != nil {
		fmt.Fprintln(os.Stderr, "c11tester:", sum.WriteErr)
		return 1
	}
	if *jsonPath != "" && !*quiet {
		fmt.Fprintf(out, "\nwrote %s\n", *jsonPath)
	}
	if sum.Failed() {
		return 2
	}
	if n := sum.RecordErrors(); n > 0 {
		fmt.Fprintf(os.Stderr, "c11tester: failed to record %d trace(s) to %s\n", n, *record)
		return 1
	}
	return 0
}
