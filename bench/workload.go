package main

import (
	"fmt"
	"math"
	"strings"

	"c11tester/internal/analysis"
	"c11tester/internal/campaign"
	"c11tester/internal/litmus"
	"c11tester/internal/structures"
)

// workload is one campaign shape the benchmark measures. runs is the
// per-cell execution budget of one timed rep at -scale 1, sized so that a rep
// takes about a second on a 2-core x86-64 host.
type workload struct {
	name    string
	tools   []string
	benches []string // benchmark programs (structures names)
	litmus  bool     // every litmus test
	runs    int
	workers int
	// duties turns on the post-execution layers: axiomatic validation of
	// every execution and every registered analyzer. Duty workloads run
	// c11tester only, the one tool whose model exposes modification orders.
	duties bool
}

// paperBenches lists the nine programs of the paper's evaluation matrix
// (`-bench all`).
func paperBenches() []string {
	var names []string
	for _, b := range structures.All() {
		names = append(names, b.Name)
	}
	return names
}

// workloads stress different layers (BENCHMARK.json gives each one's reason):
// litmus executions are ~13 steps, so fixed per-execution and per-shard
// costs dominate; structures executions are ~100 steps of model and race
// work; duties adds the post-execution layers; paper-matrix is the CLI's
// default three-tool campaign on two workers.
var workloads = []workload{
	{name: "litmus", tools: []string{"c11tester"}, litmus: true, runs: 5000, workers: 1},
	{name: "structures", tools: []string{"c11tester"}, benches: paperBenches(), runs: 1000, workers: 1},
	{name: "duties", tools: []string{"c11tester"}, benches: append(paperBenches(), "atomic-counter"),
		litmus: true, runs: 400, workers: 1, duties: true},
	{name: "paper-matrix", tools: campaign.StandardToolNames(), benches: paperBenches(),
		litmus: true, runs: 300, workers: 2},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

// budget is the per-cell execution count of one rep at the given scale.
func (w workload) budget(scale float64) int {
	return max(1, int(math.Round(float64(w.runs)*scale)))
}

// seedBase maps the workload seed to the campaign's seed base: execution i of
// every cell runs with seedBase+i, so different workload seeds explore
// disjoint seed ranges at any budget below a million executions per cell.
func seedBase(seed int64) int64 { return seed * 1_000_000 }

// spec generates the campaign the program under test sees.
func (w workload) spec(seed int64, runs int) (campaign.Spec, error) {
	s := campaign.Spec{Runs: runs, SeedBase: seedBase(seed), Workers: w.workers}
	for _, name := range w.tools {
		ts, err := campaign.StandardTool(name, campaign.ToolOptions{})
		if err != nil {
			return s, err
		}
		s.Tools = append(s.Tools, ts)
	}
	var err error
	if s.Benchmarks, err = campaign.SelectBenchmarks(strings.Join(w.benches, ",")); err != nil {
		return s, err
	}
	if w.litmus {
		s.Litmus = litmus.Tests()
	}
	if w.duties {
		s.ValidateAxioms = true
		s.Analyzers = analysis.Names()
	}
	return s, s.Validate()
}

// units is the number of tool instances one rep constructs: one per shard
// of campaign.Spec's default 25 executions.
func units(s campaign.Spec) int {
	const shard = 25
	cells := len(s.Tools) * (len(s.Benchmarks) + len(s.Litmus))
	return cells * ((s.Runs + shard - 1) / shard)
}
