package campaign

import "testing"

// Full-matrix and litmus-heavy campaign shapes, benchmarked end to end
// (shard loop, tool construction, aggregation). Workers=1 keeps the numbers
// serial and comparable to BenchmarkSingleExecutionSteadyState's
// per-execution cost.

func mkBenchCampaign(b *testing.B, tools string, benchSel, litSel string, runs int) Spec {
	b.Helper()
	var spec Spec
	for _, name := range SplitList(tools) {
		ts, err := StandardTool(name, ToolOptions{})
		if err != nil {
			b.Fatal(err)
		}
		spec.Tools = append(spec.Tools, ts)
	}
	var err error
	spec.Benchmarks, err = SelectBenchmarks(benchSel)
	if err != nil {
		b.Fatal(err)
	}
	spec.Litmus, err = SelectLitmus(litSel)
	if err != nil {
		b.Fatal(err)
	}
	spec.Runs = runs
	spec.SeedBase = 1
	spec.Workers = 1
	return spec
}

// BenchmarkCampaignFullMatrix is the 3-tool × (benchmark + litmus) matrix at
// a small run count: the shape of the committed BENCH_campaign.json runs.
func BenchmarkCampaignFullMatrix(b *testing.B) {
	spec := mkBenchCampaign(b, "c11tester,tsan11,tsan11rec", "ms-queue,seqlock", "MP+rel+acq,SB+sc", 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(spec)
	}
}

// BenchmarkCampaignLitmusHeavy sweeps the whole litmus suite under the full
// C11 model — the 1300-execution CI campaign's shape, scaled by -benchtime.
func BenchmarkCampaignLitmusHeavy(b *testing.B) {
	spec := mkBenchCampaign(b, "c11tester", "none", "all", 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(spec)
	}
}

// BenchmarkSingleExecutionSteadyState is the per-execution cost on a pooled
// engine; TestZeroAllocSteadyState gates its allocations exactly.
func BenchmarkSingleExecutionSteadyState(b *testing.B) {
	spec, err := StandardTool("c11tester", ToolOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var out string
	tests, err := SelectLitmus("IRIW+acq")
	if err != nil || len(tests) != 1 {
		b.Fatalf("litmus selection: %v", err)
	}
	p := tests[0].Make(&out)
	tool := spec.New()
	for i := 0; i < 3; i++ {
		out = ""
		tool.Execute(p, int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = ""
		tool.Execute(p, int64(i))
	}
}
