package campaign

import (
	"fmt"
	"strings"

	"c11tester/internal/analysis"
	"c11tester/internal/baseline"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/explore"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
	"c11tester/internal/structures"
	"c11tester/internal/trace"
)

// SplitList parses a comma-separated flag value, trimming whitespace and
// dropping empty entries (shared by the cmd/ flag parsers).
func SplitList(s string) []string {
	var names []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			names = append(names, part)
		}
	}
	return names
}

// ToolOptions configures the standard tool set. The zero value is the
// paper's default configuration for every tool.
type ToolOptions struct {
	// FaithfulHandoff runs tsan11rec on kernel-thread condition-variable
	// handoff (the Figure 14 regime) instead of the cheap fiber handoff.
	FaithfulHandoff bool
}

// ReproFlags renders the non-default cmd/c11tester flags that rebuild the
// tool's configuration, for embedding in reproduction commands (see
// harness.Repro.Flags).
func (t ToolSpec) ReproFlags() string {
	if t.Config.FaithfulHandoff {
		return "-faithful-handoff"
	}
	return ""
}

// StandardToolFromConfig rebuilds the tool a trace was recorded under.
func StandardToolFromConfig(tc trace.ToolConfig) (ToolSpec, error) {
	return StandardTool(tc.Name, ToolOptions{FaithfulHandoff: tc.FaithfulHandoff})
}

// ParsePolicy parses a -policy flag value into a budget policy: nil for
// uniform, the converge policy otherwise. epsilon parameterizes the converge
// policy; 0 means its default, and a negative or NaN epsilon is refused
// rather than silently defaulted.
func ParsePolicy(name string, epsilon float64) (*explore.Converge, error) {
	if !(epsilon >= 0) {
		return nil, fmt.Errorf("policy parameter must be ≥ 0 (0 = default): -epsilon %g", epsilon)
	}
	switch name {
	case "", "uniform":
		return nil, nil
	case "converge":
		return &explore.Converge{Epsilon: epsilon}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (want uniform or converge)", name)
}

// policyName renders a Spec.Policy for the summary spec echo.
func policyName(p *explore.Converge) string {
	if p == nil {
		return "uniform"
	}
	return p.Name()
}

// SelectBenchmarks resolves a -bench flag value ("none"/"", or a
// comma-separated list of names, where "all" stands for the paper's
// benchmarks) into benchmark specs, in list order without duplicates, with
// the right detection signal per suite (races for the data structures,
// assertion violations for the injected-bug suite).
func SelectBenchmarks(sel string) ([]BenchmarkSpec, error) {
	if sel == "none" {
		return nil, nil
	}
	var specs []BenchmarkSpec
	seen := map[string]bool{}
	add := func(b structures.Benchmark) {
		if seen[b.Name] {
			return
		}
		seen[b.Name] = true
		sig := harness.SignalRace
		if structures.IsInjected(b.Name) {
			sig = harness.SignalAssert
		}
		specs = append(specs, BenchmarkSpec{Name: b.Name, New: b.New, Signal: sig})
	}
	for _, name := range SplitList(sel) {
		if name == "all" {
			for _, b := range structures.All() {
				add(b)
			}
			continue
		}
		b, err := structures.ByName(name)
		if err != nil {
			return nil, err
		}
		add(b)
	}
	return specs, nil
}

// SelectLitmus resolves a -litmus flag value ("all", "none"/"", or a
// comma-separated name list) into litmus tests.
func SelectLitmus(sel string) ([]*litmus.Test, error) {
	switch sel {
	case "none", "":
		return nil, nil
	case "all":
		return litmus.Tests(), nil
	}
	var tests []*litmus.Test
	for _, name := range SplitList(sel) {
		t, ok := litmus.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown litmus test %q (see -list)", name)
		}
		tests = append(tests, t)
	}
	return tests, nil
}

// ParseAnalyzers resolves a -analyzers flag value ("all", "none"/"", or a
// comma-separated name list) into analyzer names. Unknown names surface in
// Spec.Validate, which also rejects duplicates.
func ParseAnalyzers(sel string) []string {
	switch sel {
	case "none", "":
		return nil
	case "all":
		return analysis.Names()
	}
	return SplitList(sel)
}

// StandardToolNames lists the tools of the paper's evaluation in its order.
func StandardToolNames() []string {
	return []string{"c11tester", "tsan11", "tsan11rec"}
}

// StandardTool builds the ToolSpec for one of the paper's three tools.
func StandardTool(name string, opts ToolOptions) (ToolSpec, error) {
	switch name {
	case "c11tester":
		return ToolSpec{Name: name, Config: trace.ToolConfig{Name: name}, New: func() capi.Tool {
			return core.New(name, core.NewC11Model(), core.Config{StoreBurst: true})
		}}, nil
	case "tsan11":
		return ToolSpec{Name: name, Baseline: true, Config: trace.ToolConfig{Name: name}, New: func() capi.Tool {
			return baseline.NewTsan11()
		}}, nil
	case "tsan11rec":
		return ToolSpec{Name: name, Baseline: true, Config: trace.ToolConfig{Name: name, FaithfulHandoff: opts.FaithfulHandoff}, New: func() capi.Tool {
			return baseline.NewTsan11rec(opts.FaithfulHandoff)
		}}, nil
	}
	return ToolSpec{}, fmt.Errorf("unknown tool %q (want one of %v)", name, StandardToolNames())
}
