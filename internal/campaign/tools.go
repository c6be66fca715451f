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
	"c11tester/internal/rng"
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

// reproFlags renders the non-default cmd/c11tester flags that reconstruct
// this tool configuration, for embedding in reproduction commands.
func (o ToolOptions) reproFlags(tool string) string {
	var parts []string
	switch tool {
	case "c11tester":
		switch o.Prune {
		case core.PruneConservative:
			parts = append(parts, "-prune conservative")
		case core.PruneAggressive:
			parts = append(parts, "-prune aggressive")
		}
		if o.Strategy == "quantum" {
			parts = append(parts, "-sched quantum")
			if o.QuantumMean != 0 {
				parts = append(parts, fmt.Sprintf("-quantum %d", o.QuantumMean))
			}
		}
	case "tsan11":
		if o.QuantumMean != 0 {
			parts = append(parts, fmt.Sprintf("-quantum %d", o.QuantumMean))
		}
	case "tsan11rec":
		if o.FaithfulHandoff {
			parts = append(parts, "-faithful-handoff")
		}
	}
	if o.MaxSteps != 0 {
		parts = append(parts, fmt.Sprintf("-max-steps %d", o.MaxSteps))
	}
	if r := rng.Canonical(o.RNG); r != "pcg" {
		parts = append(parts, "-rng "+r)
	}
	return strings.Join(parts, " ")
}

// ToolOptions configures the standard tool set. The zero value is the
// paper's default configuration for every tool.
type ToolOptions struct {
	// Prune selects the C11Tester memory limiter mode (Section 7.1); the
	// baselines keep bounded histories regardless.
	Prune core.PruneMode
	// Strategy selects the c11tester exploration strategy: "random" (the
	// default) or "quantum" (the uncontrolled-scheduler model).
	Strategy string
	// QuantumMean overrides the mean scheduling quantum for quantum
	// strategies (c11tester with Strategy "quantum", and tsan11).
	QuantumMean int
	// MaxSteps caps execution length; 0 keeps each tool's default.
	MaxSteps uint64
	// FaithfulHandoff runs tsan11rec on kernel-thread condition-variable
	// handoff (the Figure 14 regime) instead of the cheap fiber handoff.
	FaithfulHandoff bool
	// RNG selects the random source behind every decision the tools make
	// ("pcg" — the default splitmix-seeded PCG — or "legacy", math/rand).
	// Changing the source changes every scheduling and reads-from decision,
	// so it is part of the tool identity: repro flags, trace configs, and
	// the spec digest all carry it, and "legacy" reproduces pre-PCG
	// artifacts bit for bit.
	RNG string
}

// pruneName renders a PruneMode as its -prune flag value ("" for off).
func pruneName(p core.PruneMode) string {
	switch p {
	case core.PruneConservative:
		return "conservative"
	case core.PruneAggressive:
		return "aggressive"
	}
	return ""
}

// traceConfig renders the tool configuration into the portable form embedded
// in recorded traces, from which StandardToolFromConfig rebuilds an
// identical tool.
func (o ToolOptions) traceConfig(tool string) trace.ToolConfig {
	tc := trace.ToolConfig{Name: tool, MaxSteps: o.MaxSteps}
	switch tool {
	case "c11tester":
		tc.Prune = pruneName(o.Prune)
		if o.Strategy != "" && o.Strategy != "random" {
			tc.Sched = o.Strategy
			tc.QuantumMean = o.QuantumMean
		}
	case "tsan11":
		tc.QuantumMean = o.QuantumMean
	case "tsan11rec":
		tc.FaithfulHandoff = o.FaithfulHandoff
	}
	if r := rng.Canonical(o.RNG); r != "pcg" {
		tc.RNG = r
	}
	return tc
}

// StandardToolFromConfig rebuilds the tool a trace was recorded under.
func StandardToolFromConfig(tc trace.ToolConfig) (ToolSpec, error) {
	prune, err := ParsePrune(tc.Prune)
	if err != nil {
		return ToolSpec{}, err
	}
	return StandardTool(tc.Name, ToolOptions{
		Prune:           prune,
		Strategy:        tc.Sched,
		QuantumMean:     tc.QuantumMean,
		MaxSteps:        tc.MaxSteps,
		FaithfulHandoff: tc.FaithfulHandoff,
		RNG:             tc.RNG,
	})
}

// ParsePolicy parses a -policy flag value into a budget policy. minExecs,
// window, and epsilon parameterize the converge policy; zero values mean its
// defaults, and negative ones (or a NaN epsilon) are refused rather than
// silently defaulted.
func ParsePolicy(name string, minExecs, window int, epsilon float64) (explore.Policy, error) {
	if minExecs < 0 || window < 0 || !(epsilon >= 0) {
		return nil, fmt.Errorf("policy parameters must be ≥ 0 (0 = default): -min-execs %d, -window %d, -epsilon %g",
			minExecs, window, epsilon)
	}
	switch name {
	case "", "uniform":
		return explore.Uniform{}, nil
	case "converge":
		return explore.Converge{MinExecs: minExecs, Window: window, Epsilon: epsilon}, nil
	}
	return nil, fmt.Errorf("unknown policy %q (want uniform or converge)", name)
}

// ParsePrune parses a -prune flag value.
func ParsePrune(s string) (core.PruneMode, error) {
	switch s {
	case "", "off":
		return core.PruneOff, nil
	case "conservative":
		return core.PruneConservative, nil
	case "aggressive":
		return core.PruneAggressive, nil
	}
	return core.PruneOff, fmt.Errorf("unknown prune mode %q (want off, conservative, or aggressive)", s)
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
	// Validate the rng override once here; the factories below run on
	// worker goroutines where an error has nowhere to go.
	rngKind, err := rng.Parse(opts.RNG)
	if err != nil {
		return ToolSpec{}, err
	}
	switch name {
	case "c11tester":
		strategy := opts.Strategy
		if strategy == "" {
			strategy = "random"
		}
		if strategy != "random" && strategy != "quantum" {
			return ToolSpec{}, fmt.Errorf("unknown scheduler strategy %q (want random or quantum)", strategy)
		}
		return ToolSpec{Name: name, ReproFlags: opts.reproFlags(name), TraceConfig: opts.traceConfig(name), New: func() capi.Tool {
			var strat core.Strategy
			if strategy == "quantum" {
				mean := opts.QuantumMean
				if mean == 0 {
					mean = 150
				}
				strat = core.NewQuantumStrategyKind(rngKind, mean)
			} else {
				strat = core.NewRandomStrategyKind(rngKind)
			}
			return core.New(name, core.NewC11Model(), core.Config{
				StoreBurst: true,
				Prune:      opts.Prune,
				Strategy:   strat,
				MaxSteps:   opts.MaxSteps,
				RNG:        rngKind,
			})
		}}, nil
	case "tsan11":
		return ToolSpec{Name: name, Baseline: true, ReproFlags: opts.reproFlags(name), TraceConfig: opts.traceConfig(name), New: func() capi.Tool {
			return baseline.NewTsan11(baseline.Options{
				QuantumMean: opts.QuantumMean,
				MaxSteps:    opts.MaxSteps,
				RNG:         rngKind,
			})
		}}, nil
	case "tsan11rec":
		return ToolSpec{Name: name, Baseline: true, ReproFlags: opts.reproFlags(name), TraceConfig: opts.traceConfig(name), New: func() capi.Tool {
			return baseline.NewTsan11rec(baseline.Options{
				MaxSteps:    opts.MaxSteps,
				FastHandoff: !opts.FaithfulHandoff,
				RNG:         rngKind,
			})
		}}, nil
	}
	return ToolSpec{}, fmt.Errorf("unknown tool %q (want one of %v)", name, StandardToolNames())
}
