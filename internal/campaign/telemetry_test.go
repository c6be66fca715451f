package campaign

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"c11tester/internal/explore"
	"c11tester/internal/litmus"
)

// curveSpec builds the fixed matrix the instrumented-determinism tests run:
// only the worker count varies between invocations, so the unit-of-work set
// is identical. The converge policy at ε = 0.2 (L = 15) stops some cells
// early and extends others over later waves, so the cells' curves span
// several wave barriers.
func curveSpec(t *testing.T, workers int) Spec {
	return Spec{
		Tools: []ToolSpec{
			mustTool(t, "c11tester", ToolOptions{}),
			mustTool(t, "tsan11", ToolOptions{}),
		},
		Benchmarks: []BenchmarkSpec{
			benchSpec(t, "ms-queue"),
			benchSpec(t, "linuxrwlocks"),
			benchSpec(t, "atomic-counter"),
		},
		Litmus: []*litmus.Test{
			mustLitmus(t, "MP+rlx"),
			mustLitmus(t, "CoRR"),
		},
		// The analyzer pipeline participates in the determinism guarantee:
		// findings must be sharding-independent.
		Analyzers: []string{"atomicity", "sc-robustness"},
		Runs:      40,
		SeedBase:  500,
		Workers:   workers,
		ShardSize: 7,
		Policy:    &explore.Converge{Epsilon: 0.2},
	}
}

// checkCurves requires every cell of a converge campaign to carry a
// non-empty convergence curve in wave order whose last point agrees with
// the cell's budget, and returns the most waves any one curve spans.
func checkCurves(t *testing.T, sum *Summary) int {
	t.Helper()
	longest := 0
	check := func(name string, b *BudgetSummary) {
		if b == nil || len(b.Curve) == 0 {
			t.Errorf("%s: no convergence curve (budget %+v)", name, b)
			return
		}
		for i := 1; i < len(b.Curve); i++ {
			if b.Curve[i].Wave <= b.Curve[i-1].Wave || b.Curve[i].Execs <= b.Curve[i-1].Execs {
				t.Errorf("%s: curve points %d and %d out of order: %+v", name, i-1, i, b.Curve)
			}
		}
		last := b.Curve[len(b.Curve)-1]
		if last.Converged != b.Converged || last.Execs != b.Used {
			t.Errorf("%s: last curve point %+v disagrees with budget converged=%v used=%d", name, last, b.Converged, b.Used)
		}
		longest = max(longest, len(b.Curve))
	}
	for _, ts := range sum.Tools {
		for _, c := range ts.Benchmarks {
			check(ts.Tool+"/"+c.Program, c.Budget)
		}
		for _, c := range ts.Litmus {
			check(ts.Tool+"/"+c.Test, c.Budget)
		}
	}
	return longest
}

// TestInstrumentedDeterminismUnderSharding extends the campaign determinism
// guarantee to the convergence curves: workers=1 and workers=4 must produce
// byte-identical canonicalized summaries, curves included, and every cell's
// curve must be present and agree with its budget.
func TestInstrumentedDeterminismUnderSharding(t *testing.T) {
	serial, sharded := Run(curveSpec(t, 1)), Run(curveSpec(t, 4))
	if a, b := canonicalJSON(t, serial), canonicalJSON(t, sharded); a != b {
		t.Errorf("aggregates differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s", a, b)
	}
	if n := checkCurves(t, serial); n < 2 {
		t.Errorf("longest curve spans %d wave(s), want ≥ 2: the extension waves are untested", n)
	}
	if len(serial.Tools[0].Findings) == 0 || len(serial.Tools[0].Races) == 0 {
		t.Error("matrix found no races or analyzer findings: the determinism check is vacuous for them")
	}
}

// TestTimingSampledPerIndex pins the two timing samples: a cell's wall time
// is taken on every timingSample-th execution index from 0, and its phase
// spans on the disjoint indices halfway between, which share one
// denominator. A one-execution cell gets its one wall-time sample and no
// span sample. Nothing is timed per operation: checkSampledCounts finds no
// race span, and the summary has no handoff-wait histogram.
func TestTimingSampledPerIndex(t *testing.T) {
	for _, runs := range []int{1, 33} {
		sum := Run(Spec{
			Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{}), mustTool(t, "tsan11", ToolOptions{})},
			Benchmarks:     []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:         []*litmus.Test{mustLitmus(t, "MP+rlx")},
			Runs:           runs,
			SeedBase:       1,
			Workers:        2,
			ShardSize:      5,
			ValidateAxioms: true,
		})
		checkSampledCounts(t, sum)
		wall, spans := sampledIn(runs, wallSampled), sampledIn(runs, spansSampled)
		for key, n := range phaseCounts(sum) {
			if n != spans {
				t.Errorf("runs=%d: %s counted %d samples, want %d", runs, key, n, spans)
			}
		}
		_, validated := phaseCounts(sum)["c11tester/MP+rlx/validate"]
		if validated != (spans > 0) {
			t.Errorf("runs=%d: validate span present=%v, want it on the %d span-sampled execution(s)",
				runs, validated, spans)
		}
		for _, ts := range sum.Tools {
			c := ts.Benchmarks[0]
			if c.Timing == nil || c.Timing.Count != wall {
				t.Errorf("runs=%d: %s timing histogram = %+v, want %d samples", runs, ts.Tool, c.Timing, wall)
			}
		}
	}
}

// TestTelemetryFoldWithoutStream pins the progress lines: they do not
// change the campaign's outcome, and their distinct-race count is the
// summary's distinct (tool, race key) pairs — a key two tools both find
// counts twice.
func TestTelemetryFoldWithoutStream(t *testing.T) {
	var progress bytes.Buffer
	spec := curveSpec(t, 1) // one worker keeps the periodic lines deterministic
	spec.Progress = &progress
	sum := Run(spec)
	if a, b := canonicalJSON(t, sum), canonicalJSON(t, Run(curveSpec(t, 1))); a != b {
		t.Errorf("progress lines changed the summary:\nwith:    %s\nwithout: %s", a, b)
	}
	lines := progress.String()
	if !strings.Contains(lines, "progress: ") {
		t.Errorf("no periodic progress line:\n%s", lines)
	}

	pairs := map[[2]string]bool{}
	tools := map[string]map[string]bool{} // key → tools that found it
	for _, ts := range sum.Tools {
		for _, r := range slices.Concat(ts.Races, ts.UnexpectedRaces) {
			pairs[[2]string{ts.Tool, r.Key}] = true
			if tools[r.Key] == nil {
				tools[r.Key] = map[string]bool{}
			}
			tools[r.Key][ts.Tool] = true
		}
	}
	// The last wave line carries the campaign's final distinct-race count.
	all := strings.Split(strings.TrimSpace(lines), "\n")
	var wave, done, planned, conv, cells, races, fails int
	if _, err := fmt.Sscanf(all[len(all)-1], "wave %d: %d/%d execs, %d/%d cells converged, %d distinct race(s), %d failure(s)",
		&wave, &done, &planned, &conv, &cells, &races, &fails); err != nil {
		t.Fatalf("last progress line %q: %v", all[len(all)-1], err)
	}
	if len(pairs) == 0 || len(pairs) != races {
		t.Errorf("progress reports %d distinct race(s), summary has %d distinct (tool, key) pairs", races, len(pairs))
	}
	used, _, converged, _, _ := sum.BudgetReport()
	if done != used || conv != converged {
		t.Errorf("last wave line reports %d execs and %d converged cell(s), summary %d and %d", done, conv, used, converged)
	}
	shared := false
	for _, ts := range tools {
		shared = shared || len(ts) > 1
	}
	if !shared {
		t.Error("no race key found by two tools: the (tool, key) pairing is untested")
	}
}
