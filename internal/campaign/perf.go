package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"c11tester/internal/capi"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
	"c11tester/internal/rng"
	"c11tester/internal/sched"
)

// Schema identifiers of the serialized perf artifact (BENCH_perf.json). It
// tracks the execution-core hot path across PRs the way BENCH_campaign.json
// tracks detection: ns/exec, allocated bytes/exec, and allocated objects/exec
// per (tool, program) cell. Bump PerfSchemaVersion on any incompatible change
// to the JSON shape.
//
// Schema v2 (the fiber-pool PR) adds the scheduler regime to the spec echo
// (handoff, pooled) and the optional Figure 14 handoff matrix
// (handoff_matrix): ns/exec and allocation counters for every handoff regime
// × {pooled, respawn} scheduler combination.
//
// Schema v3 (the PCG rng PR) adds the rng-source echo ("rng": pcg or
// legacy) to the spec: the source changes every decision stream and the
// work each execution does, so artifacts from different sources are only
// compared with a warning (like handoff regimes). Pre-v3 artifacts were
// measured on the legacy source.
//
// Schema v4 (the coroutine-scheduler PR) drops the pool dimension (the
// spec's and the matrix cells' "pooled"): every regime now runs on pooled
// workers. The handoff is one of sched.HandoffRegimes — "fiber" or
// "osthread" — and LoadPerfSummary refuses a v4 artifact naming any other.
const (
	PerfSchemaName    = "c11tester/perf"
	PerfSchemaVersion = 4
)

// PerfSpec describes a perf measurement run. Unlike a campaign, it is always
// serial (one cell at a time on one goroutine): the point is a clean
// per-execution cost number, not wall-clock throughput.
type PerfSpec struct {
	Tools      []ToolSpec
	Benchmarks []BenchmarkSpec
	Litmus     []*litmus.Test
	// Runs is the number of measured executions per (tool, program) cell.
	Runs int
	// Warmup is the number of unmeasured full sweeps of the measured seed
	// range run first on each cell's tool instance (negative means 0; 0 means
	// the default of 1). Sweeping the exact seed sequence the measurement
	// will use brings every pool and arena to its high-water mark before the
	// window opens, so the measured window reflects the true steady state —
	// with the fiber pool, zero allocations — instead of charging one-time
	// capacity growth at a late seed to the per-execution numbers.
	Warmup int
	// SeedBase seeds measured execution i of a cell with SeedBase+i (warmup
	// sweeps replay the same seeds), mirroring the campaign runner's seeding
	// invariant.
	SeedBase int64
	// Handoff and RNG echo the scheduler regime and random source the
	// spec's tools were built with (ToolOptions.Handoff/RNG) into the
	// artifact, so two BENCH_perf.json files are only compared like for
	// like. They do not themselves configure the tools — the ToolSpec
	// factories do.
	Handoff string
	RNG     string
	// Progress, when non-nil, receives live counters as the sweep runs (cells
	// planned/done, executions) for a -status-addr server. The per-execution
	// update is a single atomic add — it never allocates, so the measured
	// allocation window stays exact.
	Progress *PerfProgress
}

func (s PerfSpec) withDefaults() PerfSpec {
	if s.Runs <= 0 {
		s.Runs = 30
	}
	if s.Warmup == 0 {
		s.Warmup = 1
	} else if s.Warmup < 0 {
		s.Warmup = 0
	}
	return s
}

// PerfCell is the measured cost of one (tool, program) cell.
type PerfCell struct {
	Tool    string `json:"tool"`
	Program string `json:"program"`
	Litmus  bool   `json:"litmus,omitempty"`
	Execs   int    `json:"execs"`

	NsPerExec           float64 `json:"ns_per_exec"`
	AllocBytesPerExec   float64 `json:"alloc_bytes_per_exec"`
	AllocObjectsPerExec float64 `json:"alloc_objects_per_exec"`
	AtomicOpsPerExec    float64 `json:"atomic_ops_per_exec"`
}

// PerfToolSummary aggregates one tool over all measured cells.
type PerfToolSummary struct {
	Tool                string  `json:"tool"`
	Execs               int     `json:"execs"`
	NsPerExec           float64 `json:"ns_per_exec"`
	AllocBytesPerExec   float64 `json:"alloc_bytes_per_exec"`
	AllocObjectsPerExec float64 `json:"alloc_objects_per_exec"`
	ExecsPerSec         float64 `json:"execs_per_sec"`
}

// PerfSpecInfo echoes the measurement parameters into the artifact. Handoff
// (schema v2) names the scheduler regime the main matrix ran in; artifacts
// from different regimes are not comparable and the perf gate warns on a
// mismatch.
type PerfSpecInfo struct {
	Tools    []string `json:"tools"`
	Programs []string `json:"programs"`
	Runs     int      `json:"runs"`
	Warmup   int      `json:"warmup"`
	SeedBase int64    `json:"seed_base"`
	Handoff  string   `json:"handoff,omitempty"`
	// RNG names the random source (schema v3): "pcg" or "legacy". Pre-v3
	// artifacts omit it and were measured on the legacy source.
	RNG string `json:"rng,omitempty"`
}

// HandoffCell is one aggregated measurement of the Figure 14 handoff matrix:
// one tool measured over the spec's programs under one handoff regime. The
// matrix reproduces the paper's Figure 14 comparison — user-level coroutine
// switches (≈ swapcontext fibers) against condition-variable sequencing on
// kernel threads.
type HandoffCell struct {
	Handoff string `json:"handoff"`
	Tool    string `json:"tool"`
	Execs   int    `json:"execs"`

	NsPerExec           float64 `json:"ns_per_exec"`
	AllocBytesPerExec   float64 `json:"alloc_bytes_per_exec"`
	AllocObjectsPerExec float64 `json:"alloc_objects_per_exec"`
}

// PerfSummary is the versioned perf artifact serialized to BENCH_perf.json.
type PerfSummary struct {
	Schema        string            `json:"schema"`
	SchemaVersion int               `json:"schema_version"`
	GoVersion     string            `json:"go_version"`
	Spec          PerfSpecInfo      `json:"spec"`
	Cells         []PerfCell        `json:"cells"`
	Tools         []PerfToolSummary `json:"tools"`
	// HandoffMatrix is the Figure 14 regime comparison (schema v2, optional:
	// cmd/c11bench -fig14).
	HandoffMatrix []HandoffCell `json:"handoff_matrix,omitempty"`
}

// RunPerf measures every (tool, program) cell serially and aggregates the
// artifact. Each cell gets a fresh tool instance; warmup executions bring the
// instance's pools and arenas to steady state before the measured window, so
// the numbers reflect the recycled hot path a long campaign shard sees.
func RunPerf(spec PerfSpec) *PerfSummary {
	spec = spec.withDefaults()
	sum := &PerfSummary{
		Schema:        PerfSchemaName,
		SchemaVersion: PerfSchemaVersion,
		GoVersion:     runtime.Version(),
		Spec: PerfSpecInfo{
			Runs: spec.Runs, Warmup: spec.Warmup, SeedBase: spec.SeedBase,
			Handoff: handoffOrDefault(spec.Handoff),
			RNG:     rng.Canonical(spec.RNG),
			Tools:   []string{}, Programs: []string{},
		},
	}
	for _, t := range spec.Tools {
		sum.Spec.Tools = append(sum.Spec.Tools, t.Name)
	}
	for _, b := range spec.Benchmarks {
		sum.Spec.Programs = append(sum.Spec.Programs, b.Name)
	}
	for _, l := range spec.Litmus {
		sum.Spec.Programs = append(sum.Spec.Programs, l.Name)
	}

	if spec.Progress != nil {
		spec.Progress.begin(len(spec.Tools) * (len(spec.Benchmarks) + len(spec.Litmus)))
	}
	for ti := range spec.Tools {
		var tot PerfCell
		for _, b := range spec.Benchmarks {
			cell := measureCell(spec, ti, b.Name, false, b.New(), nil)
			sum.Cells = append(sum.Cells, cell)
			accumulate(&tot, cell)
		}
		for _, l := range spec.Litmus {
			var out string
			prog := l.Make(&out)
			cell := measureCell(spec, ti, l.Name, true, prog, func() { out = "" })
			sum.Cells = append(sum.Cells, cell)
			accumulate(&tot, cell)
		}
		ts := PerfToolSummary{Tool: spec.Tools[ti].Name, Execs: tot.Execs}
		if tot.Execs > 0 {
			ts.NsPerExec = tot.NsPerExec / float64(tot.Execs)
			ts.AllocBytesPerExec = tot.AllocBytesPerExec / float64(tot.Execs)
			ts.AllocObjectsPerExec = tot.AllocObjectsPerExec / float64(tot.Execs)
			ts.ExecsPerSec = 1e9 / ts.NsPerExec
		}
		sum.Tools = append(sum.Tools, ts)
	}
	return sum
}

// accumulate folds a cell into a per-tool running total; the per-exec fields
// of tot temporarily hold sums, normalized by RunPerf once the tool is done.
func accumulate(tot *PerfCell, cell PerfCell) {
	tot.Execs += cell.Execs
	tot.NsPerExec += cell.NsPerExec * float64(cell.Execs)
	tot.AllocBytesPerExec += cell.AllocBytesPerExec * float64(cell.Execs)
	tot.AllocObjectsPerExec += cell.AllocObjectsPerExec * float64(cell.Execs)
}

// measureCell runs one (tool, program) cell: warmup executions on a fresh
// tool instance, then a measured window bracketed by monotonic-clock and
// heap-allocation counter reads. The allocation counters are process-global;
// RunPerf is strictly serial, so within one process they are attributable to
// the cell (the same convention as the campaign's Workers=1 counters).
func measureCell(spec PerfSpec, ti int, program string, isLit bool, prog capi.Program, reset func()) PerfCell {
	tool := spec.Tools[ti].New()
	defer closeTool(tool)
	if spec.Progress != nil {
		spec.Progress.setCurrent(spec.Tools[ti].Name + "/" + program)
		defer spec.Progress.CellsDone.Inc()
	}
	run := func(i int) *capi.Result {
		if reset != nil {
			reset()
		}
		res := tool.Execute(prog, spec.SeedBase+int64(i))
		if spec.Progress != nil {
			spec.Progress.Execs.Inc()
		}
		return res
	}
	// Warmup sweeps replay the exact seed sequence the measured window uses,
	// so every capacity high-water mark is reached before measurement.
	for s := 0; s < spec.Warmup; s++ {
		for i := 0; i < spec.Runs; i++ {
			run(i)
		}
	}
	// A forced collection pins the GC phase at the window boundary, so
	// whether a background cycle lands inside the measured window — and the
	// runtime-internal allocations that come with it — does not vary run to
	// run. This is what lets the trajectory gate hold alloc counters to a
	// tight tolerance.
	runtime.GC()
	var atomicOps uint64
	b0, o0 := readAllocCounters()
	start := time.Now()
	for i := 0; i < spec.Runs; i++ {
		res := run(i)
		atomicOps += res.Stats.AtomicOps
	}
	elapsed := time.Since(start)
	b1, o1 := readAllocCounters()

	n := float64(spec.Runs)
	return PerfCell{
		Tool: spec.Tools[ti].Name, Program: program, Litmus: isLit,
		Execs:               spec.Runs,
		NsPerExec:           float64(elapsed.Nanoseconds()) / n,
		AllocBytesPerExec:   float64(b1-b0) / n,
		AllocObjectsPerExec: float64(o1-o0) / n,
		AtomicOpsPerExec:    float64(atomicOps) / n,
	}
}

// handoffOrDefault normalizes an empty handoff name to the default regime
// (sched.HandoffName of the zero Config).
func handoffOrDefault(name string) string {
	if name == "" {
		return sched.HandoffName(sched.Config{})
	}
	return name
}

// rngOrDefault resolves the rng source an artifact was measured on: pre-v3
// artifacts omit the echo and were drawn from the legacy math/rand source.
func rngOrDefault(name string, schemaVersion int) string {
	if name == "" {
		if schemaVersion < 3 {
			return "legacy"
		}
		return rng.Canonical("")
	}
	return name
}

// RunHandoffMatrix measures the Figure 14 design space: every handoff regime
// (fiber, osthread), for each named tool, over the spec's programs. Each
// regime reuses the serial RunPerf machinery with tools rebuilt under the
// regime, and is aggregated to one HandoffCell. base supplies the
// non-scheduler tool options. prior, when non-nil, is a summary already
// measured over the same spec (cmd/c11bench's main run); its regime is copied
// from its per-tool aggregates instead of being measured a second time.
func RunHandoffMatrix(spec PerfSpec, toolNames []string, base ToolOptions, prior *PerfSummary) ([]HandoffCell, error) {
	var out []HandoffCell
	for _, regime := range sched.HandoffRegimes() {
		for _, name := range toolNames {
			if cell, ok := priorCell(prior, regime, name); ok {
				out = append(out, cell)
				continue
			}
			opts := base
			opts.Handoff = regime
			ts, err := StandardTool(name, opts)
			if err != nil {
				return nil, err
			}
			sub := spec
			sub.Tools = []ToolSpec{ts}
			sub.Handoff = regime
			sum := RunPerf(sub)
			out = append(out, cellFromAgg(regime, sum.Tools[0]))
		}
	}
	return out, nil
}

// cellFromAgg builds a matrix cell from a per-tool RunPerf aggregate.
func cellFromAgg(regime string, agg PerfToolSummary) HandoffCell {
	return HandoffCell{
		Handoff: regime, Tool: agg.Tool,
		Execs:               agg.Execs,
		NsPerExec:           agg.NsPerExec,
		AllocBytesPerExec:   agg.AllocBytesPerExec,
		AllocObjectsPerExec: agg.AllocObjectsPerExec,
	}
}

// priorCell extracts the (regime, tool) matrix cell from an
// already-measured summary, if it covers that combination.
func priorCell(prior *PerfSummary, regime string, tool string) (HandoffCell, bool) {
	if prior == nil || handoffOrDefault(prior.Spec.Handoff) != regime {
		return HandoffCell{}, false
	}
	for _, agg := range prior.Tools {
		if agg.Tool == tool {
			return cellFromAgg(regime, agg), true
		}
	}
	return HandoffCell{}, false
}

// HandoffMatrixString renders the Figure 14 matrix table.
func HandoffMatrixString(cells []HandoffCell) string {
	tb := &harness.Table{Header: []string{"handoff", "tool", "ns/exec", "bytes/exec", "objects/exec"}}
	for _, c := range cells {
		tb.AddRow(c.Handoff, c.Tool,
			fmt.Sprintf("%.0f", c.NsPerExec),
			fmt.Sprintf("%.0f", c.AllocBytesPerExec),
			fmt.Sprintf("%.1f", c.AllocObjectsPerExec))
	}
	return tb.String()
}

// String renders the human-readable perf report.
func (s *PerfSummary) String() string {
	out := fmt.Sprintf("perf: %d tool(s) × %d program(s), %d measured execs/cell (%d warmup), seed base %d, %s handoff, %s rng, %s\n\n",
		len(s.Spec.Tools), len(s.Spec.Programs), s.Spec.Runs, s.Spec.Warmup, s.Spec.SeedBase, handoffOrDefault(s.Spec.Handoff), rngOrDefault(s.Spec.RNG, s.SchemaVersion), s.GoVersion)
	tb := &harness.Table{Header: []string{"tool", "execs", "ns/exec", "bytes/exec", "objects/exec", "execs/sec"}}
	for _, ts := range s.Tools {
		tb.AddRow(ts.Tool,
			fmt.Sprintf("%d", ts.Execs),
			fmt.Sprintf("%.0f", ts.NsPerExec),
			fmt.Sprintf("%.0f", ts.AllocBytesPerExec),
			fmt.Sprintf("%.1f", ts.AllocObjectsPerExec),
			fmt.Sprintf("%.0f", ts.ExecsPerSec))
	}
	out += tb.String()
	ct := &harness.Table{Header: []string{"tool", "program", "ns/exec", "bytes/exec", "objects/exec", "atomic ops/exec"}}
	for _, c := range s.Cells {
		ct.AddRow(c.Tool, c.Program,
			fmt.Sprintf("%.0f", c.NsPerExec),
			fmt.Sprintf("%.0f", c.AllocBytesPerExec),
			fmt.Sprintf("%.1f", c.AllocObjectsPerExec),
			fmt.Sprintf("%.1f", c.AtomicOpsPerExec))
	}
	out += "\nper-cell costs:\n" + ct.String()
	if len(s.HandoffMatrix) > 0 {
		out += "\nFigure 14 handoff matrix:\n" + HandoffMatrixString(s.HandoffMatrix)
	}
	return out
}

// WriteJSON writes the indented artifact file (BENCH_perf.json).
func (s *PerfSummary) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadPerfSummary reads a serialized perf artifact and sanity-checks its
// schema header.
func LoadPerfSummary(path string) (*PerfSummary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s PerfSummary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("campaign: %s: %v", path, err)
	}
	if s.Schema != PerfSchemaName {
		return nil, fmt.Errorf("campaign: %s: schema %q, want %q", path, s.Schema, PerfSchemaName)
	}
	if s.SchemaVersion < 1 || s.SchemaVersion > PerfSchemaVersion {
		return nil, fmt.Errorf("campaign: %s: schema version %d, this build understands 1..%d",
			path, s.SchemaVersion, PerfSchemaVersion)
	}
	if s.SchemaVersion >= 4 {
		regimes := []string{handoffOrDefault(s.Spec.Handoff)}
		for _, c := range s.HandoffMatrix {
			regimes = append(regimes, c.Handoff)
		}
		for _, r := range regimes {
			if !slices.Contains(sched.HandoffRegimes(), r) {
				return nil, fmt.Errorf("campaign: %s: handoff regime %q, want one of %v", path, r, sched.HandoffRegimes())
			}
		}
	}
	return &s, nil
}
