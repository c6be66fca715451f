package harness

import (
	"fmt"
	"time"
)

// Repro identifies one execution — which tool ran which program with which
// seed — so any failing execution (a detected race, a forbidden litmus
// outcome) can be replayed with a single command. Tools re-derive every
// scheduling and reads-from choice from the seed, so the triple is a
// complete reproduction recipe.
type Repro struct {
	Tool    string `json:"tool"`
	Program string `json:"program"`
	Seed    int64  `json:"seed"`
	// Litmus marks Program as a litmus-test name rather than a benchmark
	// name, which changes the flag it is replayed through.
	Litmus bool `json:"litmus,omitempty"`
	// Flags are the non-default tool-configuration flags (-prune,
	// -faithful-handoff) the tool ran with. Without them the replay
	// would derive a different execution from the same seed.
	Flags string `json:"flags,omitempty"`
}

// Command renders the one-command replay invocation for this execution. The
// command selects only this program (and no artifact file), so running it
// verbatim has no side effects beyond the replay itself.
func (r Repro) Command() string {
	cmd := "go run ./cmd/c11tester -tools " + r.Tool
	if r.Flags != "" {
		cmd += " " + r.Flags
	}
	sel := fmt.Sprintf("-bench %s -litmus none", r.Program)
	if r.Litmus {
		sel = fmt.Sprintf("-bench none -litmus %s", r.Program)
	}
	return fmt.Sprintf("%s %s -runs 1 -seed %d -json ''", cmd, sel, r.Seed)
}

func (r Repro) String() string {
	return fmt.Sprintf("%s/%s seed=%d", r.Tool, r.Program, r.Seed)
}

// DetectionSummary is the JSON-serializable view of a Detection.
type DetectionSummary struct {
	Runs       int     `json:"runs"`
	Detected   int     `json:"detected"`
	RatePct    float64 `json:"rate_pct"`
	MeanTimeNS int64   `json:"mean_time_ns"`
	AtomicOps  uint64  `json:"atomic_ops"`
	NormalOps  uint64  `json:"normal_ops"`
}

// Summary converts d into its JSON-serializable form.
func (d Detection) Summary() DetectionSummary {
	return DetectionSummary{
		Runs:       d.Runs,
		Detected:   d.Detected,
		RatePct:    d.Rate(),
		MeanTimeNS: int64(d.Time),
		AtomicOps:  d.Ops.AtomicOps,
		NormalOps:  d.Ops.NormalOps,
	}
}

// ExecsPerSec converts a total execution count and wall-clock time into the
// throughput figure the campaign summaries report.
func ExecsPerSec(execs int, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(execs) / wall.Seconds()
}

// RaceSummary is the JSON-serializable view of one deduplicated race report
// plus the reproduction metadata of the execution that first exhibited it.
type RaceSummary struct {
	Key         string `json:"key"`
	Description string `json:"description"`
	Repro       Repro  `json:"repro"`
}
