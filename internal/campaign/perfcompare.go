package campaign

import (
	"fmt"

	"c11tester/internal/harness"
)

// PerfToolDelta is the per-tool movement between two perf artifacts
// (BENCH_perf.json). The allocation counters of a serial perf run are
// deterministic for a given binary and Go version, so they gate exactly
// (within AllocTolPct, default 0); ns/exec is a wall-clock measurement and
// gets a tolerance band instead.
type PerfToolDelta struct {
	Tool string `json:"tool"`

	OldNsPerExec float64 `json:"old_ns_per_exec"`
	NewNsPerExec float64 `json:"new_ns_per_exec"`
	// NsRatio is new over old (>1 is slower).
	NsRatio float64 `json:"ns_ratio"`

	OldBytesPerExec   float64 `json:"old_bytes_per_exec"`
	NewBytesPerExec   float64 `json:"new_bytes_per_exec"`
	OldObjectsPerExec float64 `json:"old_objects_per_exec"`
	NewObjectsPerExec float64 `json:"new_objects_per_exec"`
}

// regressed reports whether this tool moved beyond the comparison's
// tolerances: allocation growth past allocTol (a fraction; 0 means any
// growth), or a slowdown past nsTol.
func (d PerfToolDelta) regressed(nsTol, allocTol float64) bool {
	return growthExceeds(d.OldBytesPerExec, d.NewBytesPerExec, allocTol) ||
		growthExceeds(d.OldObjectsPerExec, d.NewObjectsPerExec, allocTol) ||
		(nsTol >= 0 && d.NsRatio > 1+nsTol)
}

// improvedAllocs reports whether either allocation counter shrank beyond
// allocTol — not a regression, but a signal the committed artifact is stale
// and should be regenerated.
func (d PerfToolDelta) improvedAllocs(allocTol float64) bool {
	return growthExceeds(d.NewBytesPerExec, d.OldBytesPerExec, allocTol) ||
		growthExceeds(d.NewObjectsPerExec, d.OldObjectsPerExec, allocTol)
}

// growthExceeds reports whether new exceeds old by more than tol (a
// fraction of old; tol 0 means any growth beyond float noise).
func growthExceeds(old, new, tol float64) bool {
	// Absolute epsilon absorbs float64 serialization rounding on tiny cells.
	const eps = 1e-9
	return new > old*(1+tol)+eps
}

// PerfComparison diffs two perf artifacts for PR-to-PR hot-path trajectory
// gating: the alloc counters (bytes/exec, objects/exec) gate exactly by
// default, ns/exec within NsTolPct. Tools are matched by name.
type PerfComparison struct {
	Tools        []PerfToolDelta `json:"tools"`
	UnmatchedOld []string        `json:"unmatched_old,omitempty"`
	UnmatchedNew []string        `json:"unmatched_new,omitempty"`
	// NsTolPct and AllocTolPct echo the tolerances the comparison gates
	// with, in percent; NsTolPct < 0 disables the timing leg.
	NsTolPct    float64 `json:"ns_tol_pct"`
	AllocTolPct float64 `json:"alloc_tol_pct"`
	// GoVersionOld/New flag environment skew: allocation counts are only
	// comparable between identical Go versions.
	GoVersionOld string `json:"go_version_old"`
	GoVersionNew string `json:"go_version_new"`
	// RegimeOld/New flag scheduler-regime skew (the handoff regime, schema
	// v2): comparing artifacts from different handoff regimes measures the
	// regime, not the code change.
	RegimeOld string `json:"regime_old,omitempty"`
	RegimeNew string `json:"regime_new,omitempty"`
	// RNGOld/New flag random-source skew (schema v3): changing the source
	// changes every decision stream, so the work measured differs too.
	RNGOld string `json:"rng_old,omitempty"`
	RNGNew string `json:"rng_new,omitempty"`
}

// regimeOf renders a summary's scheduler regime for skew warnings; schema v1
// artifacts predate the fields.
func regimeOf(s *PerfSummary) string {
	if s.SchemaVersion < 2 {
		return ""
	}
	return handoffOrDefault(s.Spec.Handoff)
}

// rngSourceOf resolves the random source a perf artifact was measured on:
// pre-v3 artifacts predate the echo and were drawn from legacy math/rand.
func rngSourceOf(s *PerfSummary) string {
	return rngOrDefault(s.Spec.RNG, s.SchemaVersion)
}

// ComparePerf diffs two perf artifacts. nsTolPct is the ns/exec tolerance
// band in percent (e.g. 20 accepts up to 1.2× slower; negative disables the
// timing leg); allocTolPct is the allocation tolerance in percent (0 gates
// exactly).
func ComparePerf(old, new *PerfSummary, nsTolPct, allocTolPct float64) *PerfComparison {
	c := &PerfComparison{
		NsTolPct: nsTolPct, AllocTolPct: allocTolPct,
		GoVersionOld: old.GoVersion, GoVersionNew: new.GoVersion,
		RegimeOld: regimeOf(old), RegimeNew: regimeOf(new),
		RNGOld: rngSourceOf(old), RNGNew: rngSourceOf(new),
	}
	oldTools := map[string]*PerfToolSummary{}
	for i := range old.Tools {
		oldTools[old.Tools[i].Tool] = &old.Tools[i]
	}
	matched := map[string]bool{}
	for i := range new.Tools {
		nt := &new.Tools[i]
		ot, ok := oldTools[nt.Tool]
		if !ok {
			c.UnmatchedNew = append(c.UnmatchedNew, nt.Tool)
			continue
		}
		matched[nt.Tool] = true
		d := PerfToolDelta{
			Tool:         nt.Tool,
			OldNsPerExec: ot.NsPerExec, NewNsPerExec: nt.NsPerExec,
			OldBytesPerExec: ot.AllocBytesPerExec, NewBytesPerExec: nt.AllocBytesPerExec,
			OldObjectsPerExec: ot.AllocObjectsPerExec, NewObjectsPerExec: nt.AllocObjectsPerExec,
		}
		if ot.NsPerExec > 0 {
			d.NsRatio = nt.NsPerExec / ot.NsPerExec
		}
		c.Tools = append(c.Tools, d)
	}
	for _, ot := range old.Tools {
		if !matched[ot.Tool] {
			c.UnmatchedOld = append(c.UnmatchedOld, ot.Tool)
		}
	}
	return c
}

// Regressed reports whether any tool's allocation counters grew beyond the
// alloc tolerance or its ns/exec slowed beyond the timing band — the signals
// the perf trajectory gate keys on.
func (c *PerfComparison) Regressed() bool {
	nsTol, allocTol := c.NsTolPct/100, c.AllocTolPct/100
	if c.NsTolPct < 0 {
		nsTol = -1
	}
	for _, d := range c.Tools {
		if d.regressed(nsTol, allocTol) {
			return true
		}
	}
	return false
}

// StaleAllocs reports whether any tool's allocation counters *shrank* beyond
// the alloc tolerance: an improvement, meaning the committed artifact should
// be regenerated so the gate keeps teeth.
func (c *PerfComparison) StaleAllocs() bool {
	allocTol := c.AllocTolPct / 100
	for _, d := range c.Tools {
		if d.improvedAllocs(allocTol) {
			return true
		}
	}
	return false
}

// String renders the human-readable perf comparison report.
func (c *PerfComparison) String() string {
	out := fmt.Sprintf("perf comparison (ns tolerance ±%.0f%%, alloc tolerance ±%.0f%%)\ngo version: %s → %s\n",
		c.NsTolPct, c.AllocTolPct, c.GoVersionOld, c.GoVersionNew)
	if c.GoVersionOld != c.GoVersionNew {
		out += "WARNING: artifacts were produced by different Go versions; allocation counts may differ for toolchain reasons\n"
	}
	if c.RegimeOld != c.RegimeNew && c.RegimeOld != "" && c.RegimeNew != "" {
		out += fmt.Sprintf("WARNING: scheduler regimes differ (%s vs %s); the comparison measures the regime, not the change\n",
			c.RegimeOld, c.RegimeNew)
	}
	if c.RNGOld != c.RNGNew && c.RNGOld != "" && c.RNGNew != "" {
		out += fmt.Sprintf("WARNING: rng sources differ (%s vs %s); decision streams and per-exec work are not like for like\n",
			c.RNGOld, c.RNGNew)
	}
	tb := &harness.Table{Header: []string{"tool", "ns/exec old", "ns/exec new", "ratio", "bytes/exec old", "bytes/exec new", "objs/exec old", "objs/exec new"}}
	for _, d := range c.Tools {
		tb.AddRow(d.Tool,
			fmt.Sprintf("%.0f", d.OldNsPerExec),
			fmt.Sprintf("%.0f", d.NewNsPerExec),
			fmt.Sprintf("%.2f×", d.NsRatio),
			fmt.Sprintf("%.1f", d.OldBytesPerExec),
			fmt.Sprintf("%.1f", d.NewBytesPerExec),
			fmt.Sprintf("%.2f", d.OldObjectsPerExec),
			fmt.Sprintf("%.2f", d.NewObjectsPerExec))
	}
	out += "\n" + tb.String()
	nsTol, allocTol := c.NsTolPct/100, c.AllocTolPct/100
	if c.NsTolPct < 0 {
		nsTol = -1
	}
	for _, d := range c.Tools {
		if growthExceeds(d.OldBytesPerExec, d.NewBytesPerExec, allocTol) {
			out += fmt.Sprintf("\n%s: ALLOC REGRESSION: bytes/exec %.1f → %.1f", d.Tool, d.OldBytesPerExec, d.NewBytesPerExec)
		}
		if growthExceeds(d.OldObjectsPerExec, d.NewObjectsPerExec, allocTol) {
			out += fmt.Sprintf("\n%s: ALLOC REGRESSION: objects/exec %.2f → %.2f", d.Tool, d.OldObjectsPerExec, d.NewObjectsPerExec)
		}
		if nsTol >= 0 && d.NsRatio > 1+nsTol {
			out += fmt.Sprintf("\n%s: TIMING REGRESSION: %.2f× slower (band ±%.0f%%)", d.Tool, d.NsRatio, c.NsTolPct)
		}
	}
	if len(c.UnmatchedOld) > 0 {
		out += fmt.Sprintf("\ntools only in old artifact: %v", c.UnmatchedOld)
	}
	if len(c.UnmatchedNew) > 0 {
		out += fmt.Sprintf("\ntools only in new artifact: %v", c.UnmatchedNew)
	}
	if c.Regressed() {
		out += "\n\nPERF REGRESSION: allocation growth beyond tolerance or timing beyond the band\n"
	} else if c.StaleAllocs() {
		out += "\n\nno regression; allocation counters improved — regenerate the committed BENCH_perf.json to keep the gate tight\n"
	} else {
		out += "\n\nno perf regression detected\n"
	}
	return out
}
