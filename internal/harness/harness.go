// Package harness runs programs under tools and holds the vocabulary the
// campaign reports share: bug/race detection rates over repeated executions
// (Section 8.1, Table 2) with their mean time and operation counts (Tables
// 1 and 3), reproduction commands, the throughput conversion, and text
// tables and unit formatting. Per-cell timing distributions come from the
// campaign's telemetry and wall-time benchmarking from bench/, not from
// here.
package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"c11tester/internal/capi"
)

// Signal selects which bug signal counts as a detection.
type Signal int

const (
	// SignalRace counts executions that reported a data race.
	SignalRace Signal = iota
	// SignalAssert counts executions with assertion violations.
	SignalAssert
	// SignalAny counts races, assertion violations, and deadlocks.
	SignalAny
)

// Hit reports whether the execution exhibited this signal.
func (s Signal) Hit(r *capi.Result) bool {
	switch s {
	case SignalRace:
		return len(r.Races) > 0
	case SignalAssert:
		return len(r.AssertFailures) > 0
	default:
		return r.Buggy()
	}
}

// Detection aggregates a detection-rate experiment.
type Detection struct {
	Runs     int
	Detected int
	// Time is the mean wall-clock time per execution.
	Time time.Duration
	// Ops accumulates the operation counts over all executions.
	Ops capi.OpStats
}

// Rate returns the detection rate in percent.
func (d Detection) Rate() float64 {
	if d.Runs == 0 {
		return 0
	}
	return 100 * float64(d.Detected) / float64(d.Runs)
}

// MeasureDetection executes prog runs times under tool and counts
// executions exhibiting the signal.
func MeasureDetection(tool capi.Tool, prog capi.Program, runs int, seedBase int64, signal Signal) Detection {
	d := Detection{Runs: runs}
	start := time.Now()
	for i := 0; i < runs; i++ {
		res := tool.Execute(prog, seedBase+int64(i))
		if signal.Hit(res) {
			d.Detected++
		}
		d.Ops.Add(res.Stats)
	}
	if runs > 0 {
		d.Time = time.Since(start) / time.Duration(runs)
	}
	return d
}

// Table is a simple fixed-width text table for experiment output.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FmtDuration renders a duration in the unit the paper's tables use.
func FmtDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// FmtOps renders an operation count the way Table 3 does (e.g. "63.7M").
func FmtOps(n uint64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// SortedKeys returns the sorted keys of a string-keyed map (deterministic
// experiment output).
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
