// checkpoint.go is the campaign's one persisted form: the artifact that -json
// names (Checkpoint), written atomically at every deterministic wave barrier,
// its loader, and the seed-slice sharding (ShardSel) whose partials it also
// carries.
//
// The design leans entirely on the package invariant that every execution is
// a pure function of (tool, program, seed) and that all budget decisions
// happen at deterministic wave barriers. The artifact therefore only has to
// persist barrier state — per-cell budgets, converge-tracker state and
// curves, and each cell's folded fragment — and a resumed run re-enters the
// wave loop as if the completed waves had just run. fragment.merge is
// order-independent and indifferent to how executions are grouped, so each
// cell's restored fragment folds exactly like the units it stands for, and
// the finished artifact renders a summary byte-identical (Summary.Canonical)
// to an uninterrupted run's. Readers render the summary from the cells
// (Checkpoint.Summarize), and a run renders its live summary through the same
// code.
//
// Manifest entries are not in the artifact. The record directory's
// manifest.json holds them, written before the artifact at every barrier, and
// a resume reads them back from the directory the spec echo names.
//
// A shard's partial is its artifact: a sharded run writes the cells of its
// slice, and MergeCheckpoints folds the K complete shard artifacts into the
// artifact of the whole campaign, which resumes like any other.
package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"c11tester/internal/explore"
	"c11tester/internal/obs"
	"c11tester/internal/safeio"
)

// ShardSel selects shard Index of Count for a sharded campaign run. The zero
// value means "unsharded".
type ShardSel struct {
	Index int `json:"index"`
	Count int `json:"count"`
}

func (s ShardSel) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// ParseShard parses the CLI shard selector "index/count" (e.g. "0/3").
func ParseShard(s string) (ShardSel, error) {
	head, tail, ok := strings.Cut(s, "/")
	if !ok {
		return ShardSel{}, fmt.Errorf("shard %q: want \"index/count\", e.g. 0/3", s)
	}
	idx, err1 := strconv.Atoi(strings.TrimSpace(head))
	cnt, err2 := strconv.Atoi(strings.TrimSpace(tail))
	if err1 != nil || err2 != nil {
		return ShardSel{}, fmt.Errorf("shard %q: want \"index/count\", e.g. 0/3", s)
	}
	sel := ShardSel{Index: idx, Count: cnt}
	if cnt < 1 || idx < 0 || idx >= cnt {
		return ShardSel{}, fmt.Errorf("shard %s out of range (want 0 ≤ index < count)", sel)
	}
	return sel, nil
}

// Schema identifiers of the campaign artifact. Bump SchemaVersion on any
// incompatible change to the JSON shape: LoadCheckpoint reads only the
// current version, and consumers of the BENCH_campaign.json trajectory key
// on it. Versions 2–16 were the shape of the rendered summary, grown one
// duty at a time (validation, budgets, guides, histograms, provenance,
// analyzers, the trace sink, curves, layer counts); the history of this
// file holds their notes.
//
// v17: one artifact. The file is the resumable checkpoint: the spec echo,
// provenance, wave and completion, the shard of a partial, and one cell per
// matrix cell with its budget state and folded fragment, plus the run's wall
// clock, GC and write-failure counts. Readers render the summary from the
// cells (Checkpoint.Summarize). Fragments carry recorded/record-error counts
// in place of the manifest entries, which live only in the record
// directory's manifest.json.
const (
	SchemaName    = "c11tester/campaign"
	SchemaVersion = 17
)

// Checkpoint is the campaign artifact (BENCH_campaign.json): the wave-barrier
// state of a campaign, everything a resumed run needs to re-enter at the
// first incomplete wave and finish with an artifact byte-identical
// (Summary.Canonical) to an uninterrupted run's, plus the measurements of the
// run that wrote it.
type Checkpoint struct {
	Schema        string `json:"schema"`
	SchemaVersion int    `json:"schema_version"`
	// Spec echoes the campaign parameters; its outcome-affecting fields
	// (specSkew) gate resuming and merging.
	Spec SpecInfo `json:"spec"`
	// Provenance pins the build that wrote the artifact; resuming under a
	// skewed build is refused (a different toolchain may schedule
	// differently).
	Provenance *Provenance `json:"provenance,omitempty"`
	// Wave is the last completed wave; Complete marks the whole matrix done
	// (resuming a Complete artifact rewrites it without running anything).
	Wave     int  `json:"wave"`
	Complete bool `json:"complete,omitempty"`
	// Shard is the slice a sharded run covered; nil for a whole campaign.
	// MergeCheckpoints folds the K shards of one campaign into a whole.
	Shard *ShardSel `json:"shard,omitempty"`
	// WallNS is the writing run's wall clock up to this barrier, and GC its
	// heap and GC deltas over the whole run (zero before the final barrier).
	WallNS int64     `json:"wall_ns"`
	GC     GCSummary `json:"gc"`
	// CheckpointErrors counts the writing run's earlier barrier writes that
	// failed. The campaign still completes — a failed write costs the resume
	// point, not the results — but the loss is never silent.
	CheckpointErrors int `json:"checkpoint_errors,omitempty"`
	// Cells holds one entry per campaign cell, in matrix order.
	Cells []CellCheckpoint `json:"cells"`
}

// CellCheckpoint is one cell's barrier state: its budget accounting, its
// converge-tracker snapshot and convergence curve (adaptive policies), and
// its folded result fragment.
type CellCheckpoint struct {
	ToolRef string `json:"tool_name"`
	Program string `json:"program"`
	Litmus  bool   `json:"litmus,omitempty"`
	// Used is the cell's cursor: its executions are [0, Used), run on this
	// shard or another.
	Used    int  `json:"used"`
	Stopped bool `json:"stopped,omitempty"`

	Tracker *explore.TrackerSnapshot `json:"tracker,omitempty"`
	Curve   []CurvePoint             `json:"curve,omitempty"`
	Frag    fragment                 `json:"frag"`
}

// cellName identifies a cell in messages and matches manifest entries to
// it: "tool/program", or "tool/litmus/test".
func cellName(tool, program string, litmus bool) string {
	if litmus {
		return tool + "/litmus/" + program
	}
	return tool + "/" + program
}

// ckState carries the barrier writes through the runner: the spec (its
// artifact path, record directory and test hook), the run's start for the
// wall clock, and the write-failure count the artifact carries as
// CheckpointErrors. A failed barrier write never aborts a campaign — a full
// disk costs the resume point, not the run.
type ckState struct {
	spec  Spec
	start time.Time
	errs  int
}

// armed reports whether a barrier writes anything: the artifact, or the
// record manifest.
func (ck *ckState) armed() bool { return ck.spec.CheckpointPath != "" || ck.spec.RecordDir != "" }

// artifact folds the state at a barrier into the campaign artifact: one cell
// per matrix cell, with the wave loop's budget state (plans) and the folded
// fragment. Tracker snapshots are taken only for an artifact that is
// written.
func (ck *ckState) artifact(wave int, complete bool, plans []*cellPlan, restored []CellCheckpoint, wt workerTools) *Checkpoint {
	c := &Checkpoint{
		Schema: SchemaName, SchemaVersion: SchemaVersion,
		Spec:       specInfo(ck.spec),
		Provenance: BuildProvenance(),
		Wave:       wave, Complete: complete,
		WallNS:           int64(time.Since(ck.start)),
		CheckpointErrors: ck.errs,
		Cells:            foldCells(ck.spec, plans, restored, wt),
	}
	if ck.spec.Shard.Count > 1 {
		sel := ck.spec.Shard
		c.Shard = &sel
	}
	if ck.spec.CheckpointPath != "" {
		for i, p := range plans {
			if p.tracker != nil {
				c.Cells[i].Tracker = p.tracker.Snapshot()
			}
		}
	}
	return c
}

// barrier writes the artifact of a wave barrier that more waves follow.
// Failures are counted and warned, never fatal.
func (ck *ckState) barrier(wave int, plans []*cellPlan, restored []CellCheckpoint, wt workerTools) {
	if !ck.armed() {
		return
	}
	if err := ck.save(ck.artifact(wave, false, plans, restored, wt)); err != nil {
		ck.errs++
		fmt.Fprintf(os.Stderr, "campaign: checkpoint: %v\n", err)
	}
}

// save persists a barrier's state, each file atomically: the record
// manifest first, then the artifact. A manifest that fails to land skips
// the artifact, so no artifact counts entries its manifest lacks.
func (ck *ckState) save(c *Checkpoint) error {
	if ck.spec.RecordDir != "" {
		// The canonical manifest (an empty one when nothing triggered —
		// consumers rely on the file existing) is sorted by (tool, litmus,
		// program, seed), so it is byte-identical for any worker count.
		m := obs.NewManifest()
		m.Captures = []obs.CaptureRecord{}
		for i := range c.Cells {
			m.Captures = append(m.Captures, c.Cells[i].Frag.Captures...)
		}
		if err := m.WriteFile(filepath.Join(ck.spec.RecordDir, obs.ManifestFileName)); err != nil {
			return fmt.Errorf("record manifest: %w", err)
		}
	}
	if ck.spec.CheckpointPath == "" {
		return nil
	}
	if ck.spec.checkpointHook != nil {
		ck.spec.checkpointHook(c)
	}
	return safeio.WriteJSONAtomic(ck.spec.CheckpointPath, c, 0o644)
}

// LoadCheckpoint reads a campaign artifact and checks its schema header, its
// cell count against its spec echo, and its histogram bases: a histogram of
// another base would make obs.Histogram.Add panic when a resume, a merge or
// a comparison folds it. Truncated or corrupt files come back as a
// *safeio.DecodeError naming the byte offset.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var c Checkpoint
	if err := safeio.DecodeJSONFile(path, &c); err != nil {
		return nil, err
	}
	if c.Schema != SchemaName {
		return nil, fmt.Errorf("campaign: %s: schema %q, want %q", path, c.Schema, SchemaName)
	}
	if c.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("campaign: %s: schema version %d, this build reads only version %d (regenerate the artifact with this build)",
			path, c.SchemaVersion, SchemaVersion)
	}
	if n := len(c.Spec.Tools) * (len(c.Spec.Benchmarks) + len(c.Spec.Litmus)); len(c.Cells) != n {
		return nil, fmt.Errorf("campaign: %s: %d cell(s), its spec echo has %d", path, len(c.Cells), n)
	}
	for i := range c.Cells {
		if cc := &c.Cells[i]; !cc.Frag.Hists.hasBases() {
			return nil, fmt.Errorf("campaign: %s: %s: histogram bases differ from this build's", path, cellName(cc.ToolRef, cc.Program, cc.Litmus))
		}
	}
	return &c, nil
}

// readCaptures restores the cells' manifest entries from the record
// directory the spec echo names, keeping each cell's entries with an index
// below its Used cursor: the executions the artifact covers, even when the
// manifest is a barrier ahead of it. A missing manifest, an entry of no
// cell, or entries that disagree with a cell's recorded and record-error
// counts refuse the resume. Reading again replaces the entries.
func (c *Checkpoint) readCaptures() error {
	if c.Spec.RecordDir == "" {
		return nil
	}
	path := filepath.Join(c.Spec.RecordDir, obs.ManifestFileName)
	m, err := obs.ReadManifest(path)
	if err != nil {
		return fmt.Errorf("campaign: the artifact's record manifest: %w", err)
	}
	byName := make(map[string]*CellCheckpoint, len(c.Cells))
	for i := range c.Cells {
		cc := &c.Cells[i]
		cc.Frag.Captures = nil
		byName[cellName(cc.ToolRef, cc.Program, cc.Litmus)] = cc
	}
	for _, e := range m.Captures {
		cc := byName[cellName(e.Tool, e.Program, e.Litmus)]
		if cc == nil {
			return fmt.Errorf("campaign: %s: entry %s seed %d is of no cell of the artifact", path, cellName(e.Tool, e.Program, e.Litmus), e.Seed)
		}
		if e.Index < cc.Used {
			cc.Frag.Captures = append(cc.Frag.Captures, e)
		}
	}
	for i := range c.Cells {
		cc := &c.Cells[i]
		recorded, failed := 0, 0
		for _, e := range cc.Frag.Captures {
			switch {
			case e.File != "":
				recorded++
			case e.Err != "":
				failed++
			}
		}
		if recorded != cc.Frag.Recorded || failed != cc.Frag.RecordErrors {
			return fmt.Errorf("campaign: %s does not match the artifact: %s has %d recorded and %d failed entries below execution %d, the artifact counts %d and %d",
				path, cellName(cc.ToolRef, cc.Program, cc.Litmus), recorded, failed, cc.Used, cc.Frag.Recorded, cc.Frag.RecordErrors)
		}
	}
	return nil
}

// MergeCheckpoints turns the artifacts a -resume list names into the one a
// run resumes from, reading each one's manifest entries back from its record
// directory (readCaptures). A single unsharded artifact is returned as it
// is. Any other list must be the K complete shard artifacts of one campaign,
// in any order: they are folded cell by cell with fragment.merge into the
// complete artifact of the whole campaign. Shards run disjoint slices of
// every cell's executions, so the fold is the one the workers' units go
// through, and resuming it renders the single-machine artifact. It refuses
// an empty list, an unsharded artifact in a list, mixed shard counts, a
// missing or duplicate index, an incomplete shard, spec skew and build
// provenance skew between the shards, and a missing manifest; the caller
// still gates the result with ValidateAgainst.
func MergeCheckpoints(cks []*Checkpoint) (*Checkpoint, error) {
	if len(cks) == 0 {
		return nil, fmt.Errorf("campaign: merge: no checkpoints")
	}
	for _, c := range cks {
		if err := c.readCaptures(); err != nil {
			return nil, err
		}
	}
	if len(cks) == 1 && cks[0].Shard == nil {
		return cks[0], nil
	}
	byIndex := make([]*Checkpoint, len(cks))
	for _, c := range cks {
		switch {
		case c.Shard == nil:
			return nil, fmt.Errorf("campaign: merge: the artifact of a whole campaign cannot be merged with others (was it written with -shard?)")
		case c.Shard.Count != cks[0].Shard.Count:
			return nil, fmt.Errorf("campaign: merge: shards %s and %s were cut into different counts", cks[0].Shard, c.Shard)
		case c.Shard.Count != len(cks) || c.Shard.Index < 0 || c.Shard.Index >= c.Shard.Count:
			return nil, fmt.Errorf("campaign: merge: have %d artifact(s), the campaign was cut into %d shards", len(cks), c.Shard.Count)
		case byIndex[c.Shard.Index] != nil:
			return nil, fmt.Errorf("campaign: merge: shard %s given twice", c.Shard)
		case !c.Complete:
			return nil, fmt.Errorf("campaign: merge: shard %s did not complete (wave %d): re-run it", c.Shard, c.Wave)
		}
		byIndex[c.Shard.Index] = c
	}
	first := byIndex[0]
	merged := *first
	merged.Shard = nil
	merged.Cells = slices.Clone(first.Cells)
	for i := range merged.Cells {
		merged.Cells[i].Frag = fragment{}
	}
	for _, c := range byIndex {
		if skew := specSkew(first.Spec, c.Spec); len(skew) > 0 {
			return nil, fmt.Errorf("campaign: merge: shard %s was cut from a different campaign spec (%s)", c.Shard, strings.Join(skew, "; "))
		}
		if skew := first.Provenance.Skew(c.Provenance); len(skew) > 0 {
			return nil, fmt.Errorf("campaign: merge: shard %s build provenance skew (%s): re-run the shards with one build", c.Shard, strings.Join(skew, "; "))
		}
		// Equal spec echoes pin the matrix, and LoadCheckpoint the cells to it.
		for i := range c.Cells {
			merged.Cells[i].Frag.merge(&c.Cells[i].Frag)
		}
	}
	return &merged, nil
}

// ValidateAgainst reports why the artifact cannot resume the given spec:
// spec skew (a different execution set or different duties, named field by
// field as "artifact → spec") or build provenance skew (a different
// toolchain cannot promise identical replay).
func (c *Checkpoint) ValidateAgainst(spec Spec) error {
	if skew := specSkew(c.Spec, specInfo(spec.withDefaults())); len(skew) > 0 {
		return fmt.Errorf("campaign: the artifact was cut from a different campaign spec (%s): resuming would mix incompatible runs — point -json at a fresh path to start over", strings.Join(skew, "; "))
	}
	if skew := BuildProvenance().Skew(c.Provenance); len(skew) > 0 {
		return fmt.Errorf("campaign: artifact build provenance skew (%s): a different build cannot promise byte-identical resume — re-run the campaign from scratch", strings.Join(skew, "; "))
	}
	return nil
}

// restore pushes an artifact's barrier state back into the wave loop: plan
// budgets, tracker snapshots and convergence curves. It returns the cells,
// whose fragments foldCells folds in. Artifact cells and plans are both in
// matrix order, and of one length: ValidateAgainst pins the spec echo to the
// matrix, and LoadCheckpoint the cells to the spec echo.
func restore(c *Checkpoint, plans []*cellPlan) []CellCheckpoint {
	for i, p := range plans {
		cc := &c.Cells[i]
		p.used = cc.Used
		p.stopped = cc.Stopped
		p.curve = slices.Clone(cc.Curve)
		if p.tracker != nil {
			p.tracker.Restore(cc.Tracker)
		}
	}
	return c.Cells
}
