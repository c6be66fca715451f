// checkpoint.go is the crash-safety core of the campaign runner: seed-slice
// sharding (ShardSel), the spec digest that gates resuming, and the
// per-cell fragment state (CellCheckpoint) a wave-barrier checkpoint
// carries.
//
// The design leans entirely on the package invariant that every execution is
// a pure function of (tool, program, seed) and that all budget decisions
// happen at deterministic wave barriers. A checkpoint therefore only has to
// persist barrier state — per-cell budgets, converge-tracker state and
// curves, and each cell's folded fragment — and a resumed run re-enters the
// wave loop as if the completed waves had just run. fragment.merge is
// order-independent and indifferent to how executions are grouped, so each
// cell's restored fragment folds exactly like the units it stands for, and
// the finished artifact is byte-identical (Summary.Canonical) to an
// uninterrupted run.
//
// A shard's partial is its checkpoint: a sharded run checkpoints the cells of
// its slice, and MergeCheckpoints folds the K complete shard checkpoints into
// the checkpoint of the whole campaign, which resumes like any other.
package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"c11tester/internal/explore"
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

// SpecDigest fingerprints every outcome-affecting campaign parameter: the
// tool set (name, baseline flavour, configuration), the program matrix,
// Runs/SeedBase/ShardSize, the budget policy, the guide configuration, and
// the validation/record duties. Two specs with equal digests run
// identical execution sets with identical duties; Workers and artifact paths
// deliberately do not participate (they change where and how fast, never
// what).
func SpecDigest(spec Spec) string {
	spec = spec.withDefaults()
	type digestTool struct {
		Name     string `json:"name"`
		Baseline bool   `json:"baseline"`
	}
	d := struct {
		Tools       []digestTool `json:"tools"`
		Benchmarks  []string     `json:"benchmarks"`
		Litmus      []string     `json:"litmus"`
		Runs        int          `json:"runs"`
		SeedBase    int64        `json:"seed_base"`
		ShardSize   int          `json:"shard_size"`
		Policy      string       `json:"policy"`
		GuideDir    string       `json:"guide_dir,omitempty"`
		GuideTraces int          `json:"guide_traces,omitempty"`
		Validate    bool         `json:"validate,omitempty"`
		RecordOn    string       `json:"record_on,omitempty"`
		// Analyzers change what a campaign observes and reports, so they are
		// digest material; omitempty keeps pre-analyzer digests unchanged.
		Analyzers []string `json:"analyzers,omitempty"`
	}{
		Benchmarks: []string{}, Litmus: []string{},
		Runs: spec.Runs, SeedBase: spec.SeedBase, ShardSize: spec.ShardSize,
		Policy:   policyName(spec.Policy),
		Validate: spec.ValidateAxioms,
		RecordOn: spec.RecordOn.String(),
	}
	for _, t := range spec.Tools {
		d.Tools = append(d.Tools, digestTool{Name: t.Name, Baseline: t.Baseline})
	}
	for _, b := range spec.Benchmarks {
		d.Benchmarks = append(d.Benchmarks, b.Name)
	}
	for _, l := range spec.Litmus {
		d.Litmus = append(d.Litmus, l.Name)
	}
	if spec.Guides != nil {
		d.GuideDir = spec.Guides.Dir()
		d.GuideTraces = spec.Guides.Len()
	}
	if len(spec.Analyzers) > 0 {
		d.Analyzers = spec.Analyzers
	}
	b, err := json.Marshal(d)
	if err != nil {
		// Every field above is a plain value; Marshal cannot fail. Keep the
		// signature infallible.
		panic(fmt.Sprintf("campaign: spec digest: %v", err))
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// Schema identifiers of the serialized checkpoint. Version 2 carries
// violation samples with their runs and the guide-trace count. Version 3
// carries each cell's fragment in the fragment's own JSON encoding: races and
// findings are objects keyed by race key and "analyzer/key", op counts sit
// under "ops", and the per-unit allocation counters are gone. Version 4 adds
// each cell's histograms to its fragment ("hists"), so a resumed run's
// summary histograms cover every execution of the campaign. Version 5 echoes
// the trace sink's trigger set ("record_on") and drops the fragment's
// recorded/record-error counts: they are counted from its manifest entries
// ("captures"). Version 6 drops the event-stream cursors
// ("events_emitted"/"events_dropped") and carries each converge cell's
// convergence curve ("curve"). Version 7 records the shard selection of a
// sharded run ("shard": index and count), whose checkpoint is its partial.
// Version 8 drops the handoff-wait histogram and the race span from each
// fragment's histograms and adds its layer counts ("hists.counts").
const (
	CheckpointSchemaName    = "c11tester/checkpoint"
	CheckpointSchemaVersion = 8
)

// Checkpoint is the wave-barrier state of a campaign: everything a resumed
// run needs to re-enter at the first incomplete wave and finish with an
// artifact byte-identical (Summary.Canonical) to an uninterrupted run.
type Checkpoint struct {
	Schema        string   `json:"schema"`
	SchemaVersion int      `json:"schema_version"`
	SpecDigest    string   `json:"spec_digest"`
	Spec          SpecInfo `json:"spec"`
	// Provenance pins the build that wrote the checkpoint; resuming under a
	// skewed build is refused (a different toolchain may schedule
	// differently).
	Provenance *Provenance `json:"provenance,omitempty"`
	// Wave is the last completed wave; Complete marks the whole matrix done
	// (resuming a Complete checkpoint rebuilds the artifacts without running
	// anything).
	Wave     int  `json:"wave"`
	Complete bool `json:"complete,omitempty"`
	// Shard is the slice a sharded run covered; nil for a whole campaign.
	// MergeCheckpoints folds the K shards of one campaign into a whole.
	Shard *ShardSel `json:"shard,omitempty"`
	// Captures counts the record-manifest entries at the barrier, for
	// introspection and post-crash audit.
	Captures int `json:"captures,omitempty"`
	// Cells holds one entry per campaign cell, in matrix order.
	Cells []CellCheckpoint `json:"cells"`
}

// CellCheckpoint is one cell's barrier state: its budget accounting, its
// converge-tracker snapshot and convergence curve (adaptive policies), and
// its folded result fragment.
type CellCheckpoint struct {
	Kind    string `json:"kind"` // "bench" or "litmus"
	Tool    int    `json:"tool"`
	Cell    int    `json:"cell"`
	ToolRef string `json:"tool_name"`
	Program string `json:"program"`
	Used    int    `json:"used"`
	Stopped bool   `json:"stopped,omitempty"`

	Tracker *explore.TrackerSnapshot `json:"tracker,omitempty"`
	Curve   []CurvePoint             `json:"curve,omitempty"`
	Frag    fragment                 `json:"frag"`
}

const (
	cellKindBench  = "bench"
	cellKindLitmus = "litmus"
)

func kindName(k jobKind) string {
	if k == jobLitmus {
		return cellKindLitmus
	}
	return cellKindBench
}

// buildCheckpoint folds the completed work into one CellCheckpoint per
// matrix cell, with budget, tracker and curve state from the wave loop's
// plans.
func buildCheckpoint(spec Spec, wave int, complete bool, plans []*cellPlan, restored []cellFold, wt workerTools) *Checkpoint {
	c := &Checkpoint{
		Schema: CheckpointSchemaName, SchemaVersion: CheckpointSchemaVersion,
		SpecDigest: SpecDigest(spec), Spec: specInfo(spec),
		Provenance: BuildProvenance(),
		Wave:       wave, Complete: complete,
		Cells: checkpointCells(spec, foldCells(spec, restored, wt), plans),
	}
	if spec.Shard.Count > 1 {
		sel := spec.Shard
		c.Shard = &sel
	}
	for i := range c.Cells {
		c.Captures += len(c.Cells[i].Frag.Captures)
	}
	return c
}

// checkpointCells renders folded cells (foldCells) in their checkpoint form,
// with the budget, tracker and curve state of the wave loop's plans; cells
// and plans are in matrix order.
func checkpointCells(spec Spec, cells []cellFold, plans []*cellPlan) []CellCheckpoint {
	out := make([]CellCheckpoint, len(cells))
	for i, k := range matrixCells(spec) {
		p := plans[i]
		out[i] = CellCheckpoint{
			Kind: kindName(k.kind), Tool: k.tool, Cell: k.cell,
			ToolRef: spec.Tools[k.tool].Name, Program: spec.programOf(k),
			Used: p.used, Stopped: p.stopped, Curve: p.curve,
			Frag: cells[i].frag,
		}
		if p.tracker != nil {
			out[i].Tracker = p.tracker.Snapshot()
		}
	}
	return out
}

// ckState carries the checkpoint duty through the runner: the target path
// (empty = disarmed), the test hook, and the write-failure count surfaced as
// Summary.CheckpointErrors. Checkpoint failures never abort a campaign — a
// full disk costs the resume point, not the run.
type ckState struct {
	path string
	hook func(*Checkpoint)
	errs int
}

func (ck *ckState) save(spec Spec, wave int, complete bool, plans []*cellPlan, restored []cellFold, wt workerTools) {
	if ck.path == "" {
		return
	}
	c := buildCheckpoint(spec, wave, complete, plans, restored, wt)
	if ck.hook != nil {
		ck.hook(c)
	}
	if err := safeio.WriteJSONAtomic(ck.path, c, 0o644); err != nil {
		ck.errs++
		fmt.Fprintf(os.Stderr, "campaign: checkpoint: %v\n", err)
	}
}

// LoadCheckpoint reads and schema-checks a checkpoint. Truncated or corrupt
// files come back as a *safeio.DecodeError naming the byte offset.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	var c Checkpoint
	if err := safeio.DecodeJSONFile(path, &c); err != nil {
		return nil, err
	}
	if c.Schema != CheckpointSchemaName {
		return nil, fmt.Errorf("campaign: %s: schema %q, want %q", path, c.Schema, CheckpointSchemaName)
	}
	if c.SchemaVersion != CheckpointSchemaVersion {
		return nil, fmt.Errorf("campaign: %s: checkpoint schema version %d, this build resumes only version %d", path, c.SchemaVersion, CheckpointSchemaVersion)
	}
	return &c, nil
}

// MergeCheckpoints turns the checkpoints a -resume list names into the one a
// run resumes from. A single unsharded checkpoint is returned as it is. Any
// other list must be the K complete shard checkpoints of one campaign, in any
// order: they are folded cell by cell with fragment.merge into the complete
// checkpoint of the whole campaign. Shards run disjoint slices of every
// cell's executions, so the fold is the one the workers' units go through,
// and resuming it renders the single-machine artifact. It refuses an empty
// list, an unsharded checkpoint in a list, mixed shard counts, a missing or
// duplicate index, an incomplete shard, a spec-digest mismatch and build
// provenance skew between the shards; the caller still gates the result with
// ValidateAgainst.
func MergeCheckpoints(cks []*Checkpoint) (*Checkpoint, error) {
	if len(cks) == 0 {
		return nil, fmt.Errorf("campaign: merge: no checkpoints")
	}
	if len(cks) == 1 && cks[0].Shard == nil {
		return cks[0], nil
	}
	byIndex := make([]*Checkpoint, len(cks))
	for _, c := range cks {
		switch {
		case c.Shard == nil:
			return nil, fmt.Errorf("campaign: merge: a checkpoint of a whole campaign cannot be merged with others (was it written with -shard?)")
		case c.Shard.Count != cks[0].Shard.Count:
			return nil, fmt.Errorf("campaign: merge: shards %s and %s were cut into different counts", cks[0].Shard, c.Shard)
		case c.Shard.Count != len(cks) || c.Shard.Index < 0 || c.Shard.Index >= c.Shard.Count:
			return nil, fmt.Errorf("campaign: merge: have %d checkpoint(s), the campaign was cut into %d shards", len(cks), c.Shard.Count)
		case byIndex[c.Shard.Index] != nil:
			return nil, fmt.Errorf("campaign: merge: shard %s given twice", c.Shard)
		case !c.Complete:
			return nil, fmt.Errorf("campaign: merge: shard %s did not complete (wave %d): re-run it", c.Shard, c.Wave)
		}
		byIndex[c.Shard.Index] = c
	}
	first := byIndex[0]
	merged := *first
	merged.Shard, merged.Captures = nil, 0
	merged.Cells = slices.Clone(first.Cells)
	for i := range merged.Cells {
		merged.Cells[i].Frag = fragment{}
	}
	for _, c := range byIndex {
		if c.SpecDigest != first.SpecDigest {
			return nil, fmt.Errorf("campaign: merge: shard %s was cut from a different campaign spec (digest %.12s… vs %.12s…)", c.Shard, c.SpecDigest, first.SpecDigest)
		}
		if skew := first.Provenance.Skew(c.Provenance); len(skew) > 0 {
			return nil, fmt.Errorf("campaign: merge: shard %s build provenance skew (%s): re-run the shards with one build", c.Shard, strings.Join(skew, "; "))
		}
		if len(c.Cells) != len(merged.Cells) {
			// Equal digests pin the matrix; this keeps an edited file from
			// indexing past the cells below.
			return nil, fmt.Errorf("campaign: merge: shard %s has %d cell(s), shard 0/%d has %d", c.Shard, len(c.Cells), first.Shard.Count, len(merged.Cells))
		}
		for i := range c.Cells {
			merged.Cells[i].Frag.merge(&c.Cells[i].Frag)
			merged.Captures += len(c.Cells[i].Frag.Captures)
		}
	}
	return &merged, nil
}

// ValidateAgainst reports why the checkpoint cannot resume the given spec:
// a spec-digest mismatch (different execution set or duties) or build
// provenance skew (a different toolchain cannot promise identical replay).
func (c *Checkpoint) ValidateAgainst(spec Spec) error {
	if d := SpecDigest(spec); c.SpecDigest != d {
		return fmt.Errorf("campaign: checkpoint was cut from a different campaign spec (digest %.12s… vs %.12s…): resuming would mix incompatible runs — point -checkpoint at a fresh path to start over", c.SpecDigest, d)
	}
	if skew := BuildProvenance().Skew(c.Provenance); len(skew) > 0 {
		return fmt.Errorf("campaign: checkpoint build provenance skew (%s): a different build cannot promise byte-identical resume — re-run the campaign from scratch", strings.Join(skew, "; "))
	}
	return nil
}

// restore pushes a checkpoint's barrier state back into the wave loop: plan
// budgets, tracker snapshots and convergence curves. It returns each cell's
// merged fragment and end, for foldCells. Checkpoint cells, plans and the result are all in
// matrix order.
func restore(c *Checkpoint, plans []*cellPlan) []cellFold {
	if len(c.Cells) != len(plans) {
		// Unreachable behind ValidateAgainst (the digest pins the matrix);
		// skipping beats corrupting plan state.
		return nil
	}
	cells := make([]cellFold, len(plans))
	for i, p := range plans {
		cc := &c.Cells[i]
		p.used = cc.Used
		p.stopped = cc.Stopped
		p.curve = slices.Clone(cc.Curve)
		if p.tracker != nil {
			p.tracker.Restore(cc.Tracker)
		}
		if cc.Used > 0 {
			cells[i] = cellFold{frag: cc.Frag, hi: cc.Used}
		}
	}
	return cells
}
