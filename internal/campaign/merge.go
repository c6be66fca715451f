// merge.go folds the partial artifacts of a sharded campaign — summaries and
// record manifests — back into the single-machine artifact.
// Shards partition the execution set (each seed runs in exactly one shard),
// and every partial carries its per-cell fragment state (ShardInfo.Cells).
// MergeSummaries folds those cells with fragment.merge and renders them with
// aggregate, exactly as Run does on one machine, so the merged summary is
// byte-identical (Summary.Canonical) to the summary of an unsharded run by
// construction.
//
// Merging refuses partials that were not cut from the same campaign: every
// partial carries its spec digest (ShardInfo.SpecDigest) and build
// provenance, and mismatched digests, duplicate or missing shard indices, and
// provenance skew are structured errors, not silently wrong artifacts.
package campaign

import (
	"fmt"
	"sort"
	"strings"

	"c11tester/internal/obs"
	"c11tester/internal/safeio"
)

// MergeSummaries folds K shard partials into the whole-campaign summary.
// Parts may be given in any order; they are validated (same spec digest, same
// shard count, indices exactly 0..K-1, this schema version, uniform policy,
// per-cell state present) and then folded and rendered like a single-machine
// run. force skips the provenance-skew refusal (never the digest checks).
func MergeSummaries(parts []*Summary, force bool) (*Summary, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("campaign: merge: no partial summaries")
	}
	sorted := make([]*Summary, len(parts))
	copy(sorted, parts)
	for _, p := range sorted {
		if p.Schema != SchemaName {
			return nil, fmt.Errorf("campaign: merge: schema %q, want %q", p.Schema, SchemaName)
		}
		if p.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("campaign: merge: partial has schema version %d; merging needs exactly %d (regenerate the shards with this build)", p.SchemaVersion, SchemaVersion)
		}
		if p.Shard == nil {
			return nil, fmt.Errorf("campaign: merge: summary has no shard header (not a partial — was it produced with -shard?)")
		}
		if p.Shard.Cells == nil {
			return nil, fmt.Errorf("campaign: merge: shard %d carries no per-cell fragment state (written by an older build); regenerate the shards with this build", p.Shard.Index)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Shard.Index < sorted[j].Shard.Index })
	first := sorted[0]
	if len(sorted) != first.Shard.Count {
		return nil, fmt.Errorf("campaign: merge: have %d partial(s), shard headers say count=%d", len(sorted), first.Shard.Count)
	}
	info := first.Spec
	nb, nl := len(info.Benchmarks), len(info.Litmus)
	ncells := len(info.Tools) * (nb + nl)
	for i, p := range sorted {
		if p.Shard.Index != i {
			return nil, fmt.Errorf("campaign: merge: shard indices are not exactly 0..%d (duplicate or missing shard %d)", first.Shard.Count-1, i)
		}
		if p.Shard.SpecDigest != first.Shard.SpecDigest {
			return nil, fmt.Errorf("campaign: merge: shard %d was cut from a different campaign spec (digest %.12s… vs %.12s…)", p.Shard.Index, p.Shard.SpecDigest, first.Shard.SpecDigest)
		}
		if p.Spec.Policy != "" && p.Spec.Policy != "uniform" {
			return nil, fmt.Errorf("campaign: merge: shard %d ran policy %q; only uniform campaigns shard", p.Shard.Index, p.Spec.Policy)
		}
		if skew := first.Provenance.Skew(p.Provenance); len(skew) > 0 && !force {
			return nil, fmt.Errorf("campaign: merge: shard %d build provenance skew (%s); pass -force to merge anyway", p.Shard.Index, strings.Join(skew, "; "))
		}
		if len(p.Shard.Cells) != ncells || len(p.Shard.ReproFlags) != len(info.Tools) {
			return nil, fmt.Errorf("campaign: merge: shard %d header has %d cell(s) and %d tool flag set(s), the matrix needs %d and %d", p.Shard.Index, len(p.Shard.Cells), len(p.Shard.ReproFlags), ncells, len(info.Tools))
		}
		for t, name := range info.Tools {
			if t >= len(p.Tools) || p.Tools[t].Tool != name ||
				len(p.Tools[t].Benchmarks) != nb || len(p.Tools[t].Litmus) != nl {
				return nil, fmt.Errorf("campaign: merge: shard %d tool matrix mismatch at %q (digest collision?)", p.Shard.Index, name)
			}
		}
	}

	cells := make([]cellFold, ncells)
	for _, p := range sorted {
		for c := range p.Shard.Cells {
			cells[c].frag.merge(&p.Shard.Cells[c].Frag)
		}
	}
	meta := summaryMeta{info: info, reproFlags: first.Shard.ReproFlags}
	// Workers describes one machine's pool; a merged artifact has no single
	// meaningful value. Canonical zeroes it anyway.
	meta.info.Workers = 0
	if len(info.Tools) > 0 {
		for _, ls := range first.Tools[0].Litmus {
			meta.weakDefined = append(meta.weakDefined, ls.WeakDefined)
		}
	}
	m := aggregate(meta, cells, nil)
	m.Provenance = first.Provenance
	for _, p := range sorted {
		m.WallNS += p.WallNS
		m.GC.AllocBytes += p.GC.AllocBytes
		m.GC.Mallocs += p.GC.Mallocs
		m.GC.NumGC += p.GC.NumGC
		m.GC.PauseTotalNS += p.GC.PauseTotalNS
		m.CheckpointErrors += p.CheckpointErrors
	}
	return m, nil
}

// MergeManifests folds the shards' record manifests into one, re-sorted
// canonically. Shards record disjoint seed sets, so concatenation is exact.
func MergeManifests(parts []*obs.Manifest) *obs.Manifest {
	m := obs.NewManifest()
	m.Captures = []obs.CaptureRecord{}
	for _, p := range parts {
		m.Captures = append(m.Captures, p.Captures...)
	}
	m.Sort()
	return m
}

// Schema identifiers of the shard manifest written next to a partial summary.
const (
	ShardManifestSchemaName    = "c11tester/shard"
	ShardManifestSchemaVersion = 1
)

// ShardManifest describes one shard's slice of a campaign: which shard, cut
// by which spec (digest + echo), built where, covering which seed ranges,
// with how many executions. It makes a directory of partials auditable
// before merging.
type ShardManifest struct {
	Schema        string      `json:"schema"`
	SchemaVersion int         `json:"schema_version"`
	Shard         ShardInfo   `json:"shard"`
	Spec          SpecInfo    `json:"spec"`
	Provenance    *Provenance `json:"provenance,omitempty"`
	// SeedRanges are the [lo, hi) seed sub-ranges this shard ran in every
	// cell (the round-robin deal of the cell's chunk sequence).
	SeedRanges [][2]int64 `json:"seed_ranges"`
	// Execs counts completed executions.
	Execs int `json:"execs"`
}

// BuildShardManifest renders the manifest of one partial summary.
func BuildShardManifest(spec Spec, sum *Summary) *ShardManifest {
	spec = spec.withDefaults()
	m := &ShardManifest{
		Schema: ShardManifestSchemaName, SchemaVersion: ShardManifestSchemaVersion,
		Spec:       sum.Spec,
		Provenance: sum.Provenance,
		SeedRanges: [][2]int64{},
	}
	if sum.Shard != nil {
		// The manifest audits the slice; the per-cell state stays in the
		// partial summary.
		m.Shard = ShardInfo{Index: sum.Shard.Index, Count: sum.Shard.Count, SpecDigest: sum.Shard.SpecDigest}
	}
	for _, c := range chunkDeal(spec) {
		m.SeedRanges = append(m.SeedRanges, [2]int64{spec.SeedBase + int64(c[0]), spec.SeedBase + int64(c[1])})
	}
	for _, ts := range sum.Tools {
		m.Execs += ts.Execs
	}
	return m
}

// WriteFile persists the shard manifest atomically.
func (m *ShardManifest) WriteFile(path string) error {
	return safeio.WriteJSONAtomic(path, m, 0o644)
}
