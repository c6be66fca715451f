// cli.go holds the crash-safety wiring of the campaign CLI (cmd/c11tester):
// the shard, checkpoint and resume flags.
package campaign

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// CrashFlags are the crash-safety CLI options: shard selection,
// checkpointing, and resume. Register binds them to a FlagSet; Apply copies
// them onto a Spec after the matrix flags are resolved.
type CrashFlags struct {
	Shard      string
	Checkpoint string
	Resume     string
}

// Register binds the crash-safety flags onto fs.
func (f *CrashFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Shard, "shard", "", "run shard i/N of the campaign (e.g. 0/3): each shard executes a disjoint deterministic slice of every cell's seed range; with -checkpoint it writes its partial, which -resume merges ('' disables)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "write an atomic checkpoint of completed-wave state to this file at every wave barrier ('' disables); a uniform campaign is one wave, so its checkpoint lands only at completion")
	fs.StringVar(&f.Resume, "resume", "", "resume an interrupted campaign from this checkpoint file (a missing file starts fresh with a warning), or merge a comma-separated list of the complete shard checkpoints of one campaign (every file must load)")
}

// Apply copies the crash-safety flags onto spec. A single -resume file that
// does not exist yet is a fresh start (warned on warn), so `-checkpoint ck
// -resume ck` is an idempotent invocation: run it until it succeeds. In a
// list every file must load: a lost shard never starts a fresh campaign.
func (f CrashFlags) Apply(spec *Spec, warn io.Writer) error {
	if f.Shard != "" {
		sel, err := ParseShard(f.Shard)
		if err != nil {
			return err
		}
		spec.Shard = sel
	}
	spec.CheckpointPath = f.Checkpoint
	paths := SplitList(f.Resume)
	var cks []*Checkpoint
	for _, path := range paths {
		ck, err := LoadCheckpoint(path)
		switch {
		case len(paths) == 1 && errors.Is(err, os.ErrNotExist):
			if warn != nil {
				fmt.Fprintf(warn, "-resume: %s does not exist yet; starting fresh\n", path)
			}
			return nil
		case err != nil:
			return fmt.Errorf("-resume: %w", err)
		}
		cks = append(cks, ck)
	}
	if len(cks) == 0 {
		return nil
	}
	ck, err := MergeCheckpoints(cks)
	if err != nil {
		return fmt.Errorf("-resume: %w", err)
	}
	if err := ck.ValidateAgainst(*spec); err != nil {
		return fmt.Errorf("-resume: %w", err)
	}
	spec.Resume = ck
	return nil
}
