// cli.go holds the telemetry and crash-safety wiring of the campaign CLI
// (cmd/c11tester): the flag sets, the event-stream file, the stderr progress
// and event echo, and the cleanup sequencing.
package campaign

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"c11tester/internal/safeio"
)

// TelemetryFlags are the telemetry CLI options. Register binds them to a
// FlagSet; Quiet is owned by the caller (-q also silences its report).
type TelemetryFlags struct {
	EventsPath string
	Verbose    bool
	Quiet      bool
}

// Register binds the telemetry flags onto fs.
func (f *TelemetryFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.EventsPath, "events", "", "append the structured JSONL event stream to this file ('' disables)")
	fs.BoolVar(&f.Verbose, "v", false, "echo every structured event to stderr as it is emitted")
}

// SetupTelemetry builds the telemetry fabric the flags describe: the
// Telemetry for Spec.Telemetry and an events file if requested. The returned
// cleanup closes the events file; call it after Run returns (Run itself
// flushes and closes the event stream). name prefixes the diagnostics.
func SetupTelemetry(name string, f TelemetryFlags) (*Telemetry, func(), error) {
	topts := TelemetryOptions{Timestamps: true}
	if !f.Quiet {
		topts.Progress = os.Stderr
	}
	if f.Verbose {
		topts.EventEcho = os.Stderr
	}
	cleanup := func() {}
	if f.EventsPath != "" {
		ef, err := os.OpenFile(f.EventsPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: -events: %v", name, err)
		}
		cleanup = func() { ef.Close() }
		topts.EventSink = ef
	}
	return NewTelemetry(topts), cleanup, nil
}

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
	fs.StringVar(&f.Shard, "shard", "", "run shard i/N of the campaign (e.g. 0/3): each shard executes a disjoint deterministic slice of every cell's seed range and writes a partial summary plus a .shard.json manifest for c11merge ('' disables)")
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "write an atomic checkpoint of completed-wave state to this file at every wave barrier ('' disables); a uniform campaign is one wave, so its checkpoint lands only at completion")
	fs.StringVar(&f.Resume, "resume", "", "resume an interrupted campaign from this checkpoint file; a missing file starts fresh with a warning")
}

// Apply copies the crash-safety flags onto spec. A -resume file that does not
// exist yet is a fresh start (warned on warn), so `-checkpoint ck -resume ck`
// is an idempotent invocation: run it until it succeeds. When a resume is
// loaded, the previous event stream at eventsPath (the file the interrupted
// run appended to, possibly ending in a torn line) is rotated aside so the
// resumed run appends to a clean file.
func (f CrashFlags) Apply(spec *Spec, eventsPath string, warn io.Writer) error {
	if f.Shard != "" {
		sel, err := ParseShard(f.Shard)
		if err != nil {
			return err
		}
		spec.Shard = sel
	}
	spec.CheckpointPath = f.Checkpoint
	if f.Resume == "" {
		return nil
	}
	ck, err := LoadCheckpoint(f.Resume)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if warn != nil {
			fmt.Fprintf(warn, "-resume: %s does not exist yet; starting fresh\n", f.Resume)
		}
		return nil
	case err != nil:
		return fmt.Errorf("-resume: %w", err)
	}
	if err := ck.ValidateAgainst(*spec); err != nil {
		return fmt.Errorf("-resume: %w", err)
	}
	spec.Resume = ck
	if eventsPath != "" {
		rotated, err := safeio.Rotate(eventsPath)
		if err != nil {
			return fmt.Errorf("-resume: rotating %s: %w", eventsPath, err)
		}
		if rotated != "" && warn != nil {
			fmt.Fprintf(warn, "-resume: rotated previous event stream to %s\n", rotated)
		}
	}
	return nil
}
