// cli.go holds the telemetry wiring shared by the campaign CLIs
// (cmd/c11tester and cmd/litmus): the flag set, the event-stream file, the
// stderr progress and event echo, and the cleanup sequencing. Both commands
// route through SetupTelemetry so their telemetry cannot drift apart.
package campaign

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"c11tester/internal/safeio"
)

// TelemetryFlags are the shared telemetry CLI options. Register binds them to
// a FlagSet; Quiet is owned by the caller (the commands differ on what -q
// silences beyond progress lines).
type TelemetryFlags struct {
	EventsPath string
	CaptureDir string
	SlowNS     bool
	Verbose    bool
	Quiet      bool
}

// Register binds the shared telemetry flags onto fs.
func (f *TelemetryFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.EventsPath, "events", "", "append the structured JSONL event stream to this file ('' disables)")
	fs.StringVar(&f.CaptureDir, "capture", "", "arm the flight recorder: write full traces of anomalous executions (slow outliers, first-seen races, forbidden outcomes, engine failures) plus a manifest.json to this directory ('' disables)")
	fs.BoolVar(&f.SlowNS, "capture-slow-ns", false, "with -capture, also trigger on wall-clock latency outliers (non-deterministic across machines; the default slow trigger uses schedule steps)")
	fs.BoolVar(&f.Verbose, "v", false, "echo every structured event to stderr as it is emitted")
}

// SetupTelemetry builds the telemetry fabric the shared flags describe: the
// Telemetry for Spec.Telemetry and an events file if requested. The returned
// cleanup closes the events file; call it after Run returns (Run itself
// flushes and closes the event stream). name prefixes the diagnostics,
// matching each command's error style.
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

// CrashFlags are the shared crash-safety CLI options: shard selection,
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

// ApplyCaptureFlags copies the flight-recorder flags onto the spec, creating
// the capture directory.
func (f TelemetryFlags) ApplyCaptureFlags(spec *Spec) error {
	if f.CaptureDir == "" {
		if f.SlowNS {
			return fmt.Errorf("-capture-slow-ns requires -capture")
		}
		return nil
	}
	if err := os.MkdirAll(f.CaptureDir, 0o755); err != nil {
		return fmt.Errorf("-capture: %v", err)
	}
	spec.CaptureDir = f.CaptureDir
	spec.CaptureSlowNS = f.SlowNS
	return nil
}
