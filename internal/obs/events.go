package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// EventSchemaVersion is the version stamped into every event line ("v").
// Bump it on any incompatible change to an event's JSON shape; stream
// consumers (the future distributed-fabric coordinator, RaceFixer-style
// per-race consumers) key on it.
const EventSchemaVersion = 1

// Stream writes structured events as JSONL. Emit marshals the event and
// writes its line into a buffered writer under the stream's mutex, so no
// marshalable event is ever lost: events come at unit-of-work boundaries,
// never inside the per-execution hot path, and the buffer takes most lines
// without touching the sink. Dropped counts only events that failed to
// marshal; campaign summaries surface any nonzero count, and the campaign
// Compare gate fails on it.
type Stream struct {
	mu      sync.Mutex // guards w, echo, closed and err
	w       *bufio.Writer
	echo    io.Writer
	closed  bool
	err     error // first write or flush error
	emitted atomic.Uint64
	dropped atomic.Uint64
}

// NewStream returns a stream writing JSONL events to w. echo, when non-nil,
// receives a copy of every line (the CLI -v flag).
func NewStream(w io.Writer, echo io.Writer) *Stream {
	return &Stream{w: bufio.NewWriter(w), echo: echo}
}

func (s *Stream) setErr(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

// Emit marshals ev and writes its line. A marshal failure is counted in
// Dropped; an emit after Close is refused silently.
func (s *Stream) Emit(ev any) {
	line, err := json.Marshal(ev)
	if err != nil {
		s.dropped.Add(1)
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	_, err = s.w.Write(line)
	s.setErr(err)
	if s.echo != nil {
		_, _ = s.echo.Write(line)
	}
	s.emitted.Add(1)
}

// Sync flushes every line emitted before the call into the underlying
// writer. Checkpoint writers call it before persisting event-stream cursors
// so a checkpoint never references lines still sitting in the buffer. It
// returns the stream's first write error; on a closed stream it only
// returns that error.
func (s *Stream) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.setErr(s.w.Flush())
	}
	return s.err
}

// Emitted returns the number of events written.
func (s *Stream) Emitted() uint64 { return s.emitted.Load() }

// Dropped returns the number of events that failed to marshal. A campaign
// that drops events fails its observability gate.
func (s *Stream) Dropped() uint64 { return s.dropped.Load() }

// Close flushes, stops accepting events and returns the first write error
// (it does not close the underlying writer — the opener owns it). Close is
// idempotent.
func (s *Stream) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.setErr(s.w.Flush())
		s.closed = true
	}
	return s.err
}
