package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestStreamEmitWhileCloseRace hammers Emit from many goroutines while Sync
// and Close run concurrently (run under -race): nothing panics and nothing
// is dropped. When Close comes after the emitters, every event is written;
// when it races them, the events it refuses are a suffix of each emitter's
// sequence, and every event written is written exactly once, whole.
func TestStreamEmitWhileCloseRace(t *testing.T) {
	type ev struct {
		Type string `json:"type"`
		N    int    `json:"n"`
	}
	const emitters, perEmitter = 8, 20
	for round := 0; round < 50; round++ {
		racing := round%2 == 0
		var buf bytes.Buffer
		s := NewStream(&buf, nil)

		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < emitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perEmitter; i++ {
					s.Emit(ev{Type: "unit", N: g*perEmitter + i})
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_ = s.Sync()
		}()
		closed := make(chan error, 1)
		if racing {
			go func() {
				<-start
				closed <- s.Close()
			}()
		}
		close(start)
		wg.Wait()
		if !racing {
			closed <- s.Close()
		}
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		if s.Dropped() != 0 {
			t.Fatalf("round %d: %d event(s) dropped", round, s.Dropped())
		}
		next := make([]int, emitters) // next N expected from each emitter
		written := 0
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" {
				continue
			}
			var e ev
			if err := json.Unmarshal([]byte(line), &e); err != nil {
				t.Fatalf("round %d: torn line %q: %v", round, line, err)
			}
			g := e.N / perEmitter
			if e.N != g*perEmitter+next[g] {
				t.Fatalf("round %d: emitter %d wrote event %d, want %d", round, g, e.N, g*perEmitter+next[g])
			}
			next[g]++
			written++
		}
		if uint64(written) != s.Emitted() {
			t.Fatalf("round %d: %d line(s) written, %d emitted", round, written, s.Emitted())
		}
		if !racing && written != emitters*perEmitter {
			t.Fatalf("round %d: %d line(s) written, want all %d", round, written, emitters*perEmitter)
		}
	}
}

// TestStreamSyncFlushes pins Sync's barrier contract: after Sync returns,
// every prior emit is in the underlying writer, not the stream's buffer.
func TestStreamSyncFlushes(t *testing.T) {
	var buf bytes.Buffer
	s := NewStream(&buf, nil)
	for i := 0; i < 10; i++ {
		s.Emit(map[string]int{"n": i})
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 10 {
		t.Fatalf("after Sync the sink holds %d line(s), want 10", got)
	}
	// Sync is repeatable and still works interleaved with more emits.
	s.Emit(map[string]int{"n": 10})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 11 {
		t.Fatalf("after second Sync the sink holds %d line(s), want 11", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Sync on a closed stream is a no-op, not a deadlock.
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
}

// errWriter fails every write after the first n bytes worth of calls.
type errWriter struct{ failAfter int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.failAfter <= 0 {
		return 0, errors.New("sink failed")
	}
	w.failAfter--
	return len(p), nil
}

// TestStreamSyncSurfacesWriteError pins that a sink failure comes back from
// Sync (and Close), not just silently recorded.
func TestStreamSyncSurfacesWriteError(t *testing.T) {
	s := NewStream(&errWriter{failAfter: 0}, nil)
	// Overflow the bufio buffer so the flush actually hits the sink.
	big := strings.Repeat("x", 100_000)
	s.Emit(map[string]string{"pad": big})
	if err := s.Sync(); err == nil {
		t.Error("Sync returned nil after sink failure")
	}
	if err := s.Close(); err == nil {
		t.Error("Close returned nil after sink failure")
	}
}

// TestStreamConcurrentSyncAndEmit runs Sync, Emit, and Close concurrently
// under -race to pin the lock discipline: Emit, Sync and Close share the
// stream's one mutex.
func TestStreamConcurrentSyncAndEmit(t *testing.T) {
	s := NewStream(io.Discard, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				s.Emit(map[string]int{"n": i})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = s.Sync()
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
