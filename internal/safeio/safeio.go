// Package safeio is the crash-safety layer under every artifact the campaign
// fabric writes or reads. Writers go through WriteFileAtomic — temp file in
// the destination directory, fsync, rename, directory fsync — so a crash (or
// a SIGKILL mid-write) never leaves a torn file where a reader expects JSON:
// readers see either the old complete artifact or the new complete one.
// Readers go through DecodeJSONFile, which turns truncation and corruption
// into named, actionable errors (file, byte offset) instead of bare unmarshal
// errors.
//
// The package also hosts the fault-injection hook the chaos tests use:
// SetFailpoint makes every atomic write consult a caller-supplied function
// first, so ENOSPC-style write failures can be injected deterministically and
// asserted to surface as structured errors, not panics or torn files.
package safeio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// failpoint, when non-nil, is consulted by WriteFileAtomic before touching
// the filesystem; a non-nil return aborts the write with that error. Tests
// inject ENOSPC-style failures here.
var (
	failMu    sync.Mutex
	failpoint func(path string) error
)

// SetFailpoint installs (or, with nil, clears) the write-failure injection
// hook. Intended for fault-injection tests only; the hook sees the
// destination path of every atomic write.
func SetFailpoint(f func(path string) error) {
	failMu.Lock()
	failpoint = f
	failMu.Unlock()
}

func checkFailpoint(path string) error {
	failMu.Lock()
	f := failpoint
	failMu.Unlock()
	if f == nil {
		return nil
	}
	return f(path)
}

// WriteFileAtomic writes data to path so that path never holds a partial
// file: the bytes land in a temp file in the same directory, are fsync'd,
// and are renamed over path; the directory is fsync'd afterwards so the
// rename itself survives a crash. Any failure cleans up the temp file and
// leaves path untouched.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	if err := checkFailpoint(path); err != nil {
		return fmt.Errorf("safeio: write %s: %w", path, err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("safeio: write %s: %w", path, err)
	}
	tmpName := tmp.Name()
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("safeio: write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("safeio: write %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("safeio: write %s: %w", path, err)
	}
	// Persist the rename. Directory fsync is best-effort: some platforms
	// refuse to open directories for writing, and the data itself is already
	// durable.
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// WriteJSONAtomic marshals v indented and writes it atomically, with a
// trailing newline — the convention of every JSON artifact in this
// repository. An array whose elements are all numbers (a histogram's bucket
// counts) is written on one line; everything else keeps MarshalIndent's
// layout.
func WriteJSONAtomic(path string, v any, perm os.FileMode) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("safeio: write %s: %w", path, err)
	}
	return WriteFileAtomic(path, append(oneLineNumberArrays(data), '\n'), perm)
}

// oneLineNumberArrays rewrites MarshalIndent output so that every array of
// numbers sits on one line: "[\n    1,\n    2\n  ]" becomes "[1, 2]".
func oneLineNumberArrays(in []byte) []byte {
	out := make([]byte, 0, len(in))
	inString := false
	for i := 0; i < len(in); i++ {
		c := in[i]
		switch {
		case inString && c == '\\':
			out = append(out, c, in[i+1])
			i++
			continue
		case c == '"':
			inString = !inString
		case !inString && c == '[':
			if end, ok := numberArray(in, i); ok {
				out = append(out, '[')
				for j, tok := range bytes.Split(in[i+1:end], []byte{','}) {
					if j > 0 {
						out = append(out, ',', ' ')
					}
					out = append(out, bytes.TrimSpace(tok)...)
				}
				out = append(out, ']')
				i = end
				continue
			}
		}
		out = append(out, c)
	}
	return out
}

// numberArray reports whether the array opening at in[open] holds only
// numbers, and returns the index of its closing bracket.
func numberArray(in []byte, open int) (end int, ok bool) {
	for i := open + 1; i < len(in); i++ {
		switch c := in[i]; {
		case c == ']':
			return i, i > open+1
		case c == ',' || c == ' ' || c == '\n' || c == '-' || c == '+' || c == '.' ||
			c == 'e' || c == 'E' || ('0' <= c && c <= '9'):
		default:
			return 0, false
		}
	}
	return 0, false
}

// DecodeError is the named error DecodeJSONFile returns for unreadable JSON
// artifacts: it carries the file, the byte offset where decoding failed, and
// the file size, so "truncated at byte 4096 of 4096" is one glance instead of
// a bare "unexpected end of JSON input".
type DecodeError struct {
	Path   string
	Offset int64 // byte offset of the failure; -1 when unknown
	Size   int64
	Err    error
}

func (e *DecodeError) Error() string {
	switch {
	case e.Size == 0:
		return fmt.Sprintf("%s: empty file (torn or never-completed write?)", e.Path)
	case e.truncated():
		return fmt.Sprintf("%s: truncated JSON: input ends at byte %d (torn write? re-fetch or regenerate the artifact)", e.Path, e.Size)
	case e.Offset >= 0:
		return fmt.Sprintf("%s: corrupt JSON at byte %d of %d: %v", e.Path, e.Offset, e.Size, e.Err)
	default:
		return fmt.Sprintf("%s: corrupt JSON: %v", e.Path, e.Err)
	}
}

func (e *DecodeError) Unwrap() error { return e.Err }

// truncated reports whether the decode failure is input ending mid-value — a
// torn write. encoding/json reports that as its own SyntaxError ("unexpected
// end of JSON input"), not as io.ErrUnexpectedEOF, so both spellings count.
func (e *DecodeError) truncated() bool {
	if errors.Is(e.Err, io.ErrUnexpectedEOF) || errors.Is(e.Err, io.EOF) {
		return true
	}
	var syn *json.SyntaxError
	return errors.As(e.Err, &syn) && syn.Offset >= e.Size
}

// DecodeJSONFile reads path and unmarshals it into v. Decoding failures come
// back as a *DecodeError naming the file and byte offset; file-system errors
// are returned as-is.
func DecodeJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return &DecodeError{Path: path, Offset: 0, Size: 0, Err: io.ErrUnexpectedEOF}
	}
	if err := json.Unmarshal(data, v); err != nil {
		de := &DecodeError{Path: path, Offset: -1, Size: int64(len(data)), Err: err}
		var syn *json.SyntaxError
		if errors.As(err, &syn) {
			de.Offset = syn.Offset
		}
		var typ *json.UnmarshalTypeError
		if errors.As(err, &typ) {
			de.Offset = typ.Offset
		}
		return de
	}
	return nil
}
