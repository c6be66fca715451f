package safeio

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileAtomicReplacesWholeFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	if err := WriteFileAtomic(path, []byte("old-content"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "new" {
		t.Fatalf("read %q, %v; want \"new\"", data, err)
	}
	// No temp droppings left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (err=%v), want only the artifact", len(entries), err)
	}
}

func TestWriteFileAtomicFailpointLeavesOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.json")
	if err := WriteFileAtomic(path, []byte("survivor"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("no space left on device")
	SetFailpoint(func(p string) error {
		if p == path {
			return boom
		}
		return nil
	})
	defer SetFailpoint(nil)
	err := WriteFileAtomic(path, []byte("clobber"), 0o644)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped failpoint error", err)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "survivor" {
		t.Fatalf("old artifact damaged by failed write: %q", data)
	}
}

func TestWriteJSONAtomicTrailingNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.json")
	if err := WriteJSONAtomic(path, map[string]int{"n": 1}, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(string(data), "}\n") {
		t.Fatalf("artifact does not end in newline: %q", data)
	}
}

func TestDecodeJSONFileErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var v map[string]any

	// Empty file: the signature of a crash between create and write.
	err := DecodeJSONFile(write("empty.json", ""), &v)
	var de *DecodeError
	if !errors.As(err, &de) || de.Size != 0 {
		t.Fatalf("empty file: err = %v", err)
	}
	if !strings.Contains(err.Error(), "empty file") {
		t.Errorf("empty-file message = %q", err)
	}

	// Truncated JSON: a torn non-atomic write.
	full := `{"schema":"x","n":12345}`
	err = DecodeJSONFile(write("torn.json", full[:10]), &v)
	if !errors.As(err, &de) {
		t.Fatalf("torn file: err = %v, want *DecodeError", err)
	}
	if de.Path == "" || !strings.Contains(err.Error(), "truncated JSON") {
		t.Errorf("torn-file error lacks path/diagnosis: %v", err)
	}

	// Corrupt byte mid-file: the offset names the failure point.
	err = DecodeJSONFile(write("corrupt.json", `{"a": 1, "b": ???}`), &v)
	if !errors.As(err, &de) || de.Offset <= 0 {
		t.Fatalf("corrupt file: err = %v (offset %d), want positive offset", err, de.Offset)
	}

	// Type mismatch also carries an offset.
	var typed struct{ N int }
	err = DecodeJSONFile(write("typed.json", `{"N": "not-a-number"}`), &typed)
	if !errors.As(err, &de) || de.Offset <= 0 {
		t.Fatalf("type mismatch: err = %v, want *DecodeError with offset", err)
	}

	// A missing file is a plain fs error, not a DecodeError.
	err = DecodeJSONFile(filepath.Join(dir, "nope.json"), &v)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want ErrNotExist", err)
	}
}
