package safeio

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// TestWriteJSONAtomicNumberArraysOnOneLine: every array of numbers is
// written on one line, anything else keeps MarshalIndent's layout, and the
// file decodes to the same value as MarshalIndent's output.
func TestWriteJSONAtomicNumberArraysOnOneLine(t *testing.T) {
	v := map[string]any{
		"hist":    map[string]any{"base": 1024, "n": []uint64{0, 3, 0, 12}, "sum": 7},
		"floats":  []float64{-1.5, 0, 2.25e-9, 1e21},
		"nested":  [][]int{{1, 2}, {}, {3}},
		"strings": []string{"[1, 2]", `a "quoted" ] , 3`, `back\slash`},
		"mixed":   []any{1, "two", nil, true},
		"objects": []map[string][]int{{"n": {4, 5}}},
		"empty":   []int{},
	}
	path := filepath.Join(t.TempDir(), "v.json")
	if err := WriteJSONAtomic(path, v, 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var got, want any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("artifact does not decode: %v\n%s", err, data)
	}
	if err := json.Unmarshal(indented, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %v, MarshalIndent decodes to %v", got, want)
	}
	for _, line := range []string{
		`"n": [0, 3, 0, 12],`,
		`"floats": [-1.5, 0, 2.25e-9, 1e+21],`,
		`    [1, 2],`,
		`    [],`,
		`    [3]`,
		`"empty": [],`,
		`    "[1, 2]",`,
		`    1,`,
		`      "n": [4, 5]`,
	} {
		if !strings.Contains(string(data), line+"\n") {
			t.Errorf("artifact lacks the line %q:\n%s", line, data)
		}
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
