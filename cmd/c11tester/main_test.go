package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsDocumented requires every flag the CLI registers to appear as
// -name in README.md, so no flag ships undocumented.
func TestFlagsDocumented(t *testing.T) {
	usage, err := os.Create(filepath.Join(t.TempDir(), "usage.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer usage.Close()
	run([]string{"-h"}, usage)
	text, err := os.ReadFile(usage.Name())
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	// The flag package prints each flag as "  -name" or "  -name type".
	var flags []string
	for _, line := range strings.Split(string(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			flags = append(flags, strings.Fields(rest)[0])
		}
	}
	if len(flags) < 20 {
		t.Fatalf("parsed %d flags from the usage output, want the whole flag set:\n%s", len(flags), text)
	}
	for _, name := range flags {
		// -name must stand alone: -record inside -record-on does not count.
		re := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`)
		if !re.Match(readme) {
			t.Errorf("flag -%s is not documented in README.md", name)
		}
	}
}

// TestStreamFlagsRejected pins that the event-stream flags are gone: -events
// and -v are unknown flags, so the parse fails before any campaign runs.
func TestStreamFlagsRejected(t *testing.T) {
	out, err := os.Create(filepath.Join(t.TempDir(), "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	for _, args := range [][]string{{"-events", "ev.jsonl"}, {"-v"}} {
		if code := run(args, out); code != 1 {
			t.Errorf("c11tester %v = exit %d, want 1 (unknown flag)", args, code)
		}
	}
}
