package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFlagsDocumented requires every flag that c11tester and c11report
// register to appear as -name in README.md, so no flag ships undocumented.
// c11report's usage comes from `go run`, since its run function lives in
// another main package.
func TestFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	c11report := exec.Command("go", "run", "./cmd/c11report", "-h")
	c11report.Dir = "../.."
	reportUsage, _ := c11report.Output() // -h exits 1 after printing the usage
	for _, cmd := range []struct {
		name     string
		usage    string
		minFlags int // the whole flag set, so a parse that finds fewer failed
	}{
		{"c11tester", usageOf(t), 21},
		{"c11report", string(reportUsage), 4},
	} {
		// The flag package prints each flag as "  -name" or "  -name type".
		var flags []string
		for _, line := range strings.Split(cmd.usage, "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				flags = append(flags, strings.Fields(rest)[0])
			}
		}
		if len(flags) < cmd.minFlags {
			t.Fatalf("%s: parsed %d flags from the usage output, want its whole flag set (%d):\n%s",
				cmd.name, len(flags), cmd.minFlags, cmd.usage)
		}
		for _, name := range flags {
			// -name must stand alone: -record inside -record-on does not count.
			re := regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`)
			if !re.Match(readme) {
				t.Errorf("%s flag -%s is not documented in README.md", cmd.name, name)
			}
		}
	}
}

// usageOf returns c11tester's -h output.
func usageOf(t *testing.T) string {
	t.Helper()
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
	return string(text)
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

// TestRefusedCommandLeavesNoRecordDir pins that the -record directory is
// made only for a command that runs: a command refused for a missing file
// in its -resume list exits 1 and leaves no directory behind.
func TestRefusedCommandLeavesNoRecordDir(t *testing.T) {
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	rec := filepath.Join(dir, "rec")
	args := []string{"-tools", "c11tester", "-bench", "ms-queue", "-litmus", "none", "-runs", "2", "-json", "",
		"-resume", filepath.Join(dir, "p0.ck") + "," + filepath.Join(dir, "p1.ck"), "-record", rec}
	if code := run(args, out); code != 1 {
		t.Fatalf("c11tester %v = exit %d, want 1", args, code)
	}
	if _, err := os.Stat(rec); !os.IsNotExist(err) {
		t.Errorf("refused command left %s behind (stat: %v)", rec, err)
	}
}

// TestRebasedArtifactRefused pins that -resume refuses an artifact whose
// cell histograms have another base with exit 1, where folding it would
// panic.
func TestRebasedArtifactRefused(t *testing.T) {
	dir := t.TempDir()
	out, err := os.Create(filepath.Join(dir, "out.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	ck := filepath.Join(dir, "ck.json")
	args := []string{"-tools", "c11tester", "-bench", "ms-queue", "-litmus", "none", "-runs", "2", "-q", "-json", ck}
	if code := run(args, out); code != 0 {
		t.Fatalf("c11tester %v = exit %d", args, code)
	}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	rebased := strings.Replace(string(data), `"base": 1024`, `"base": 2048`, 1)
	if rebased == string(data) {
		t.Fatal("the artifact holds no base-1024 histogram to rebase")
	}
	if err := os.WriteFile(ck, []byte(rebased), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run(append(args, "-resume", ck), out); code != 1 {
		t.Errorf("-resume of a rebased artifact = exit %d, want 1", code)
	}
}
