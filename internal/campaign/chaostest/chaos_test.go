// Package chaostest is the fault-injection harness of the crash-safety
// tentpole: it drives REAL c11tester subprocesses, SIGKILLs them at
// randomized-but-seeded points mid-campaign, resumes them from their
// checkpoints until one run finishes, and asserts the survivor is
// indistinguishable from an uninterrupted campaign — byte-identical canonical
// summary (convergence curves included), zero lost races, and a readable,
// complete record directory.
package chaostest

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"c11tester/internal/campaign"
	"c11tester/internal/obs"
)

// campaignArgs is the shared matrix of every run in this harness: adaptive
// policy (so resume crosses real wave barriers), two benchmark cells and two
// litmus cells, enough runs that a kill usually lands mid-campaign.
var campaignArgs = []string{
	"-tools", "c11tester",
	"-bench", "ms-queue,seqlock",
	"-litmus", "MP+rlx,CoRR",
	"-runs", "300",
	"-policy", "converge", "-epsilon", "0.075", // L = 40: a wave barrier every 40 executions
	"-seed", "77",
	"-workers", "2",
	"-q",
}

// buildTester compiles cmd/c11tester once into dir and returns the binary
// path.
func buildTester(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "c11tester")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/c11tester")
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building c11tester: %v\n%s", err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(wd))) // internal/campaign/chaostest → repo root
}

func canonicalSummary(t *testing.T, path string) string {
	t.Helper()
	sum, err := campaign.LoadSummary(path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	data, err := json.MarshalIndent(sum.Canonical(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestKillResumeByteIdentical is the harness's central assertion. It runs the
// campaign uninterrupted once, then runs the identical campaign under a
// seeded SIGKILL storm — kill, resume from the checkpoint, kill again — until
// an attempt completes, and compares artifacts.
func TestKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos harness skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildTester(t, dir)

	runArgs := func(jsonPath, capDir string, extra ...string) []string {
		args := append([]string{}, campaignArgs...)
		args = append(args, "-json", jsonPath,
			"-record", capDir, "-record-on", "new_race,forbidden,infeasible,slow_steps")
		return append(args, extra...)
	}

	// Uninterrupted baseline.
	basePath := filepath.Join(dir, "base.json")
	baseCap := filepath.Join(dir, "base-cap")
	start := time.Now()
	cmd := exec.Command(bin, runArgs(basePath, baseCap)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("baseline campaign: %v\n%s", err, out)
	}
	baseDur := time.Since(start)

	// Chaos loop: seeded kill points spread over the campaign's natural
	// duration, so kills land in different waves across attempts.
	chaosPath := filepath.Join(dir, "chaos.json")
	chaosCap := filepath.Join(dir, "chaos-cap")
	ckPath := filepath.Join(dir, "ck.json")
	rng := rand.New(rand.NewSource(42))
	kills, completed := 0, false
	const maxAttempts = 60
	for attempt := 0; attempt < maxAttempts; attempt++ {
		cmd := exec.Command(bin, runArgs(chaosPath, chaosCap,
			"-checkpoint", ckPath, "-resume", ckPath)...)
		cmd.Stderr = nil
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		// Kill somewhere inside the campaign's runtime envelope (including
		// very early, mid-write points).
		delay := time.Duration(rng.Int63n(int64(baseDur + baseDur/2)))
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("attempt %d: campaign failed on its own: %v", attempt, err)
			}
			completed = true
		case <-time.After(delay):
			_ = cmd.Process.Kill() // SIGKILL: no cleanup, no deferred writes
			<-done
			kills++
		}
		if completed {
			break
		}
	}
	if !completed {
		t.Fatalf("no attempt completed within %d kills", kills)
	}
	if kills == 0 {
		t.Log("warning: campaign completed before the first kill; resume path not exercised this run")
	}
	t.Logf("campaign survived %d SIGKILL(s) before completing", kills)

	// Byte-identical canonical summary: the headline guarantee. Canonical
	// keeps the converge cells' curves, so they are compared too.
	base, chaos := canonicalSummary(t, basePath), canonicalSummary(t, chaosPath)
	if base != chaos {
		t.Fatalf("resumed campaign differs from uninterrupted run after %d kill(s):\nbase:  %.2000s\nchaos: %.2000s", kills, base, chaos)
	}

	// Zero lost races, asserted directly on top of the byte identity.
	baseSum, err := campaign.LoadSummary(basePath)
	if err != nil {
		t.Fatal(err)
	}
	chaosSum, err := campaign.LoadSummary(chaosPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, ts := range baseSum.Tools {
		if got := len(chaosSum.Tools[i].Races); got != len(ts.Races) {
			t.Errorf("%s: %d race(s) after chaos, want %d", ts.Tool, got, len(ts.Races))
		}
	}

	// The curves are there to compare: the baseline's converge cells carry
	// them.
	longest := 0
	for _, ts := range baseSum.Tools {
		for _, c := range ts.Benchmarks {
			longest = max(longest, len(c.Budget.Curve))
		}
		for _, c := range ts.Litmus {
			longest = max(longest, len(c.Budget.Curve))
		}
	}
	if longest == 0 {
		t.Fatal("baseline summary holds no convergence curve: the comparison does not cover them")
	}
	t.Logf("longest convergence curve: %d wave(s)", longest)

	// The record manifest must be complete and intact (atomic write), and
	// every referenced trace file must exist — the crash-era attempts must
	// not have left dangling references.
	baseMan, err := obs.ReadManifest(filepath.Join(baseCap, obs.ManifestFileName))
	if err != nil {
		t.Fatal(err)
	}
	chaosMan, err := obs.ReadManifest(filepath.Join(chaosCap, obs.ManifestFileName))
	if err != nil {
		t.Fatalf("chaos record manifest unreadable: %v", err)
	}
	if len(chaosMan.Captures) != len(baseMan.Captures) {
		t.Errorf("chaos run recorded %d execution(s), baseline %d", len(chaosMan.Captures), len(baseMan.Captures))
	}
	for _, c := range chaosMan.Captures {
		if c.File == "" {
			continue
		}
		if _, err := os.Stat(filepath.Join(chaosCap, c.File)); err != nil {
			t.Errorf("manifest references missing trace file %s: %v", c.File, err)
		}
	}

	// The final checkpoint is marked complete, and one more -resume run
	// replays the identical summary without re-executing the campaign.
	ck, err := campaign.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Complete {
		t.Fatalf("final checkpoint not complete: wave %d", ck.Wave)
	}
	replayPath := filepath.Join(dir, "replay.json")
	replay := exec.Command(bin, runArgs(replayPath, filepath.Join(dir, "replay-cap"),
		"-resume", ckPath)...)
	if out, err := replay.CombinedOutput(); err != nil {
		t.Fatalf("replay from complete checkpoint: %v\n%s", err, out)
	}
	if got := canonicalSummary(t, replayPath); got != base {
		t.Error("replay from complete checkpoint differs from baseline")
	}
}

// TestShardFleetMerge drives the sharded half of the tentpole through real
// subprocesses: a 3-shard fleet plus c11merge must reproduce the
// single-machine artifact, and a torn partial must be refused with a
// structured error.
func TestShardFleetMerge(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess shard harness skipped in -short mode")
	}
	dir := t.TempDir()
	bin := buildTester(t, dir)
	merge := filepath.Join(dir, "c11merge")
	build := exec.Command("go", "build", "-o", merge, "./cmd/c11merge")
	build.Dir = repoRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building c11merge: %v\n%s", err, out)
	}

	args := []string{
		"-tools", "c11tester,tsan11",
		"-bench", "ms-queue",
		"-litmus", "MP+rlx,CoRR",
		"-runs", "60", "-seed", "31", "-q",
	}
	singlePath := filepath.Join(dir, "single.json")
	cmd := exec.Command(bin, append(append([]string{}, args...), "-json", singlePath)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("single run: %v\n%s", err, out)
	}
	var parts []string
	for i := 0; i < 3; i++ {
		p := filepath.Join(dir, fmt.Sprintf("part%d.json", i))
		cmd := exec.Command(bin, append(append([]string{}, args...),
			"-json", p, "-shard", fmt.Sprintf("%d/3", i))...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("shard %d: %v\n%s", i, err, out)
		}
		if _, err := os.Stat(p + ".shard.json"); err != nil {
			t.Fatalf("shard %d wrote no manifest: %v", i, err)
		}
		parts = append(parts, p)
	}

	mergedPath := filepath.Join(dir, "merged.json")
	cmd = exec.Command(merge, append([]string{"-o", mergedPath, "-q"}, parts...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("merge: %v\n%s", err, out)
	}
	cmd = exec.Command(merge, "-equal", mergedPath, singlePath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("merged artifact differs from single-machine run: %v\n%s", err, out)
	}

	// A torn partial must be refused with a structured error (exit 1), not a
	// panic and not a bogus merge.
	data, err := os.ReadFile(parts[1])
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, data[:len(data)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	cmd = exec.Command(merge, "-o", filepath.Join(dir, "bad.json"), parts[0], torn, parts[2])
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("merge accepted a torn partial:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("torn partial: %v (output %s), want exit 1", err, out)
	}
}
