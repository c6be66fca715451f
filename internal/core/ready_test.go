package core_test

import (
	"testing"

	"c11tester/internal/campaign"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/litmus"
	"c11tester/internal/structures"
)

// TestReadyListKeptAcrossTools runs the 22 programs of the paper matrix
// under each tool, tsan11rec on kernel-thread handoff included, and requires
// the ready list pick keeps between steps to equal a fresh rebuild at every
// pick.
func TestReadyListKeptAcrossTools(t *testing.T) {
	var out string
	var progs []capi.Program
	for _, b := range structures.All() {
		progs = append(progs, b.New())
	}
	for _, lt := range litmus.Tests() {
		progs = append(progs, lt.Make(&out))
	}
	for _, tc := range []struct {
		tool     string
		faithful bool
		seeds    int64
	}{{"c11tester", false, 50}, {"tsan11", false, 50}, {"tsan11rec", false, 50}, {"tsan11rec", true, 10}} {
		spec, err := campaign.StandardTool(tc.tool, campaign.ToolOptions{FaithfulHandoff: tc.faithful})
		if err != nil {
			t.Fatal(err)
		}
		name := spec.Name + spec.ReproFlags()
		t.Run(name, func(t *testing.T) {
			picks := 0
			defer core.CheckReadyLists(t, &picks)()
			for _, p := range progs {
				tool := spec.New()
				for seed := int64(0); seed < tc.seeds && !t.Failed(); seed++ {
					tool.Execute(p, seed)
				}
				tool.(*core.Engine).Close()
			}
			if picks == 0 {
				t.Fatal("no pick used the kept ready list")
			}
		})
	}
}

// TestReadyListKeptInEngineTests reruns the engine's mutex, condition
// variable, join, deadlock and abort tests with the same check.
func TestReadyListKeptInEngineTests(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"MutexPreventsRace", core.TestMutexPreventsRace},
		{"CondVarProtocol", core.TestCondVarProtocol},
		{"DeadlockDetected", core.TestDeadlockDetected},
		{"TruncationGuard", core.TestTruncationGuard},
		{"FirstOpBlocksOnHeldMutex", core.TestFirstOpBlocksOnHeldMutex},
		{"FirstOpIsJoin", core.TestFirstOpIsJoin},
		{"SpawnFromNonMain", core.TestSpawnFromNonMain},
		{"ZeroOpThreadRunsOnce", core.TestZeroOpThreadRunsOnce},
		{"PanicBeforeFirstOp", core.TestPanicBeforeFirstOp},
		{"NeverStartedThreadsPooledEqualsFresh", core.TestNeverStartedThreadsPooledEqualsFresh},
		{"InfeasiblePanicIsRecoveredAndEngineStaysUsable", core.TestInfeasiblePanicIsRecoveredAndEngineStaysUsable},
		{"InlineStepFailurePaths", core.TestInlineStepFailurePaths},
		{"PanickingProgramAlternationOnPooledEngine", core.TestPanickingProgramAlternationOnPooledEngine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			picks := 0
			defer core.CheckReadyLists(t, &picks)()
			tc.run(t)
			if picks == 0 {
				t.Fatal("no pick used the kept ready list")
			}
		})
	}
}
