package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"c11tester/internal/campaign"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
	"c11tester/internal/structures"
)

// pureOutcome is everything one execution returns or leaves readable until
// the next: the Result's fields, empty slices as nil so a recycled Result
// compares with a fresh one, the final values, and the execution's counts
// (the wall-clock fields zeroed).
type pureOutcome struct {
	Races      []capi.RaceReport
	Asserts    []capi.AssertFailure
	Blocks     []capi.BlockSpan
	Deadlocked bool
	Truncated  bool
	Failed     bool
	Stats      capi.OpStats
	Finals     map[string]memmodel.Value
	Exec       core.ExecStats
}

func pureOutcomeOf(eng *core.Engine, res *capi.Result) pureOutcome {
	st := eng.ExecStats()
	st.PhaseNS, st.HandoffWaitNS = [core.NumPhases]int64{}, 0
	return pureOutcome{
		Races:      append([]capi.RaceReport(nil), res.Races...),
		Asserts:    append([]capi.AssertFailure(nil), res.AssertFailures...),
		Blocks:     append([]capi.BlockSpan(nil), res.Blocks...),
		Deadlocked: res.Deadlocked,
		Truncated:  res.Truncated,
		Failed:     res.EngineError != nil,
		Stats:      res.Stats,
		Finals:     eng.FinalValues(),
		Exec:       st,
	}
}

// TestExecuteIsPure pins that an execution is a function of (program, seed)
// alone: one warm engine per tool, never rearmed, runs a scrambled sequence
// of (program, seed) pairs — two racy structures, a weak litmus test, a
// program that deadlocks and one whose assertions fail — and every
// execution must equal a fresh engine's for the same pair. A race seen by an
// earlier execution is reported again in full, with nothing that tells the
// executions apart.
func TestExecuteIsPure(t *testing.T) {
	var out string
	sb, ok := litmus.ByName("SB+rlx")
	if !ok {
		t.Fatal("no SB+rlx litmus test")
	}
	progs := []capi.Program{sb.Make(&out)}
	for _, name := range []string{"ms-queue", "mcs-lock"} {
		b, err := structures.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, b.New())
	}
	progs = append(progs,
		capi.Program{Name: "deadlock", Run: func(env capi.Env) {
			main := capi.Thread{TID: env.TID()}
			env.Join(env.Spawn("child", func(env capi.Env) { env.Join(main) }))
		}},
		capi.Program{Name: "assert", Run: func(env capi.Env) {
			x := env.NewAtomic("x", 0)
			d := env.NewLoc("d", 0)
			w := env.Spawn("w", func(env capi.Env) {
				env.Write(d, 1)
				env.Store(x, 1, memmodel.Relaxed)
			})
			env.Assert(env.Load(x, memmodel.Relaxed) == 1, "x not yet 1")
			env.Assert(env.Read(d) == 7, "d is never 7")
			env.Join(w)
		}},
	)
	type pair struct {
		prog int
		seed int64
	}
	var pairs []pair
	for p := range progs {
		for seed := int64(1); seed <= 4; seed++ {
			pairs = append(pairs, pair{p, seed})
		}
	}
	// Scramble, then run the first pairs again at the end, so the warm
	// engine repeats some executions long after it first ran them.
	rnd := rand.New(rand.NewSource(52))
	rnd.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	pairs = append(pairs, pairs[:5]...)

	for _, name := range campaign.StandardToolNames() {
		spec, err := campaign.StandardTool(name, campaign.ToolOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			warm := spec.New().(*core.Engine)
			defer warm.Close()
			var races, asserts, deadlocks int
			for i, pr := range pairs {
				out = ""
				got := pureOutcomeOf(warm, warm.Execute(progs[pr.prog], pr.seed))
				gotOut := out
				fresh := spec.New().(*core.Engine)
				out = ""
				want := pureOutcomeOf(fresh, fresh.Execute(progs[pr.prog], pr.seed))
				fresh.Close()
				if !reflect.DeepEqual(got, want) || gotOut != out {
					t.Fatalf("execution %d (%s, seed %d): warm engine diverged from a fresh one:\n got %+v outcome %q\nwant %+v outcome %q",
						i, progs[pr.prog].Name, pr.seed, got, gotOut, want, out)
				}
				races += len(got.Races)
				asserts += len(got.Asserts)
				if got.Deadlocked {
					deadlocks++
				}
			}
			if races == 0 || asserts == 0 || deadlocks == 0 {
				t.Errorf("sequence saw %d races, %d assertion failures and %d deadlocks; it must exercise all three",
					races, asserts, deadlocks)
			}
		})
	}
}
