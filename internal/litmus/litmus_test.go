package litmus

import (
	"testing"

	"c11tester/internal/baseline"
	"c11tester/internal/capi"
	"c11tester/internal/core"
)

// runHist executes test under tool for runs executions and histograms outcomes.
func runHist(tool capi.Tool, test *Test, runs int, seedBase int64) map[string]int {
	hist := map[string]int{}
	var out string
	prog := test.Make(&out)
	for i := 0; i < runs; i++ {
		out = ""
		tool.Execute(prog, seedBase+int64(i))
		if out != "" {
			hist[out]++
		}
	}
	return hist
}

func c11() capi.Tool {
	return core.New("c11tester", core.NewC11Model(), core.Config{StoreBurst: true})
}

// TestC11TesterSoundness: the C11Tester engine must never produce a
// forbidden outcome of any litmus test.
func TestC11TesterSoundness(t *testing.T) {
	for _, lt := range Tests() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			hist := runHist(c11(), lt, 600, 0)
			for o := range lt.Forbidden {
				if hist[o] > 0 {
					t.Errorf("forbidden outcome %q observed %d times: %v", o, hist[o], hist)
				}
			}
		})
	}
}

// TestC11TesterCompleteness: the weak outcomes must all be explorable.
func TestC11TesterCompleteness(t *testing.T) {
	for _, lt := range Tests() {
		if len(lt.Weak) == 0 {
			continue
		}
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			hist := runHist(c11(), lt, 3000, 1000)
			for o := range lt.Weak {
				if hist[o] == 0 {
					t.Errorf("weak outcome %q never observed: %v", o, hist)
				}
			}
		})
	}
}

// TestBaselineSoundness: the baselines admit a smaller fragment, so they
// must avoid both the common forbidden outcomes and their additional ones.
func TestBaselineSoundness(t *testing.T) {
	mk := []func() capi.Tool{
		func() capi.Tool { return baseline.NewTsan11() },
		func() capi.Tool { return baseline.NewTsan11rec(false) },
	}
	for _, makeTool := range mk {
		tool := makeTool()
		t.Run(tool.Name(), func(t *testing.T) {
			for _, lt := range Tests() {
				hist := runHist(makeTool(), lt, 400, 0)
				for o := range lt.Forbidden {
					if hist[o] > 0 {
						t.Errorf("%s: forbidden outcome %q observed: %v", lt.Name, o, hist)
					}
				}
				for o := range lt.BaselineForbidden {
					if hist[o] > 0 {
						t.Errorf("%s: baseline-forbidden outcome %q observed: %v", lt.Name, o, hist)
					}
				}
			}
		})
	}
}

// TestFragmentGap: the CoRR+opposed behaviour separates the fragments —
// C11Tester can produce it, the baselines cannot (Section 1.1).
func TestFragmentGap(t *testing.T) {
	var sep *Test
	for _, lt := range Tests() {
		if lt.Name == "CoRR+opposed" {
			sep = lt
		}
	}
	if sep == nil {
		t.Fatal("separator test missing")
	}
	hist := runHist(c11(), sep, 4000, 0)
	if hist["21"] == 0 {
		t.Errorf("C11Tester never exhibited the fragment-gap behaviour: %v", hist)
	}
}
