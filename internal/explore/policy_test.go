package explore

import (
	"fmt"
	"math"
	"math/big"
	"testing"

	"c11tester/internal/rng"
)

// TestConvergeWindowFromEpsilon pins L = ⌈3/ε⌉ for a few ε: the trailing
// window, the floor and the chunk are all L, and the tracker state echoes it.
func TestConvergeWindowFromEpsilon(t *testing.T) {
	for _, c := range []struct {
		eps  float64
		want int
	}{{0.02, 150}, {0.05, 60}, {0.1, 30}, {0.07, 43}} {
		p := Converge{Epsilon: c.eps}
		if p.Chunk() != c.want {
			t.Errorf("ε=%g: Chunk() = %d, want L = %d", c.eps, p.Chunk(), c.want)
		}
		if st := p.NewTracker().State(); st.Window != c.want || st.Epsilon != c.eps {
			t.Errorf("ε=%g: state echoes window %d, ε %g", c.eps, st.Window, st.Epsilon)
		}
	}
}

func TestConvergeStableStreamConvergesAtFloor(t *testing.T) {
	c := Converge{}
	L := c.Chunk()
	// A stream with nothing to find converges as soon as the window is full.
	tr := c.NewTracker()
	for i := 0; i < L-1; i++ {
		tr.Observe(Obs{})
		if tr.Converged() {
			t.Fatalf("converged after %d < L = %d observations", i+1, L)
		}
	}
	tr.Observe(Obs{})
	if !tr.Converged() {
		t.Fatal("empty stream did not converge at the L floor")
	}
	// A stable keyed stream found its key and outcome in execution 0, so
	// it needs L executions after that one.
	tr = c.NewTracker()
	stable := Obs{Detected: true, RaceKeys: []string{"r1"}, Outcome: "a"}
	for i := 0; i < L; i++ {
		tr.Observe(stable)
		if tr.Converged() {
			t.Fatalf("converged after %d observations with execution 0's news in the window", i+1)
		}
	}
	tr.Observe(stable)
	if !tr.Converged() {
		t.Fatal("perfectly stable stream did not converge L executions after its last news")
	}
}

// TestConvergeLateKeyDelaysStop pins the run-length rule at its edge: a key
// first seen at execution L−1 (the last one the floor covers) blocks the stop
// at L, and the cell may stop only once L executions have followed it.
func TestConvergeLateKeyDelaysStop(t *testing.T) {
	c := Converge{}
	L := c.Chunk()
	tr := c.NewTracker()
	for i := 0; i < L-1; i++ {
		tr.Observe(Obs{})
	}
	tr.Observe(Obs{Detected: true, RaceKeys: []string{"late"}})
	if tr.Converged() {
		t.Fatalf("converged at L = %d with a new key at execution L−1", L)
	}
	for i := 0; i < L-1; i++ {
		tr.Observe(Obs{})
		if tr.Converged() {
			t.Fatalf("converged at %d, only %d executions after the new key", L+i+1, i+1)
		}
	}
	tr.Observe(Obs{})
	if !tr.Converged() {
		t.Fatalf("did not converge at 2L = %d, L executions after the new key", 2*L)
	}
}

// TestConvergeKeepsFrequentKeys checks the guarantee end to end on a
// simulated cell: a key that occurs in each execution with probability ε is
// lost — the cell converges before ever seeing it — in at most 5% of cells,
// as (1−ε)^L ≤ e^−3 promises. Checks run every Chunk() executions, as the
// campaign's wave loop runs them.
func TestConvergeKeepsFrequentKeys(t *testing.T) {
	for _, eps := range []float64{0.02, 0.05, 0.1} {
		c := Converge{Epsilon: eps}
		const cells = 2000
		lost := 0
		var r rng.Rand
		for cell := 0; cell < cells; cell++ {
			r.Seed(int64(cell))
			tr := c.NewTracker()
			seen := false
			for n := 1; n <= 20*c.Chunk(); n++ {
				hit := float64(r.Uint64()>>11)/(1<<53) < eps
				seen = seen || hit
				o := Obs{Detected: hit}
				if hit {
					o.RaceKeys = []string{"k"}
				}
				tr.Observe(o)
				if n%c.Chunk() == 0 && tr.Converged() {
					break
				}
			}
			if !seen {
				lost++
			}
		}
		t.Logf("ε=%g: lost in %d of %d cells", eps, lost, cells)
		if rate := float64(lost) / cells; rate > 0.05 {
			t.Errorf("ε=%g: key of frequency ε lost in %d of %d cells (%.1f%% > 5%%)", eps, lost, cells, 100*rate)
		}
	}
}

func TestConvergeNewRaceKeyInWindowBlocksConvergence(t *testing.T) {
	c := Converge{Epsilon: 0.1}
	L := c.Chunk()
	tr := c.NewTracker()
	for i := 0; i < 2*L; i++ {
		tr.Observe(Obs{Detected: true, RaceKeys: []string{"r1"}})
	}
	if !tr.Converged() {
		t.Fatal("stable race stream did not converge")
	}
	tr.Observe(Obs{Detected: true, RaceKeys: []string{"r1", "r2"}})
	if tr.Converged() {
		t.Fatal("a first-seen race key inside the window must block convergence")
	}
	// Once the novelty leaves the trailing window, convergence returns.
	for i := 0; i < L; i++ {
		tr.Observe(Obs{Detected: true, RaceKeys: []string{"r1", "r2"}})
	}
	if !tr.Converged() {
		t.Fatal("novelty outside the window must not block convergence forever")
	}
}

func TestConvergeNewOutcomeInWindowBlocksConvergence(t *testing.T) {
	c := Converge{Epsilon: 0.1}
	tr := c.NewTracker()
	for i := 0; i < 3*c.Chunk(); i++ {
		tr.Observe(Obs{Outcome: fmt.Sprintf("o%d", i%2)})
	}
	if !tr.Converged() {
		t.Fatal("two-outcome alternating stream did not converge")
	}
	tr.Observe(Obs{Outcome: "fresh"})
	if tr.Converged() {
		t.Fatal("a first-seen outcome inside the window must block convergence")
	}
}

func TestConvergeRateDriftBlocksConvergence(t *testing.T) {
	c := Converge{Epsilon: 0.1}
	L := c.Chunk()
	tr := c.NewTracker()
	// 2L undetected executions, then a trailing window full of detections
	// (with no race key, so only the rate leg can object): the rate is still
	// climbing, so the cell must not stop.
	for i := 0; i < 2*L; i++ {
		tr.Observe(Obs{})
	}
	if !tr.Converged() {
		t.Fatal("flat zero-rate stream did not converge")
	}
	for i := 0; i < L; i++ {
		tr.Observe(Obs{Detected: true})
	}
	if tr.Converged() {
		t.Fatal("rate climbing through the window must block convergence")
	}
}

func TestConvergeOutcomeDistributionDriftBlocksConvergence(t *testing.T) {
	c := Converge{Epsilon: 0.05}
	L := c.Chunk()
	tr := c.NewTracker()
	// 2L executions split 50/50 over two outcomes...
	for i := 0; i < 2*L; i++ {
		tr.Observe(Obs{Outcome: fmt.Sprintf("o%d", i%2)})
	}
	if !tr.Converged() {
		t.Fatal("balanced histogram did not converge")
	}
	// ...then a window that is all o0: the distribution is shifting.
	for i := 0; i < L; i++ {
		tr.Observe(Obs{Outcome: "o0"})
	}
	if tr.Converged() {
		t.Fatal("histogram drift through the window must block convergence")
	}
}

func TestConvergeDefaultsAndName(t *testing.T) {
	var c Converge
	if c.Chunk() != 150 {
		t.Errorf("zero-value Chunk() = %d, want L = ⌈3/%g⌉ = 150", c.Chunk(), DefaultConvergeEpsilon)
	}
	if want := "converge(eps=0.02)"; c.Name() != want {
		t.Errorf("Name() = %q, want %q", c.Name(), want)
	}
	if want := "converge(eps=0.05)"; (Converge{Epsilon: 0.05}).Name() != want {
		t.Errorf("Name() = %q, want %q", (Converge{Epsilon: 0.05}).Name(), want)
	}
}

// TestConvergeDeterministicReplay pins the policy determinism contract: two
// trackers fed the same stream agree at every step.
func TestConvergeDeterministicReplay(t *testing.T) {
	c := Converge{}
	a, b := c.NewTracker(), c.NewTracker()
	stream := make([]Obs, 200)
	for i := range stream {
		o := Obs{Detected: i%3 == 0, Outcome: fmt.Sprintf("o%d", i%4)}
		if i%3 == 0 {
			o.RaceKeys = []string{fmt.Sprintf("r%d", i%5)}
		}
		stream[i] = o
	}
	for i, o := range stream {
		a.Observe(o)
		b.Observe(o)
		if a.Converged() != b.Converged() {
			t.Fatalf("trackers disagree at step %d", i)
		}
	}
}

// TestTrackerStateIntrospection pins the State snapshot against a known
// observation stream: the snapshot's aggregates, window contents, and verdict
// must agree with the tracker's own Converged decision.
func TestTrackerStateIntrospection(t *testing.T) {
	c := Converge{Epsilon: 0.3} // L = 10
	tr := c.NewTracker()

	// Empty tracker: all zero, not converged.
	st := tr.State()
	if st.Execs != 0 || st.DetectionRate != 0 || st.WindowFilled != 0 || st.Converged {
		t.Fatalf("zero-stream state = %+v", st)
	}
	if st.Window != 10 || st.Epsilon != 0.3 {
		t.Fatalf("state does not echo policy thresholds: %+v", st)
	}

	// 15 detections with race r1 and outcome a, then 10 clean executions
	// with outcome b: the window holds the 10 clean ones, which introduced
	// outcome b (new info) and moved the detection rate from 15/15 to 15/25.
	for i := 0; i < 15; i++ {
		tr.Observe(Obs{Detected: true, RaceKeys: []string{"r1"}, Outcome: "a"})
	}
	for i := 0; i < 10; i++ {
		tr.Observe(Obs{Detected: false, Outcome: "b"})
	}
	st = tr.State()
	if st.Execs != 25 || st.Detected != 15 || st.DistinctRaces != 1 {
		t.Fatalf("aggregates = %+v", st)
	}
	if got, want := st.DetectionRate, 15.0/25.0; got != want {
		t.Fatalf("detection rate = %g, want %g", got, want)
	}
	if st.WindowFilled != 10 || st.WindowDetected != 0 {
		t.Fatalf("window contents = %+v", st)
	}
	if !st.WindowNewInfo {
		t.Fatal("window introduced outcome b but WindowNewInfo is false")
	}
	if st.Outcomes["a"] != 15 || st.Outcomes["b"] != 10 || st.WindowOutcomes["b"] != 10 {
		t.Fatalf("outcome histograms = %+v", st)
	}
	// Rate shift: full 15/25 minus prior 15/15 = -0.4.
	if got, want := st.RateShift, 15.0/25.0-1.0; got != want {
		t.Fatalf("rate shift = %g, want %g", got, want)
	}
	if st.Converged || st.Converged != tr.Converged() {
		t.Fatalf("verdict = %v, tracker says %v", st.Converged, tr.Converged())
	}

	// Run the same mix until it stabilizes; the snapshot verdict must track.
	for i := 0; i < 40; i++ {
		out := "a"
		det := i%2 == 0
		if !det {
			out = "b"
		}
		tr.Observe(Obs{Detected: det, Outcome: out, RaceKeys: raceIf(det)})
	}
	st = tr.State()
	if st.Converged != tr.Converged() {
		t.Fatalf("snapshot verdict %v diverges from Converged() %v", st.Converged, tr.Converged())
	}
	if st.Execs != 65 {
		t.Fatalf("execs = %d, want 65", st.Execs)
	}
}

// TestOutcomeL1OrderIndependent pins the determinism of the L1 leg: with
// many distinct outcomes the histogram map iterates in a different order on
// every call, yet repeated State() calls must return a bit-identical
// OutcomeL1, equal to the exact distance rounded once.
func TestOutcomeL1OrderIndependent(t *testing.T) {
	c := Converge{Epsilon: 0.3} // L = 10
	tr := c.NewTracker()
	for i := 0; i < 97; i++ {
		tr.Observe(Obs{Outcome: fmt.Sprintf("o%d", (i*i+3*i)%13)})
	}
	st := tr.State()

	// The exact distance Σ |n/tot − (n−w)/priorTot| in rational arithmetic.
	tot, priorTot := int64(0), int64(0)
	for out, n := range st.Outcomes {
		tot += int64(n)
		priorTot += int64(n - st.WindowOutcomes[out])
	}
	exact := new(big.Rat)
	for out, n := range st.Outcomes {
		d := new(big.Rat).Sub(big.NewRat(int64(n), tot), big.NewRat(int64(n-st.WindowOutcomes[out]), priorTot))
		exact.Add(exact, d.Abs(d))
	}
	want, _ := exact.Float64()
	if st.OutcomeL1 != want || want == 0 {
		t.Fatalf("OutcomeL1 = %v, want the correctly rounded %v", st.OutcomeL1, want)
	}
	for i := 0; i < 200; i++ {
		if got := tr.State().OutcomeL1; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: OutcomeL1 = %v, want bit-identical %v", i, got, want)
		}
	}
}

func raceIf(det bool) []string {
	if det {
		return []string{"r1"}
	}
	return nil
}
