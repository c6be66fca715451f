package axiom

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/litmus"
	"c11tester/internal/memmodel"
	"c11tester/internal/structures"
)

// violationStrings renders violations in the order Check returned them.
func violationStrings(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// canonical sorts rendered violations for an order-free comparison. When
// two RMWs at different locations read one store, the reference names them
// in the order it happens to visit their locations' mo lists — Go map order
// — so an rmw-unique violation's pair of RMWs is sorted too.
func canonical(vs []string) []string {
	for i, v := range vs {
		if head, pair, ok := strings.Cut(v, " read by RMWs "); ok && strings.HasPrefix(v, "rmw-unique: ") {
			rmws := strings.Split(pair, " and ")
			slices.Sort(rmws)
			vs[i] = head + " read by RMWs " + strings.Join(rmws, " and ")
		}
	}
	slices.Sort(vs)
	return vs
}

// snapshot deep-copies a lifted execution into fresh actions — the trace,
// then every other action it references — and returns the copy in the
// reference checker's map form, so mutating it leaves the engine alone.
func snapshot(ex *Execution) *refExecution {
	acts := make([]*core.Action, len(ex.acts))
	for d, a := range ex.acts {
		acts[d] = &core.Action{Seq: a.Seq, TID: a.TID, Kind: a.Kind, MO: a.MO,
			Loc: a.Loc, Value: a.Value, SCIdx: a.SCIdx}
	}
	for d, r := range ex.rf {
		if r >= 0 {
			acts[d].RF = acts[r]
		}
	}
	mo := map[memmodel.LocID][]*core.Action{}
	for k, l := range ex.mo {
		list := []*core.Action{}
		for _, d := range ex.moIDs[ex.moOff[k]:ex.moOff[k+1]] {
			list = append(list, acts[d])
		}
		mo[l.Loc] = list
	}
	return &refExecution{Trace: acts[:len(ex.trace)], MO: mo}
}

// dense builds the position-indexed execution of a reference-form one.
func dense(ref *refExecution) *Execution {
	var mo []LocMO
	for loc, list := range ref.MO {
		mo = append(mo, LocMO{Loc: loc, Stores: list})
	}
	return NewExecution(ref.Trace, mo)
}

// mutate applies one random mutation: swap two entries of a location's
// modification order (swap), or point a read at another trace action or at
// the initial value (retarget).
func mutate(r *rand.Rand, ex *refExecution, swap bool) {
	if swap {
		var locs []memmodel.LocID
		for loc, list := range ex.MO {
			if len(list) >= 2 {
				locs = append(locs, loc)
			}
		}
		if len(locs) == 0 {
			return
		}
		slices.Sort(locs)
		list := ex.MO[locs[r.Intn(len(locs))]]
		i := r.Intn(len(list))
		j := (i + 1 + r.Intn(len(list)-1)) % len(list)
		list[i], list[j] = list[j], list[i]
		return
	}
	var reads []*core.Action
	for _, a := range ex.Trace {
		if a.Kind.IsRead() {
			reads = append(reads, a)
		}
	}
	if len(reads) == 0 {
		return
	}
	a := reads[r.Intn(len(reads))]
	if r.Intn(5) == 0 {
		a.RF = nil
		return
	}
	a.RF = ex.Trace[r.Intn(len(ex.Trace))]
}

// dropMO removes one random entry from a random location's modification
// order, so the store counts as position 0 — level with the location's
// first store, the one shape where coherence between two writes hinges on
// CoWW's strict inequality.
func dropMO(r *rand.Rand, ex *refExecution) {
	var locs []memmodel.LocID
	for loc, list := range ex.MO {
		if len(list) >= 2 {
			locs = append(locs, loc)
		}
	}
	if len(locs) == 0 {
		return
	}
	slices.Sort(locs)
	loc := locs[r.Intn(len(locs))]
	i := 1 + r.Intn(len(ex.MO[loc])-1)
	ex.MO[loc] = slices.Delete(ex.MO[loc], i, i+1)
}

// TestDenseMatchesReference holds the position-indexed checker to the
// map-keyed reference on chaos executions — as lifted from the engine into
// one reused workspace, and under mo-entry swaps and rf retargets that make
// most of them inconsistent: identical violations (compared sorted) and
// identical SC verdicts.
//
// A second phase runs the same comparison on genHotProgram's executions,
// whose hot location is long enough for checkCoherence to sweep it, under
// swaps, retargets (which may point a read at another location, so the
// sweep must bail) and mo-entry drops. Every way coherence gets settled —
// the sweep accepts, the sweep bails, the pair loop reports — must occur.
func TestDenseMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(2025))
	var ws Execution
	checks, violating, nonSC := 0, 0, 0
	var paths coherencePaths
	compare := func(what string, got *Execution, ref *refExecution) {
		t.Helper()
		checks++
		want := canonical(violationStrings(refCheck(ref)))
		have := canonical(violationStrings(Check(got)))
		if !slices.Equal(have, want) {
			t.Fatalf("%s: violations differ\n got %q\nwant %q", what, have, want)
		}
		if len(want) > 0 {
			violating++
		}
		sc := refSCExplainable(ref)
		if SCExplainable(got) != sc {
			t.Fatalf("%s: SCExplainable = %v, reference says %v", what, !sc, sc)
		}
		if !sc {
			nonSC++
		}
		paths.accepted += got.chk.paths.accepted
		paths.bailed += got.chk.paths.bailed
		paths.reported += got.chk.paths.reported
		got.chk.paths = coherencePaths{}
	}
	for i := 0; i < 250; i++ {
		prog := genChaosProgram(r)
		model := core.NewC11Model()
		tool := core.New("c11tester", model, core.Config{Trace: true, StoreBurst: true})
		for seed := int64(0); seed < 4; seed++ {
			if res := tool.Execute(prog, seed); res.Truncated || res.Deadlocked {
				t.Fatalf("program %d seed %d: truncated/deadlocked", i, seed)
			}
			ws.Lift(tool, model)
			compare("lifted", &ws, snapshot(&ws))
			for m := 0; m < 6; m++ {
				ref := snapshot(&ws)
				for k := 0; k <= m/2; k++ {
					mutate(r, ref, (m+k)%2 == 0)
				}
				compare("mutated", dense(ref), ref)
			}
		}
		tool.Close()
	}
	t.Logf("%d checks, %d with violations, %d not SC-explainable", checks, violating, nonSC)
	if violating < checks/2 || nonSC == 0 {
		t.Fatalf("mutations too weak: %d of %d checks violating, %d non-SC", violating, checks, nonSC)
	}

	paths = coherencePaths{}
	hot := 0
	for i := 0; i < 40; i++ {
		prog := genHotProgram(r)
		model := core.NewC11Model()
		tool := core.New("c11tester", model, core.Config{Trace: true, StoreBurst: true})
		for seed := int64(0); seed < 2; seed++ {
			if res := tool.Execute(prog, seed); res.Truncated || res.Deadlocked {
				t.Fatalf("hot program %d seed %d: truncated/deadlocked", i, seed)
			}
			ws.Lift(tool, model)
			compare("hot lifted", &ws, snapshot(&ws))
			for lo, acc := 0, ws.chk.acc; lo < len(acc); {
				hi := lo
				for hi < len(acc) && acc[hi]>>32 == acc[lo]>>32 {
					hi++
				}
				hot = max(hot, hi-lo)
				lo = hi
			}
			for m := 0; m < 6; m++ {
				ref := snapshot(&ws)
				switch m % 3 {
				case 0:
					mutate(r, ref, true)
				case 1:
					mutate(r, ref, false)
				case 2:
					dropMO(r, ref)
				}
				compare("hot mutated", dense(ref), ref)
			}
		}
		tool.Close()
	}
	t.Logf("hot phase: longest location %d accesses; sweep accepted %d, bailed %d; pair loop ran %d",
		hot, paths.accepted, paths.bailed, paths.reported)
	if hot < 150 || paths.accepted == 0 || paths.bailed == 0 || paths.reported == 0 {
		t.Fatalf("hot phase misses a path: longest location %d accesses, %+v", hot, paths)
	}
}

// TestViolationOrderIsDeterministic checks an execution with violations at
// two locations repeatedly: Check must report them in the same order every
// time — rule by rule, locations ascending — since a campaign's violation
// sample is the first one.
func TestViolationOrderIsDeterministic(t *testing.T) {
	build := func() *Execution {
		var trace []*core.Action
		var mo []LocMO
		seq := memmodel.SeqNum(0)
		act := func(tid memmodel.TID, kind memmodel.Kind, loc memmodel.LocID, rf *core.Action) *core.Action {
			seq++
			a := &core.Action{Seq: seq, TID: tid, Kind: kind, MO: memmodel.Relaxed, Loc: loc, Value: memmodel.Value(seq), RF: rf, SCIdx: -1}
			trace = append(trace, a)
			return a
		}
		for _, loc := range []memmodel.LocID{2, 1} {
			s1 := act(0, memmodel.KStore, loc, nil)
			s2 := act(0, memmodel.KStore, loc, nil)
			rmw := act(1, memmodel.KRMW, loc, s1)
			// s1 sb s2 but mo puts s2 first (CoWW), and the RMW does not
			// follow the store it read from (rmw-atomic).
			mo = append(mo, LocMO{Loc: loc, Stores: []*core.Action{s2, rmw, s1}})
		}
		return NewExecution(trace, mo)
	}
	want := []string{"CoWW loc=1", "CoWW loc=2", "rmw-atomic loc=1", "rmw-atomic loc=2"}
	var first []string
	for i := 0; i < 50; i++ {
		got := violationStrings(Check(build()))
		if i == 0 {
			first = got
			if len(got) != len(want) {
				t.Fatalf("got %d violations %q, want %d", len(got), got, len(want))
			}
			for k, w := range want {
				rule, loc, _ := strings.Cut(w, " ")
				if !strings.HasPrefix(got[k], rule+":") || !strings.Contains(got[k], "("+loc+" ") {
					t.Fatalf("violation %d = %q, want %s", k, got[k], w)
				}
			}
		} else if !slices.Equal(got, first) {
			t.Fatalf("check %d reported\n%q\nbut check 0 reported\n%q", i, got, first)
		}
	}
}

// cell is one recorded program of the c11tester matrix.
type cell struct {
	name  string
	prog  capi.Program
	reset func()
}

// matrixCells lists every benchmark (the paper's and the extras) and every
// litmus test.
func matrixCells() []cell {
	var cells []cell
	for _, b := range append(structures.All(), structures.Extras()...) {
		cells = append(cells, cell{name: b.Name, prog: b.New()})
	}
	for _, lt := range litmus.Tests() {
		out := new(string)
		cells = append(cells, cell{name: lt.Name, prog: lt.Make(out), reset: func() { *out = "" }})
	}
	return cells
}

// cellByName returns the named matrix cell.
func cellByName(tb testing.TB, name string) cell {
	for _, c := range matrixCells() {
		if c.name == name {
			return c
		}
	}
	tb.Fatalf("no cell %q", name)
	return cell{}
}

// record runs c once under a traced c11tester engine and returns the engine
// and its model; the caller closes the engine.
func record(c cell, seed int64) (*core.Engine, *core.C11Model) {
	model := core.NewC11Model()
	eng := core.New("c11tester", model, core.Config{Trace: true, StoreBurst: true})
	if c.reset != nil {
		c.reset()
	}
	eng.Execute(c.prog, seed)
	return eng, model
}

var (
	sinkViolations []Violation
	sinkSC         bool
)

// TestLiftCheckZeroAllocSteadyState pins the duty pass a validating,
// analyzing campaign runs on every execution — lift, Check, SCExplainable —
// at zero allocations once a workspace is warm, on every c11tester
// benchmark and litmus cell. The measured loop includes the traced Execute,
// so the test also holds trace recording to the bar; the warm-then-measure
// pattern is the one TestZeroAllocSteadyState uses for bare executions.
func TestLiftCheckZeroAllocSteadyState(t *testing.T) {
	for _, c := range matrixCells() {
		eng, model := record(c, 1)
		var ex Execution
		run := func(seed int64) {
			if c.reset != nil {
				c.reset()
			}
			eng.Execute(c.prog, seed)
			ex.Lift(eng, model)
			sinkViolations = Check(&ex)
			sinkSC = SCExplainable(&ex)
		}
		for seed := int64(1); seed <= 6; seed++ {
			run(seed)
		}
		if n := testing.AllocsPerRun(10, func() { run(3) }); n != 0 {
			t.Errorf("%s: %.1f allocs/exec in steady state, want 0", c.name, n)
		}
		eng.Close()
	}
}

// BenchmarkLiftCheck prices the validation duty per execution — lifting a
// recorded execution into a warm workspace and checking it — on a
// benchmark-sized (ms-queue) and a litmus-sized (SB+rlx) execution, and on
// spinning executions of mpmc-queue, rwlock and linuxrwlocks, whose hot
// location holds 208, 251 and 417 accesses at the recorded seed: the shape
// where checking every same-location pair would be quadratic.
func BenchmarkLiftCheck(b *testing.B) {
	for _, bc := range []struct {
		name string
		seed int64
	}{{"ms-queue", 1}, {"SB+rlx", 1}, {"mpmc-queue", 2}, {"rwlock", 3}, {"linuxrwlocks", 67}} {
		b.Run(bc.name, func(b *testing.B) {
			eng, model := record(cellByName(b, bc.name), bc.seed)
			defer eng.Close()
			var ex Execution
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex.Lift(eng, model)
				sinkViolations = Check(&ex)
			}
		})
	}
}

// BenchmarkSCExplainable prices the sc-robustness analyzer's graph pass over
// an already-lifted execution, on the same recorded executions.
func BenchmarkSCExplainable(b *testing.B) {
	for _, name := range []string{"ms-queue", "SB+rlx"} {
		b.Run(name, func(b *testing.B) {
			eng, model := record(cellByName(b, name), 1)
			defer eng.Close()
			var ex Execution
			ex.Lift(eng, model)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSC = SCExplainable(&ex)
			}
		})
	}
}

// TestSweepBailsOnNonIncreasingSeq builds the one shape where a thread's
// accesses at a location are not in Seq order — a store at Seq 10 followed
// in the trace by one at Seq 5, as a promoted non-atomic store carrying its
// original epoch can be — and makes the Seq-5 store happen before a
// later store that mo puts first. A cursor walking that thread's list stops
// at Seq 10 and would miss the violating pair; the sweep must bail so the
// pair loop reports it exactly as the reference does.
func TestSweepBailsOnNonIncreasingSeq(t *testing.T) {
	act := func(seq memmodel.SeqNum, tid memmodel.TID, kind memmodel.Kind, mo memmodel.MemoryOrder, loc memmodel.LocID, rf *core.Action) *core.Action {
		return &core.Action{Seq: seq, TID: tid, Kind: kind, MO: mo, Loc: loc, RF: rf, SCIdx: -1}
	}
	a := act(10, 0, memmodel.KStore, memmodel.Relaxed, 1, nil)
	b := act(5, 0, memmodel.KNAStore, memmodel.Relaxed, 1, nil)
	flag := act(7, 0, memmodel.KStore, memmodel.Release, 2, nil)
	trace := []*core.Action{a, b, flag}
	// Loads of the initial value pad the location past the sweep's
	// minimum size without constraining anything.
	for seq := memmodel.SeqNum(11); seq <= 13; seq++ {
		trace = append(trace, act(seq, 1, memmodel.KLoad, memmodel.Relaxed, 1, nil))
	}
	sync := act(14, 1, memmodel.KLoad, memmodel.Acquire, 2, flag)
	c := act(15, 1, memmodel.KStore, memmodel.Relaxed, 1, nil)
	trace = append(trace, sync, c)
	ref := &refExecution{Trace: trace, MO: map[memmodel.LocID][]*core.Action{1: {c, b, a}, 2: {flag}}}

	ex := dense(ref)
	got := canonical(violationStrings(Check(ex)))
	want := canonical(violationStrings(refCheck(ref)))
	if !slices.Equal(got, want) {
		t.Fatalf("violations differ\n got %q\nwant %q", got, want)
	}
	if len(want) != 1 || !strings.HasPrefix(want[0], "CoWW: na-store") {
		t.Fatalf("reference reports %q, want the one CoWW of the Seq-5 store", want)
	}
	if ex.chk.paths != (coherencePaths{bailed: 1, reported: 2}) {
		t.Fatalf("coherence paths %+v, want the sweep to bail on location 1", ex.chk.paths)
	}
}

// TestSparseLocIDsMatchReference spreads chaos executions' LocIDs far
// apart, past what groupAccesses' counting pass takes, so the grouping falls
// back to sorting: the violations must still match the reference's, on
// lifted and mutated executions alike.
func TestSparseLocIDsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var ws Execution
	for i := 0; i < 40; i++ {
		prog := genChaosProgram(r)
		model := core.NewC11Model()
		tool := core.New("c11tester", model, core.Config{Trace: true, StoreBurst: true})
		tool.Execute(prog, int64(i))
		ws.Lift(tool, model)
		ref := snapshot(&ws)
		mutate(r, ref, i%2 == 0)
		spread := map[memmodel.LocID][]*core.Action{}
		for loc, list := range ref.MO {
			spread[loc<<24] = list
		}
		ref.MO = spread
		for _, a := range ref.Trace {
			a.Loc <<= 24
		}
		ex := dense(ref)
		want := canonical(violationStrings(refCheck(ref)))
		if have := canonical(violationStrings(Check(ex))); !slices.Equal(have, want) {
			t.Fatalf("program %d: violations differ\n got %q\nwant %q", i, have, want)
		}
		if len(ex.chk.locEnd) != 0 {
			t.Fatalf("program %d: the counting pass ran on LocIDs up to %d", i, 1<<26)
		}
		tool.Close()
	}
}
