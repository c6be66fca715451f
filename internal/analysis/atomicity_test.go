package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/memmodel"
	"c11tester/internal/structures"
)

// textFinding is a finding as rendered text.
type textFinding struct{ Key, Desc string }

func rendered(fs []Finding) []textFinding {
	var out []textFinding
	for _, f := range fs {
		out = append(out, textFinding{Key: f.Key, Desc: f.Desc()})
	}
	return out
}

// referenceAtomicity is the reference atomicity monitor: the same
// conflict-graph algorithm and iteration order over per-execution maps and
// slices, with the findings rendered as text on the spot. The scratch-backed
// analyzer must match it finding for finding, descriptions included.
func referenceAtomicity(x *Exec) []textFinding {
	blocks := x.Result.Blocks
	if len(blocks) == 0 || x.Engine == nil {
		return nil
	}
	tr := x.Engine.Trace()
	nodes := len(blocks)
	type access struct {
		txn   int
		write bool
	}
	byLoc := map[memmodel.LocID][]access{}
	var locs []memmodel.LocID
	for _, a := range tr {
		if a.Loc == memmodel.NoLoc || (!a.Kind.IsRead() && !a.Kind.IsWrite()) {
			continue
		}
		txn := blockOf(blocks, a)
		if txn < 0 {
			txn = nodes
			nodes++
		}
		if len(byLoc[a.Loc]) == 0 {
			locs = append(locs, a.Loc)
		}
		byLoc[a.Loc] = append(byLoc[a.Loc], access{txn: txn, write: a.Kind.IsWrite()})
	}
	adj := make([][]int, nodes)
	seen := map[[2]int]bool{}
	for _, loc := range locs {
		accs := byLoc[loc]
		for i, early := range accs {
			for _, late := range accs[i+1:] {
				if early.txn == late.txn || (!early.write && !late.write) {
					continue
				}
				e := [2]int{early.txn, late.txn}
				if !seen[e] {
					seen[e] = true
					adj[early.txn] = append(adj[early.txn], late.txn)
				}
			}
		}
	}
	cycle := referenceCycle(adj)
	if cycle == nil {
		return nil
	}
	names := map[string]bool{}
	for _, n := range cycle {
		if n < len(blocks) {
			names[blocks[n].Name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	var out []textFinding
	for _, name := range sorted {
		out = append(out, textFinding{
			Key:  "block/" + name,
			Desc: fmt.Sprintf("atomic block %q is not conflict-serializable: its accesses interleave with a conflicting transaction (cycle of %d transaction(s) in the conflict graph)", name, len(cycle)),
		})
	}
	return out
}

// referenceCycle is the reference's DFS: the node set of the first directed
// cycle found, or nil.
func referenceCycle(adj [][]int) []int {
	color := make([]byte, len(adj))
	type frame struct{ node, next int }
	var stack []frame
	for start := range adj {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		stack = append(stack[:0], frame{node: start})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.node]) {
				to := adj[f.node][f.next]
				f.next++
				switch color[to] {
				case 1:
					for i := range stack {
						if stack[i].node == to {
							var cycle []int
							for _, fr := range stack[i:] {
								cycle = append(cycle, fr.node)
							}
							return cycle
						}
					}
				case 0:
					color[to] = 1
					stack = append(stack, frame{node: to})
				}
				continue
			}
			color[f.node] = 2
			stack = stack[:len(stack)-1]
		}
	}
	return nil
}

// tracedEngine builds the c11tester engine with its action trace on, as the
// campaign runs it for a cell with a trace-reading analyzer.
func tracedEngine(t *testing.T) *core.Engine {
	eng := core.New("c11tester", core.NewC11Model(), core.Config{StoreBurst: true})
	eng.SetTrace(true)
	t.Cleanup(eng.Close)
	return eng
}

// checkAgainstReference runs prog on seeds [0, seeds) through one analyzer
// instance and compares every execution's findings with the reference's. It
// returns how many executions had findings.
func checkAgainstReference(t *testing.T, eng *core.Engine, a Analyzer, prog capi.Program, seeds int) int {
	t.Helper()
	found := 0
	for seed := 0; seed < seeds; seed++ {
		res := eng.Execute(prog, int64(seed))
		x := &Exec{Result: res, Index: seed, Seed: int64(seed), Engine: eng}
		want := referenceAtomicity(x)
		if got := rendered(a.Observe(x)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s seed %d: findings %+v, reference %+v", prog.Name, seed, got, want)
		}
		if len(want) > 0 {
			found++
		}
	}
	return found
}

// TestAtomicityMatchesReference checks the scratch-backed monitor against
// the reference on 400 atomic-counter seeds, and pins that its steady-state
// Observe allocates nothing.
func TestAtomicityMatchesReference(t *testing.T) {
	eng := tracedEngine(t)
	a, _ := New("atomicity")
	prog := structures.AtomicCounter().New()
	if found := checkAgainstReference(t, eng, a, prog, 400); found == 0 {
		t.Fatal("no atomic-counter execution had a finding; the comparison covered no cycle")
	}
	for seed := int64(0); seed < 400; seed++ {
		res := eng.Execute(prog, seed)
		x := &Exec{Result: res, Engine: eng}
		if len(a.Observe(x)) == 0 {
			continue
		}
		if n := testing.AllocsPerRun(10, func() { a.Observe(x) }); n != 0 {
			t.Errorf("seed %d: warm Observe allocates %.1f times, want 0", seed, n)
		}
		break
	}
}

// blockStep is one operation of a generated thread.
type blockStep struct {
	op   byte // 'b' begin, 'e' end, 'l' load, 's' store, 'r' fetch-add, 'R' read, 'W' write, 'y' yield
	name string
	loc  int
}

// genBlockProgram generates a program of 2–3 threads whose accesses to 1–3
// shared locations are partly bracketed by named, possibly nested, blocks;
// a thread may leave its innermost block open. Non-atomic accesses may race,
// which the monitor ignores.
func genBlockProgram(r *rand.Rand, id int) capi.Program {
	names := []string{"a", "b", "c"}
	nlocs := 1 + r.Intn(3)
	plans := make([][]blockStep, 2+r.Intn(2))
	for t := range plans {
		open := 0
		for n := 3 + r.Intn(8); n > 0; n-- {
			var st blockStep
			switch k := r.Intn(10); {
			case k < 2:
				st = blockStep{op: 'b', name: names[r.Intn(len(names))]}
				open++
			case k < 4 && open > 0:
				st = blockStep{op: 'e'}
				open--
			default:
				st = blockStep{op: "lsrRWy"[r.Intn(6)], loc: r.Intn(nlocs)}
			}
			plans[t] = append(plans[t], st)
		}
		for ; open > 0 && r.Intn(2) == 0; open-- {
			plans[t] = append(plans[t], blockStep{op: 'e'})
		}
	}
	return capi.Program{Name: fmt.Sprintf("blocks-%d", id), Run: func(env capi.Env) {
		locs := make([]capi.Loc, nlocs)
		for i := range locs {
			locs[i] = env.NewLoc(fmt.Sprintf("x%d", i), 0)
		}
		run := func(plan []blockStep) func(capi.Env) {
			return func(env capi.Env) {
				for _, st := range plan {
					l := locs[st.loc]
					switch st.op {
					case 'b':
						env.BeginAtomic(st.name)
					case 'e':
						env.EndAtomic()
					case 'l':
						env.Load(l, memmodel.Acquire)
					case 's':
						env.Store(l, 1, memmodel.Release)
					case 'r':
						env.FetchAdd(l, 1, memmodel.Relaxed)
					case 'R':
						env.Read(l)
					case 'W':
						env.Write(l, 2)
					case 'y':
						env.Yield()
					}
				}
			}
		}
		var ts []capi.Thread
		for i, plan := range plans[1:] {
			ts = append(ts, env.Spawn(fmt.Sprintf("t%d", i+1), run(plan)))
		}
		run(plans[0])(env)
		for _, th := range ts {
			env.Join(th)
		}
	}}
}

// TestAtomicityMatchesReferenceOnGeneratedPrograms runs the comparison over
// generated block programs, each on several seeds, with one analyzer
// instance throughout so scratch carried between programs of different
// shapes is exercised too.
func TestAtomicityMatchesReferenceOnGeneratedPrograms(t *testing.T) {
	eng := tracedEngine(t)
	a, _ := New("atomicity")
	r := rand.New(rand.NewSource(1))
	found := 0
	for id := 0; id < 150; id++ {
		found += checkAgainstReference(t, eng, a, genBlockProgram(r, id), 12)
	}
	if found == 0 {
		t.Fatal("no generated execution had a finding; the comparison covered no cycle")
	}
	t.Logf("%d executions with findings", found)
}
