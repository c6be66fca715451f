// Package litmus provides the classic weak-memory litmus tests as programs
// for the capi instrumentation boundary, each with an oracle classifying
// outcomes as forbidden or as weak (allowed but not sequentially
// consistent) under the C11Tester memory-model fragment (Section 2.2).
// They validate the engine and differentiate the baselines; campaigns run
// them as litmus cells (internal/campaign).
//
// Each Test.Make call builds a fresh program *instance*: the location
// handles, outcome registers, and thread bodies live in the instance (they
// are rebound by Run at the start of every execution), so steady-state
// executions of an instance allocate nothing — outcome strings are interned
// and thread bodies are closures built once at Make time. An instance runs
// one execution at a time; concurrent campaign cells each make their own.
package litmus

import (
	"fmt"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
)

const (
	rlx = memmodel.Relaxed
	acq = memmodel.Acquire
	rel = memmodel.Release
	sc  = memmodel.SeqCst
)

// internMax bounds the per-register values covered by the interned outcome
// tables; litmus registers only ever hold tiny constants (0..3).
const internMax = 4

var (
	rrOut   [internMax][internMax]string                       // "r1=%d r2=%d"
	d2Out   [internMax][internMax]string                       // "%d%d"
	d3Out   [internMax][internMax][internMax]string            // "%d%d%d"
	d4Out   [internMax][internMax][internMax][internMax]string // "%d%d%d%d"
	winsOut [internMax]string                                  // "wins=%d"
)

func init() {
	for i := 0; i < internMax; i++ {
		winsOut[i] = fmt.Sprintf("wins=%d", i)
		for j := 0; j < internMax; j++ {
			rrOut[i][j] = fmt.Sprintf("r1=%d r2=%d", i, j)
			d2Out[i][j] = fmt.Sprintf("%d%d", i, j)
			for k := 0; k < internMax; k++ {
				d3Out[i][j][k] = fmt.Sprintf("%d%d%d", i, j, k)
				for l := 0; l < internMax; l++ {
					d4Out[i][j][k][l] = fmt.Sprintf("%d%d%d%d", i, j, k, l)
				}
			}
		}
	}
}

// outRR interns the "r1=%d r2=%d" outcome; recording an outcome must not
// allocate per execution (the zero-alloc steady-state invariant of the
// fiber-pool perf matrix). The Sprintf fallbacks are unreachable for the
// suite's programs and only guard future tests with larger constants.
func outRR(r1, r2 memmodel.Value) string {
	if r1 < internMax && r2 < internMax {
		return rrOut[r1][r2]
	}
	return fmt.Sprintf("r1=%d r2=%d", r1, r2)
}

func outD2(a, b memmodel.Value) string {
	if a < internMax && b < internMax {
		return d2Out[a][b]
	}
	return fmt.Sprintf("%d%d", a, b)
}

func outD3(a, b, c memmodel.Value) string {
	if a < internMax && b < internMax && c < internMax {
		return d3Out[a][b][c]
	}
	return fmt.Sprintf("%d%d%d", a, b, c)
}

func outD4(a, b, c, d memmodel.Value) string {
	if a < internMax && b < internMax && c < internMax && d < internMax {
		return d4Out[a][b][c][d]
	}
	return fmt.Sprintf("%d%d%d%d", a, b, c, d)
}

func outWins(n memmodel.Value) string {
	if n < internMax {
		return winsOut[n]
	}
	return fmt.Sprintf("wins=%d", n)
}

// Test is one litmus test.
type Test struct {
	Name string
	Doc  string
	// Forbidden outcomes under the C11Tester fragment (hb ∪ sc ∪ rf
	// acyclic). Observing one is a model soundness bug.
	Forbidden map[string]bool
	// Weak outcomes are allowed but not sequentially consistent; a complete
	// exploration should eventually produce them.
	Weak map[string]bool
	// BaselineForbidden marks outcomes additionally forbidden under the
	// tsan11/tsan11rec fragment (hb ∪ sc ∪ rf ∪ mo acyclic): the fragment
	// gap of Section 1.1.
	BaselineForbidden map[string]bool
	// Make builds a program instance; each execution writes its outcome to
	// *out ("" means the run was skipped, e.g. a bounded spin starved). An
	// instance must only run one execution at a time.
	Make func(out *string) capi.Program
}

// spin waits (boundedly) for l to become nonzero; it returns false if the
// scheduler starved the producer.
func spin(env capi.Env, l capi.Loc, mo memmodel.MemoryOrder) bool {
	for i := 0; i < 300; i++ {
		if env.Load(l, mo) != 0 {
			return true
		}
		env.Yield()
	}
	return false
}

// Tests returns the litmus suite.
func Tests() []*Test {
	return []*Test{
		{
			Name: "MP+rlx",
			Doc:  "message passing, all relaxed: the stale read r1=1,r2=0 is allowed (Figure 2)",
			Weak: map[string]bool{"r1=1 r2=0": true},
			Make: func(out *string) capi.Program {
				return prog2(out, func(env capi.Env, x, y capi.Loc) {
					env.Store(x, 1, rlx)
					env.Store(y, 1, rlx)
				}, func(env capi.Env, x, y capi.Loc) string {
					r1 := env.Load(y, rlx)
					r2 := env.Load(x, rlx)
					return outRR(r1, r2)
				})
			},
		},
		{
			Name:      "MP+rel+acq",
			Doc:       "message passing with release/acquire: the stale read is forbidden",
			Forbidden: map[string]bool{"r1=1 r2=0": true},
			Make: func(out *string) capi.Program {
				return prog2(out, func(env capi.Env, x, y capi.Loc) {
					env.Store(x, 1, rlx)
					env.Store(y, 1, rel)
				}, func(env capi.Env, x, y capi.Loc) string {
					r1 := env.Load(y, acq)
					r2 := env.Load(x, rlx)
					return outRR(r1, r2)
				})
			},
		},
		{
			Name: "SB+rlx",
			Doc:  "store buffering, relaxed: r1=r2=0 allowed",
			Weak: map[string]bool{"r1=0 r2=0": true},
			Make: sbProgram(rlx),
		},
		{
			Name:      "SB+sc",
			Doc:       "store buffering, seq_cst: r1=r2=0 forbidden",
			Forbidden: map[string]bool{"r1=0 r2=0": true},
			Make:      sbProgram(sc),
		},
		{
			Name:      "LB+rlx",
			Doc:       "load buffering: r1=r2=1 forbidden by hb ∪ sc ∪ rf acyclicity (no OOTA)",
			Forbidden: map[string]bool{"r1=1 r2=1": true},
			Make: func(out *string) capi.Program {
				var x, y capi.Loc
				var r1, r2 memmodel.Value
				aBody := func(env capi.Env) {
					r1 = env.Load(y, rlx)
					env.Store(x, 1, rlx)
				}
				bBody := func(env capi.Env) {
					r2 = env.Load(x, rlx)
					env.Store(y, 1, rlx)
				}
				return capi.Program{Name: "LB+rlx", Run: func(env capi.Env) {
					x = env.NewAtomic("x", 0)
					y = env.NewAtomic("y", 0)
					r1, r2 = 0, 0
					a := env.Spawn("A", aBody)
					b := env.Spawn("B", bBody)
					env.Join(a)
					env.Join(b)
					*out = outRR(r1, r2)
				}}
			},
		},
		{
			Name:      "CoRR",
			Doc:       "read-read coherence: same-thread writes 1 then 2 can never be read 2 then 1",
			Forbidden: map[string]bool{"21": true, "10": true, "20": true},
			Weak:      map[string]bool{"01": true, "02": true},
			Make: func(out *string) capi.Program {
				var x capi.Loc
				aBody := func(env capi.Env) {
					env.Store(x, 1, rlx)
					env.Store(x, 2, rlx)
				}
				bBody := func(env capi.Env) {
					r1 := env.Load(x, rlx)
					r2 := env.Load(x, rlx)
					*out = outD2(r1, r2)
				}
				return capi.Program{Name: "CoRR", Run: func(env capi.Env) {
					x = env.NewAtomic("x", 0)
					a := env.Spawn("A", aBody)
					b := env.Spawn("B", bBody)
					env.Join(a)
					env.Join(b)
				}}
			},
		},
		{
			Name:      "IRIW+sc",
			Doc:       "independent reads of independent writes, seq_cst: readers must agree",
			Forbidden: map[string]bool{"1010": true},
			Make:      iriwProgram(sc, sc),
		},
		{
			Name: "IRIW+acq",
			Doc:  "IRIW with release/acquire: disagreeing readers allowed (ARM-observable)",
			Weak: map[string]bool{"1010": true},
			Make: iriwProgram(rel, acq),
		},
		{
			Name:      "RelSeq+rmw",
			Doc:       "C++20 release sequence: relaxed RMW passes synchronization through",
			Forbidden: map[string]bool{"sync-miss": true},
			Weak:      map[string]bool{"synced": true},
			Make: func(out *string) capi.Program {
				var d, f capi.Loc
				aBody := func(env capi.Env) {
					env.Store(d, 7, rlx)
					env.Store(f, 1, rel)
				}
				bBody := func(env capi.Env) {
					env.FetchAdd(f, 1, rlx)
				}
				cBody := func(env capi.Env) {
					if env.Load(f, acq) == 2 {
						if env.Load(d, rlx) == 7 {
							*out = "synced"
						} else {
							*out = "sync-miss"
						}
					}
				}
				return capi.Program{Name: "RelSeq+rmw", Run: func(env capi.Env) {
					d = env.NewAtomic("d", 0)
					f = env.NewAtomic("f", 0)
					a := env.Spawn("A", aBody)
					b := env.Spawn("B", bBody)
					c := env.Spawn("C", cBody)
					env.Join(a)
					env.Join(b)
					env.Join(c)
				}}
			},
		},
		{
			Name:      "MP+fences",
			Doc:       "message passing through release/acquire fences",
			Forbidden: map[string]bool{"r1=1 r2=0": true},
			Make: func(out *string) capi.Program {
				return prog2(out, func(env capi.Env, x, y capi.Loc) {
					env.Store(x, 1, rlx)
					env.Fence(rel)
					env.Store(y, 1, rlx)
				}, func(env capi.Env, x, y capi.Loc) string {
					r1 := env.Load(y, rlx)
					env.Fence(acq)
					r2 := env.Load(x, rlx)
					return outRR(r1, r2)
				})
			},
		},
		{
			Name: "CoRR+opposed",
			Doc: "fresh-then-stale reads of two commit-ordered but hb-unordered stores: " +
				"allowed by C/C++11, impossible when mo must extend the commit order (Section 1.1)",
			Weak:              map[string]bool{"21": true},
			BaselineForbidden: map[string]bool{"21": true},
			Make: func(out *string) capi.Program {
				var x, f, g capi.Loc
				w1Body := func(env capi.Env) {
					env.Store(x, 1, rlx)
					env.Store(f, 1, rlx)
				}
				w2Body := func(env capi.Env) {
					if !spin(env, f, rlx) {
						return
					}
					env.Store(x, 2, rlx)
					env.Store(g, 1, rlx)
				}
				rBody := func(env capi.Env) {
					if !spin(env, g, rlx) {
						return
					}
					a := env.Load(x, rlx)
					b := env.Load(x, rlx)
					*out = outD2(a, b)
				}
				return capi.Program{Name: "CoRR+opposed", Run: func(env capi.Env) {
					x = env.NewAtomic("x", 0)
					f = env.NewAtomic("f", 0)
					g = env.NewAtomic("g", 0)
					w1 := env.Spawn("w1", w1Body)
					w2 := env.Spawn("w2", w2Body)
					r := env.Spawn("r", rBody)
					env.Join(w1)
					env.Join(w2)
					env.Join(r)
				}}
			},
		},
		{
			Name:      "W+RWC",
			Doc:       "write-to-read causality with seq_cst accesses: the non-SC outcome is forbidden",
			Forbidden: map[string]bool{"100": true},
			Make: func(out *string) capi.Program {
				var x, y capi.Loc
				var a1, b1, c1 memmodel.Value
				aBody := func(env capi.Env) { env.Store(x, 1, sc) }
				bBody := func(env capi.Env) {
					a1 = env.Load(x, sc)
					b1 = env.Load(y, sc)
				}
				cBody := func(env capi.Env) {
					env.Store(y, 1, sc)
					c1 = env.Load(x, sc)
				}
				return capi.Program{Name: "W+RWC", Run: func(env capi.Env) {
					x = env.NewAtomic("x", 0)
					y = env.NewAtomic("y", 0)
					a1, b1, c1 = 0, 0, 0
					ta := env.Spawn("a", aBody)
					tb := env.Spawn("b", bBody)
					tc := env.Spawn("c", cBody)
					env.Join(ta)
					env.Join(tb)
					env.Join(tc)
					*out = outD3(a1, b1, c1)
				}}
			},
		},
		{
			Name:      "CAS+winner",
			Doc:       "a strong CAS from the initial value has exactly one winner",
			Forbidden: map[string]bool{"wins=0": true, "wins=2": true, "wins=3": true},
			Make: func(out *string) capi.Program {
				var x capi.Loc
				var wins memmodel.Value
				body := func(env capi.Env) {
					if _, ok := env.CompareExchange(x, 0, 1, sc, sc); ok {
						wins++
					}
				}
				var threads [3]capi.Thread
				return capi.Program{Name: "CAS+winner", Run: func(env capi.Env) {
					x = env.NewAtomic("x", 0)
					wins = 0
					for i := range threads {
						threads[i] = env.Spawn("t", body)
					}
					for _, th := range threads {
						env.Join(th)
					}
					*out = outWins(wins)
				}}
			},
		},
	}
}

// suite is the suite ByName looks in, built once: a Test never changes
// after construction, so its callers share one.
var suite = Tests()

// ByName looks a litmus test up by its Name; ok is false if none matches.
func ByName(name string) (*Test, bool) {
	for _, t := range suite {
		if t.Name == name {
			return t, true
		}
	}
	return nil, false
}

// Names returns the names of all litmus tests in suite order.
func Names() []string {
	tests := Tests()
	names := make([]string, len(tests))
	for i, t := range tests {
		names[i] = t.Name
	}
	return names
}

// prog2 builds a two-location, two-thread program instance whose reader
// thread produces the outcome. The location handles and thread bodies are
// instance state, rebound at the start of every Run.
func prog2(out *string, writer func(capi.Env, capi.Loc, capi.Loc), reader func(capi.Env, capi.Loc, capi.Loc) string) capi.Program {
	var x, y capi.Loc
	wBody := func(env capi.Env) { writer(env, x, y) }
	rBody := func(env capi.Env) { *out = reader(env, x, y) }
	return capi.Program{Name: "litmus", Run: func(env capi.Env) {
		x = env.NewAtomic("x", 0)
		y = env.NewAtomic("y", 0)
		a := env.Spawn("A", wBody)
		b := env.Spawn("B", rBody)
		env.Join(a)
		env.Join(b)
	}}
}

func sbProgram(mo memmodel.MemoryOrder) func(out *string) capi.Program {
	return func(out *string) capi.Program {
		var x, y capi.Loc
		var r1, r2 memmodel.Value
		aBody := func(env capi.Env) {
			env.Store(x, 1, mo)
			r1 = env.Load(y, mo)
		}
		bBody := func(env capi.Env) {
			env.Store(y, 1, mo)
			r2 = env.Load(x, mo)
		}
		return capi.Program{Name: "SB", Run: func(env capi.Env) {
			x = env.NewAtomic("x", 0)
			y = env.NewAtomic("y", 0)
			r1, r2 = 0, 0
			a := env.Spawn("A", aBody)
			b := env.Spawn("B", bBody)
			env.Join(a)
			env.Join(b)
			*out = outRR(r1, r2)
		}}
	}
}

func iriwProgram(w, r memmodel.MemoryOrder) func(out *string) capi.Program {
	return func(out *string) capi.Program {
		var x, y capi.Loc
		var a1, a2, b1, b2 memmodel.Value
		w1Body := func(env capi.Env) { env.Store(x, 1, w) }
		w2Body := func(env capi.Env) { env.Store(y, 1, w) }
		r1Body := func(env capi.Env) { a1 = env.Load(x, r); a2 = env.Load(y, r) }
		r2Body := func(env capi.Env) { b1 = env.Load(y, r); b2 = env.Load(x, r) }
		return capi.Program{Name: "IRIW", Run: func(env capi.Env) {
			x = env.NewAtomic("x", 0)
			y = env.NewAtomic("y", 0)
			a1, a2, b1, b2 = 0, 0, 0, 0
			w1 := env.Spawn("w1", w1Body)
			w2 := env.Spawn("w2", w2Body)
			r1 := env.Spawn("r1", r1Body)
			r2 := env.Spawn("r2", r2Body)
			env.Join(w1)
			env.Join(w2)
			env.Join(r1)
			env.Join(r2)
			*out = outD4(a1, a2, b1, b2)
		}}
	}
}
