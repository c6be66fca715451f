package main

import (
	"fmt"
	"slices"
	"time"

	"c11tester/internal/analysis"
	"c11tester/internal/axiom"
	"c11tester/internal/campaign"
	"c11tester/internal/capi"
	"c11tester/internal/core"
	"c11tester/internal/harness"
	"c11tester/internal/litmus"
)

// rawExecs is how many executions per pass keep their raw spans in the trace
// output; every span feeds the aggregates.
const rawExecs = 10_000

// program is one program cell of a workload: a litmus test or a benchmark.
type program struct {
	name  string
	test  *litmus.Test
	bench campaign.BenchmarkSpec
}

// programs lists a spec's programs in campaign matrix order.
func programs(s campaign.Spec) []program {
	var ps []program
	for _, b := range s.Benchmarks {
		ps = append(ps, program{name: b.Name, bench: b})
	}
	for _, t := range s.Litmus {
		ps = append(ps, program{name: t.Name, test: t})
	}
	return ps
}

// instance is one program instance and its litmus outcome slot.
type instance struct {
	prog capi.Program
	out  string
}

func (p program) instance() *instance {
	in := &instance{}
	if p.test != nil {
		in.prog = p.test.Make(&in.out)
	} else {
		in.prog = p.bench.New()
	}
	return in
}

// execute runs one execution, clearing the litmus outcome first as the
// campaign runner does.
func (in *instance) execute(eng *core.Engine, seed int64) *capi.Result {
	in.out = ""
	return eng.Execute(in.prog, seed)
}

func newEngine(ts campaign.ToolSpec) (*core.Engine, error) {
	eng, ok := ts.New().(*core.Engine)
	if !ok {
		return nil, fmt.Errorf("tool %s is not built on the core engine", ts.Name)
	}
	return eng, nil
}

// layersResult is the per-layer split of a workload, measured by replaying
// its cells and seeds through each layer's public functions.
type layersResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// Execs is the traced pass's execution count; Cells its per-cell race
	// keys and litmus outcomes, which must equal the campaign's.
	Execs  int                    `json:"execs"`
	Cells  map[string]cellOutcome `json:"cells"`
	Errors []string               `json:"errors,omitempty"`
}

func runLayers(w workload, o options) (*layersResult, error) {
	spec, err := w.spec(o.seed, w.budget(o.scale))
	if err != nil {
		return nil, err
	}
	progs := programs(spec)
	r := &layersResult{Metrics: map[string]float64{}, Cells: map[string]cellOutcome{}}
	if err := r.barePass(spec, progs); err != nil {
		return nil, err
	}
	traced, err := r.tracedPass(w, spec, progs)
	if err != nil {
		return nil, err
	}
	duty, err := r.dutyPass(spec, progs)
	if err != nil {
		return nil, err
	}
	r.Metrics["campaign.units"] = float64(units(spec))
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, w.name, map[string]*tracer{"traced": traced, "duty": duty}); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return r, nil
}

// barePass replays every standard tool over the workload's programs and
// seeds, one tool instance per cell, calling Execute alone with all engine
// timing off.
func (r *layersResult) barePass(spec campaign.Spec, progs []program) error {
	rate := map[string]float64{}
	specExecs, specNS := 0, int64(0)
	for _, name := range campaign.StandardToolNames() {
		ts, err := campaign.StandardTool(name, campaign.ToolOptions{})
		if err != nil {
			return err
		}
		execs, ns := 0, int64(0)
		for _, p := range progs {
			eng, err := newEngine(ts)
			if err != nil {
				return err
			}
			in := p.instance()
			t0 := time.Now()
			for i := 0; i < spec.Runs; i++ {
				in.execute(eng, spec.SeedBase+int64(i))
			}
			ns += int64(time.Since(t0))
			execs += spec.Runs
			eng.Close()
		}
		rate[name] = float64(execs) / (float64(ns) / 1e9)
		r.Metrics["tool."+name+".bare_execs_per_s"] = rate[name]
		if slices.ContainsFunc(spec.Tools, func(t campaign.ToolSpec) bool { return t.Name == name }) {
			specExecs += execs
			specNS += ns
		}
	}
	r.Metrics["core.bare_execs_per_s"] = float64(specExecs) / (float64(specNS) / 1e9)
	r.Metrics["paper.speedup_vs_tsan11"] = rate["c11tester"] / rate["tsan11"]
	r.Metrics["paper.speedup_vs_tsan11rec"] = rate["c11tester"] / rate["tsan11rec"]
	return nil
}

// tracedPass replays the workload's cells with the campaign's engine
// settings, spanning ToolSpec.New and every Execute; the engine's phase and
// handoff timings become the children of each Execute span.
func (r *layersResult) tracedPass(w workload, spec campaign.Spec, progs []program) (*tracer, error) {
	tr := newTracer(rawExecs)
	var execNS []int64
	var coldNS, steps, choices, actions, atomics, normals, reports, spawns int64
	var nodes, edges, merges, c11Execs int64
	cells, exec := 0, 0
	for _, ts := range spec.Tools {
		for _, p := range progs {
			cells++
			s := tr.now()
			eng, err := newEngine(ts)
			if err != nil {
				return nil, err
			}
			tr.add(exec, "tool.new", s, tr.now(), nil)
			eng.SetPhaseTiming(true)
			eng.SetHandoffTiming(true)
			// The campaign records the action trace for validation and the
			// analyzers.
			eng.SetTrace(w.duties)
			c11, _ := eng.Model().(*core.C11Model)
			in := p.instance()
			keys := map[string]bool{}
			var cell cellOutcome
			if p.test != nil {
				cell.Outcomes = map[string]int{}
			}
			for i := 0; i < spec.Runs; i, exec = i+1, exec+1 {
				s := tr.now()
				res := in.execute(eng, spec.SeedBase+int64(i))
				e := tr.now()
				st := eng.ExecStats()
				// The engine reports phase durations, not positions: children
				// are laid out back to back from their parent's start.
				x := tr.add(exec, "execute", s, e, nil)
				reset := tr.add(exec, "reset", s, s+st.PhaseNS[core.PhaseReset], &x)
				run := tr.add(exec, "run", reset.end, reset.end+st.PhaseNS[core.PhaseRun], &x)
				race := tr.add(exec, "race", run.start, run.start+st.PhaseNS[core.PhaseRace], &run)
				tr.add(exec, "handoff_wait", race.end, race.end+st.HandoffWaitNS, &run)
				execNS = append(execNS, e-s)
				if i == 0 {
					coldNS += e - s
				}
				if res.EngineError != nil {
					r.Errors = append(r.Errors, fmt.Sprintf("%s/%s seed %d: %v", ts.Name, p.name, spec.SeedBase+int64(i), res.EngineError))
					continue
				}
				steps += int64(st.Steps)
				choices += int64(st.Choices)
				actions += int64(eng.ActionCount())
				atomics += int64(res.Stats.AtomicOps)
				normals += int64(res.Stats.NormalOps)
				reports += int64(len(res.Races))
				for _, rr := range res.Races {
					keys[rr.Key()] = true
				}
				if p.test != nil && in.out != "" {
					cell.Outcomes[in.out]++
				}
				if c11 != nil {
					g := c11.Graph()
					nodes += int64(g.NodeCount())
					edges += int64(g.EdgeCount())
					merges += int64(g.MergeOps())
					c11Execs++
				}
			}
			spawns += int64(eng.WorkerSpawns())
			eng.Close()
			cell.RaceKeys = harness.SortedKeys(keys)
			r.Cells[ts.Name+"/"+p.name] = cell
		}
	}

	n := len(execNS)
	r.Execs = n
	slices.Sort(execNS)
	perExec := func(v int64) float64 { return float64(v) / float64(n) }
	m := r.Metrics
	m["campaign.tool_new_us"] = tr.perExecUS("tool.new", cells)
	m["campaign.cold_exec_us"] = float64(coldNS) / float64(cells) / 1e3
	m["core.execute_us_p50"] = float64(percentile(execNS, 0.50)) / 1e3
	m["core.execute_us_p99"] = float64(percentile(execNS, 0.99)) / 1e3
	m["core.reset_us"] = tr.perExecUS("reset", n)
	m["core.run_us"] = tr.perExecUS("run", n)
	m["core.race_us"] = tr.perExecUS("race", n)
	m["core.model_self_us"] = float64(tr.Aggs["run"].SelfNS) / float64(n) / 1e3
	m["core.steps"] = perExec(steps)
	m["core.choices"] = perExec(choices)
	m["core.actions"] = perExec(actions)
	m["sched.handoff_wait_us"] = tr.perExecUS("handoff_wait", n)
	m["sched.handoff_ns_per_step"] = float64(tr.Aggs["handoff_wait"].TotalNS) / float64(steps)
	m["sched.spawns_per_kexec"] = 1000 * perExec(spawns)
	m["mograph.nodes"] = float64(nodes) / float64(c11Execs)
	m["mograph.edges"] = float64(edges) / float64(c11Execs)
	m["mograph.merge_ops"] = float64(merges) / float64(c11Execs)
	m["race.reports"] = perExec(reports)
	m["capi.atomic_ops"] = perExec(atomics)
	m["capi.normal_ops"] = perExec(normals)
	tracedRate := float64(n) / (float64(tr.Aggs["execute"].TotalNS) / 1e9)
	m["bench.trace_overhead_pct"] = 100 * (1 - tracedRate/m["core.bare_execs_per_s"])
	return tr, nil
}

// dutyPass replays the workload's programs under c11tester with trace
// recording on and spans the post-execution layers a duty campaign runs on
// each execution: axiom.FromEngine + axiom.Check, and every analyzer's
// Observe. Every workload gets this price list for its own executions; only
// the duties workload pays it end to end.
func (r *layersResult) dutyPass(spec campaign.Spec, progs []program) (*tracer, error) {
	ts, err := campaign.StandardTool("c11tester", campaign.ToolOptions{})
	if err != nil {
		return nil, err
	}
	tr := newTracer(rawExecs)
	names := analysis.Names()
	spans := make([]string, len(names))
	for j, name := range names {
		spans[j] = "analysis." + name
	}
	execs, findings, violations := 0, 0, 0
	for _, p := range progs {
		eng, err := newEngine(ts)
		if err != nil {
			return nil, err
		}
		eng.SetTrace(true)
		mo, ok := eng.Model().(core.MOProvider)
		if !ok {
			return nil, fmt.Errorf("c11tester model exposes no modification order")
		}
		var azs []analysis.Analyzer
		for _, name := range names {
			a, err := analysis.New(name)
			if err != nil {
				return nil, err
			}
			azs = append(azs, a)
		}
		in := p.instance()
		x := analysis.Exec{Tool: ts.Name, Program: p.name, Litmus: p.test != nil, Engine: eng, MO: mo}
		seen := map[[2]string]bool{}
		for i := 0; i < spec.Runs; i, execs = i+1, execs+1 {
			seed := spec.SeedBase + int64(i)
			res := in.execute(eng, seed)
			if res.EngineError != nil {
				continue // reported by the traced pass
			}
			s := tr.now()
			var vs []axiom.Violation
			ie := core.RecoverInfeasible(func() { vs = axiom.Check(axiom.FromEngine(eng, mo)) })
			tr.add(execs, "axiom", s, tr.now(), nil)
			if ie != nil {
				r.Errors = append(r.Errors, fmt.Sprintf("c11tester/%s seed %d: %v", p.name, seed, ie))
				continue
			}
			violations += len(vs)
			x.Result, x.Index, x.Seed, x.Outcome = res, i, seed, in.out
			for j, a := range azs {
				s := tr.now()
				var fs []analysis.Finding
				ie := core.RecoverInfeasible(func() { fs = a.Observe(&x) })
				tr.add(execs, spans[j], s, tr.now(), nil)
				if ie != nil {
					r.Errors = append(r.Errors, fmt.Sprintf("c11tester/%s seed %d: %s: %v", p.name, seed, names[j], ie))
				}
				for _, f := range fs {
					seen[[2]string{names[j], f.Key}] = true
				}
			}
		}
		findings += len(seen)
		eng.Close()
	}
	if violations > 0 {
		r.Errors = append(r.Errors, fmt.Sprintf("%d axiom violations", violations))
	}
	r.Metrics["axiom.check_us"] = tr.perExecUS("axiom", execs)
	for _, span := range spans {
		r.Metrics[span+"_us"] = tr.perExecUS(span, execs)
	}
	r.Metrics["analysis.findings"] = float64(findings)
	return tr, nil
}
