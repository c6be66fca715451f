// Command bench is the repository benchmark. It times exploration campaigns
// (campaign.Run) on four workloads for the end-to-end metrics, then replays
// the same cells and seeds through each layer's public functions for the
// per-layer split. Each measurement step runs in a fresh subprocess, one at a
// time. See README.md for the metrics and how to read the output.
//
//	bash bench/run.sh                       # every workload, traced
//	bash bench/run.sh --workload litmus --seed 2 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// options are the measurement settings every step of a workload shares.
type options struct {
	seed     int64
	seconds  float64
	scale    float64
	reps     int
	trace    bool
	traceOut string
}

// stepTimeout bounds one measurement subprocess.
const stepTimeout = 170 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		wl       = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "workload seed: execution i of every cell runs with seed×10⁶+i")
		seconds  = fs.Float64("seconds", 30, "minimum wall time of the timed reps of a workload")
		trace    = fs.Int("trace", 1, "1: also run the traced passes and report the per-layer metrics as the result; 0: end-to-end metrics only")
		scale    = fs.Float64("scale", 1, "multiplier on every workload's per-cell budget")
		reps     = fs.Int("reps", 5, "minimum number of timed reps")
		out      = fs.String("out", ".bench_build/results.json", "results JSON path ('' disables)")
		traceOut = fs.String("trace-out", ".bench_build/trace", "directory for the per-workload span files of -trace 1 ('' disables)")
		child    = fs.String("child", "", "internal: run one measurement step (setup, reps or layers) and print its JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, scale: *scale, reps: *reps,
		trace: *trace != 0, traceOut: *traceOut}
	if fs.NArg() > 0 || o.seconds < 0 || o.scale <= 0 || o.reps < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; want -seconds ≥ 0, -scale > 0, -reps ≥ 1, -trace 0|1 and no positional arguments")
		return 2
	}
	var selected []workload
	if *wl == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*wl)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		selected = []workload{w}
	}
	for _, w := range selected {
		if w.workers > runtime.NumCPU() {
			fmt.Fprintf(stderr, "bench: workload %s needs %d workers but this machine has %d CPUs\n", w.name, w.workers, runtime.NumCPU())
			return 2
		}
	}

	if *child != "" {
		v, err := runStep(*child, selected[0], o)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(v)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s %s: %v\n", selected[0].name, *child, err)
			return 1
		}
		return 0
	}

	var results []*workloadResult
	for _, w := range selected {
		res, err := measureWorkload(w, o, subprocess)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		res.print(stdout)
		for _, e := range res.Errors {
			fmt.Fprintf(stderr, "bench: %s: CHECK FAILED: %s\n", w.name, e)
		}
		results = append(results, res)
	}
	if *out != "" {
		if err := writeResults(*out, o, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, correct, err := resultLine(results, o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if !correct {
		return 1
	}
	return 0
}

// runStep runs one measurement step in this process. The campaign steps get
// one P per worker: a worker's thread handoffs then stay on its P instead of
// waking goroutines on an idle one, which on a shared host is what keeps
// reps within a few percent of each other. The layer passes replay serially
// on one P.
func runStep(role string, w workload, o options) (any, error) {
	switch role {
	case "setup":
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.workers))
		return runSetup(w, o)
	case "reps":
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.workers))
		return runReps(w, o)
	case "layers":
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return runLayers(w, o)
	}
	return nil, fmt.Errorf("unknown step %q", role)
}

// stepFunc runs one measurement step and decodes its JSON result into out,
// returning the peak resident set size of the process that ran it, in KiB.
type stepFunc func(role string, w workload, o options, out any) (maxRSSKiB int64, err error)

// subprocess runs the step in a fresh child process, so each step's memory
// and set-up cost are its own.
func subprocess(role string, w workload, o options, out any) (int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	defer cancel()
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	cmd := exec.CommandContext(ctx, exe, "-child", role, "-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", f(o.seconds), "-scale", f(o.scale),
		"-reps", strconv.Itoa(o.reps), "-trace-out", o.traceOut)
	// The child dies with this process, so killing the benchmark stops it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s %s: %w", w.name, role, err)
	}
	if err := json.Unmarshal(buf.Bytes(), out); err != nil {
		return 0, fmt.Errorf("%s %s: decode result: %w", w.name, role, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("no resource usage for child process")
	}
	return ru.Maxrss, nil
}

// inProcess runs the step in this process (the smoke test's runner). The
// result takes the same JSON round trip as a subprocess's.
func inProcess(role string, w workload, o options, out any) (int64, error) {
	v, err := runStep(role, w, o)
	if err != nil {
		return 0, err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return 0, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return ru.Maxrss, nil
}

// workloadResult is everything measured on one workload.
type workloadResult struct {
	Name      string             `json:"name"`
	Runs      int                `json:"runs_per_cell"`
	Workers   int                `json:"workers"`
	Metrics   map[string]float64 `json:"metrics"`
	Rates     []float64          `json:"execs_per_s_reps"`
	Quartiles [3]float64         `json:"execs_per_s_quartiles"`
	// TracedExecs is the traced pass's sample count behind the percentiles.
	TracedExecs int      `json:"traced_execs,omitempty"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Errors      []string `json:"errors,omitempty"`
}

// measureWorkload runs the workload's steps one after another: the set-up
// campaigns, the timed reps and, with o.trace, the per-layer passes. It
// checks that every rep and the traced pass agree.
func measureWorkload(w workload, o options, step stepFunc) (*workloadResult, error) {
	var setup setupResult
	if _, err := step("setup", w, o, &setup); err != nil {
		return nil, err
	}
	var reps repsResult
	rss, err := step("reps", w, o, &reps)
	if err != nil {
		return nil, err
	}
	q1, rate, q3 := quartiles(reps.Rates)
	m := map[string]float64{
		"execs_per_s":          rate,
		"setup_s":              median(setup.Seconds),
		"peak_rss_mb":          float64(rss) / 1024,
		"alloc_bytes_per_exec": median(reps.AllocPerExec),
		"detections_found":     float64(reps.Races + reps.Weak),
		"races_found":          float64(reps.Races),
		"weak_outcomes_found":  float64(reps.Weak),
		"execs_to_races":       float64(reps.ExecsToRaces),
	}
	res := &workloadResult{Name: w.name, Runs: w.budget(o.scale), Workers: w.workers, Metrics: m,
		Rates: reps.Rates, Quartiles: [3]float64{q1, rate, q3},
		Attempted: reps.Attempted, Failed: reps.Failed, Errors: reps.Errors}
	if !o.trace {
		return res, nil
	}
	var lay layersResult
	if _, err := step("layers", w, o, &lay); err != nil {
		return nil, err
	}
	for k, v := range lay.Metrics {
		m[k] = v
	}
	m["campaign.overhead_pct"] = 100 * (1 - rate/(float64(w.workers)*m["core.bare_execs_per_s"]))
	res.TracedExecs = lay.Execs
	res.Errors = append(res.Errors, lay.Errors...)
	if lay.Execs != reps.Execs {
		res.Errors = append(res.Errors, fmt.Sprintf("traced pass ran %d executions, the campaign %d", lay.Execs, reps.Execs))
	}
	for cell, want := range reps.Cells {
		got, _ := json.Marshal(lay.Cells[cell])
		if exp, _ := json.Marshal(want); !bytes.Equal(got, exp) {
			res.Errors = append(res.Errors, fmt.Sprintf("%s: traced pass found %s, the campaign %s", cell, got, exp))
		}
	}
	return res, nil
}

// print writes every measured metric as `workload metric value unit`.
func (r *workloadResult) print(w io.Writer) {
	for _, d := range metricDefs {
		v, ok := r.Metrics[d.name]
		if !ok {
			continue
		}
		note := ""
		switch d.name {
		case "execs_per_s":
			note = fmt.Sprintf(" (q1 %.1f, q3 %.1f, n=%d reps)", r.Quartiles[0], r.Quartiles[2], len(r.Rates))
		case "core.execute_us_p50", "core.execute_us_p99":
			note = fmt.Sprintf(" (traced, n=%d)", r.TracedExecs)
		}
		fmt.Fprintf(w, "%s %s %s %s%s\n", r.Name, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit, note)
	}
	if r.Attempted > 0 {
		fmt.Fprintf(w, "%s failed_pct %s %%\n", r.Name, strconv.FormatFloat(100*float64(r.Failed)/float64(r.Attempted), 'g', -1, 64))
	}
}

// resultLine renders the one-line JSON result: the end-to-end metrics, or
// with trace the per-layer ones. Several workloads prefix metric names with
// the workload's.
func resultLine(results []*workloadResult, trace bool) (string, bool, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range results {
		line.Correct = line.Correct && len(r.Errors) == 0 && r.Failed == 0
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, d := range metricDefs {
			if d.layer != trace {
				continue
			}
			name := d.name
			if len(results) > 1 {
				name = r.Name + "." + name
			}
			line.Metrics[name] = value{r.Metrics[d.name], d.unit}
		}
	}
	data, err := json.Marshal(line)
	return string(data), line.Correct, err
}

func writeResults(path string, o options, results []*workloadResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	units := map[string]string{}
	for _, d := range metricDefs {
		units[d.name] = d.unit
	}
	data, err := json.MarshalIndent(struct {
		Seed      int64             `json:"seed"`
		Scale     float64           `json:"scale"`
		Seconds   float64           `json:"seconds"`
		Units     map[string]string `json:"units"`
		Workloads []*workloadResult `json:"workloads"`
	}{o.seed, o.scale, o.seconds, units, results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
