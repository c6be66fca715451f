package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed region of a traced pass. Start and End are nanoseconds
// since the pass began; Parent indexes the pass's span list (-1 for a root).
// Spans of one execution share Exec.
type span struct {
	Exec   int    `json:"exec"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spanAgg aggregates every span of one name. Self time is the spans'
// duration minus the part their child spans cover.
type spanAgg struct {
	Count   int   `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// tracer keeps per-name aggregates of every span and the raw spans of the
// first keepExecs executions in memory; the benchmark writes them out when
// the pass ends.
type tracer struct {
	epoch     time.Time
	keepExecs int
	Spans     []span              `json:"spans"`
	Aggs      map[string]*spanAgg `json:"aggregates"`
}

// ref identifies a recorded span to its children.
type ref struct {
	name       string
	idx        int // index into Spans, -1 when the raw span was not kept
	start, end int64
}

func newTracer(keepExecs int) *tracer {
	return &tracer{epoch: time.Now(), keepExecs: keepExecs, Aggs: map[string]*spanAgg{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span of execution exec under parent (nil for a root).
func (t *tracer) add(exec int, name string, start, end int64, parent *ref) ref {
	a := t.Aggs[name]
	if a == nil {
		a = &spanAgg{}
		t.Aggs[name] = a
	}
	d := end - start
	a.Count++
	a.TotalNS += d
	a.SelfNS += d
	r := ref{name: name, idx: -1, start: start, end: end}
	p := -1
	if parent != nil {
		t.Aggs[parent.name].SelfNS -= d
		p = parent.idx
	}
	if exec < t.keepExecs {
		r.idx = len(t.Spans)
		t.Spans = append(t.Spans, span{Exec: exec, Name: name, Start: start, End: end, Parent: p})
	}
	return r
}

// perExecUS is the mean duration of the named spans per execution, in µs.
func (t *tracer) perExecUS(name string, execs int) float64 {
	a := t.Aggs[name]
	if a == nil || execs == 0 {
		return 0
	}
	return float64(a.TotalNS) / float64(execs) / 1e3
}

// writeTrace writes the passes' spans of one workload to dir/<workload>.json.
func writeTrace(dir, workload string, passes map[string]*tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Passes   map[string]*tracer `json:"passes"`
	}{workload, passes})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), data, 0o644)
}
