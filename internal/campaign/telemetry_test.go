package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"c11tester/internal/litmus"
)

// eventSpec builds the fixed matrix the instrumented-determinism tests run:
// only the worker count varies between invocations, so the unit-of-work set
// (and therefore the event stream, up to ordering) is identical.
func eventSpec(t *testing.T, workers int, tel *Telemetry) Spec {
	return Spec{
		Tools: []ToolSpec{
			mustTool(t, "c11tester", ToolOptions{}),
			mustTool(t, "tsan11", ToolOptions{}),
		},
		Benchmarks: []BenchmarkSpec{
			benchSpec(t, "ms-queue"),
			benchSpec(t, "linuxrwlocks"),
			benchSpec(t, "atomic-counter"),
		},
		Litmus: []*litmus.Test{
			mustLitmus(t, "MP+rlx"),
			mustLitmus(t, "CoRR"),
		},
		// The analyzer pipeline participates in the determinism guarantee:
		// findings and analyzer_finding events must be sharding-independent.
		Analyzers: []string{"atomicity", "sc-robustness"},
		Runs:      40,
		SeedBase:  500,
		Workers:   workers,
		// The same ragged shard size on both sides keeps the unit set
		// identical; only the order units are processed in may differ.
		ShardSize: 7,
		Telemetry: tel,
	}
}

// canonicalEvents parses, normalizes, and sorts a JSONL event stream. The
// only run-dependent content is the campaign_start spec echo — the worker
// count and the (per-TempDir) record path — which is stripped; every other
// event is a pure function of its unit of work, so after sorting the streams
// must be byte-identical.
func canonicalEvents(t *testing.T, raw []byte) []string {
	var out []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("malformed event line %q: %v", line, err)
		}
		if m["type"] == "campaign_start" {
			if spec, ok := m["spec"].(map[string]any); ok {
				delete(spec, "workers")
				delete(spec, "shard_size")
				delete(spec, "record_dir")
			}
		}
		norm, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(norm))
	}
	sort.Strings(out)
	return out
}

// TestInstrumentedDeterminismUnderSharding extends the campaign determinism
// guarantee to the telemetry fabric: with the structured event stream
// enabled, workers=1 and workers=4 must produce byte-identical
// canonicalized summaries AND identical event streams up to line ordering,
// with zero dropped events — and must match an uninstrumented-sink run.
func TestInstrumentedDeterminismUnderSharding(t *testing.T) {
	run := func(workers int) (*Summary, *Telemetry, []byte) {
		var buf bytes.Buffer
		tel := NewTelemetry(TelemetryOptions{EventSink: &buf})
		sum := Run(eventSpec(t, workers, tel))
		return sum, tel, buf.Bytes()
	}
	serialSum, serialTel, serialRaw := run(1)
	shardSum, shardTel, shardRaw := run(4)

	if n := serialTel.EventsDropped(); n != 0 {
		t.Fatalf("serial run dropped %d events", n)
	}
	if n := shardTel.EventsDropped(); n != 0 {
		t.Fatalf("sharded run dropped %d events", n)
	}
	for _, sum := range []*Summary{serialSum, shardSum} {
		if sum.Obs == nil || sum.Obs.EventsDropped != 0 {
			t.Fatalf("summary obs accounting = %+v, want zero drops", sum.Obs)
		}
	}
	if serialSum.Obs.EventsEmitted != shardSum.Obs.EventsEmitted {
		t.Fatalf("event counts differ: serial %d, sharded %d",
			serialSum.Obs.EventsEmitted, shardSum.Obs.EventsEmitted)
	}

	serialJSON, _ := json.Marshal(canonicalize(serialSum))
	shardJSON, _ := json.Marshal(canonicalize(shardSum))
	if !bytes.Equal(serialJSON, shardJSON) {
		t.Errorf("instrumented aggregates differ between workers=1 and workers=4:\nserial:  %s\nsharded: %s",
			serialJSON, shardJSON)
	}

	serialEv := canonicalEvents(t, serialRaw)
	shardEv := canonicalEvents(t, shardRaw)
	if !reflect.DeepEqual(serialEv, shardEv) {
		max := len(serialEv)
		if len(shardEv) > max {
			max = len(shardEv)
		}
		for i := 0; i < max; i++ {
			var a, b string
			if i < len(serialEv) {
				a = serialEv[i]
			}
			if i < len(shardEv) {
				b = shardEv[i]
			}
			if a != b {
				t.Errorf("event %d differs:\nserial:  %s\nsharded: %s", i, a, b)
				break
			}
		}
		t.Fatalf("event streams differ after canonical ordering (%d vs %d lines)",
			len(serialEv), len(shardEv))
	}
	if uint64(len(serialEv)) != serialSum.Obs.EventsEmitted {
		t.Errorf("stream has %d lines but summary reports %d emitted",
			len(serialEv), serialSum.Obs.EventsEmitted)
	}

	// The stream must cover the whole campaign lifecycle.
	types := map[string]int{}
	for _, line := range serialEv {
		var m struct {
			V    int    `json:"v"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		if m.V != 1 {
			t.Fatalf("event schema version = %d, want 1: %s", m.V, line)
		}
		types[m.Type]++
	}
	for _, want := range []string{"campaign_start", "wave_start", "cell_start",
		"cell_end", "race_first_seen", "analyzer_finding", "wave_end", "campaign_end"} {
		if types[want] == 0 {
			t.Errorf("no %q event in stream (types: %v)", want, types)
		}
	}
	if types["campaign_start"] != 1 || types["campaign_end"] != 1 {
		t.Errorf("campaign lifecycle events duplicated: %v", types)
	}

	// An events-off run (Run builds its own quiet telemetry) must agree with
	// the instrumented ones. A sink-less stream emits nothing, so the event
	// accounting — but only it — is excluded from the comparison.
	stripObs := func(s *Summary) *Summary {
		c := canonicalize(s)
		c.Obs = nil
		return c
	}
	quiet := Run(eventSpec(t, 2, nil))
	quietJSON, _ := json.Marshal(stripObs(quiet))
	serialJSON, _ = json.Marshal(stripObs(serialSum))
	if !bytes.Equal(serialJSON, quietJSON) {
		t.Errorf("instrumented and quiet aggregates differ:\ninstrumented: %s\nquiet:        %s",
			serialJSON, quietJSON)
	}
}

// TestTimingSampledPerIndex pins the two timing samples: a cell's wall time
// is taken on every timingSample-th execution index from 0, and its handoff
// wait and phase spans on the disjoint indices halfway between, which share
// one denominator. A one-execution cell gets its one wall-time sample and no
// span sample.
func TestTimingSampledPerIndex(t *testing.T) {
	for _, runs := range []int{1, 33} {
		sum := Run(Spec{
			Tools:          []ToolSpec{mustTool(t, "c11tester", ToolOptions{}), mustTool(t, "tsan11", ToolOptions{})},
			Benchmarks:     []BenchmarkSpec{benchSpec(t, "ms-queue")},
			Litmus:         []*litmus.Test{mustLitmus(t, "MP+rlx")},
			Runs:           runs,
			SeedBase:       1,
			Workers:        2,
			ShardSize:      5,
			ValidateAxioms: true,
		})
		checkSampledCounts(t, sum)
		wall, spans := sampledIn(runs, wallSampled), sampledIn(runs, spansSampled)
		for key, n := range phaseCounts(sum) {
			if n != spans {
				t.Errorf("runs=%d: %s counted %d samples, want %d", runs, key, n, spans)
			}
		}
		_, validated := phaseCounts(sum)["c11tester/MP+rlx/validate"]
		if validated != (spans > 0) {
			t.Errorf("runs=%d: validate span present=%v, want it on the %d span-sampled execution(s)",
				runs, validated, spans)
		}
		for _, ts := range sum.Tools {
			c := ts.Benchmarks[0]
			if c.Timing == nil || c.Timing.Count != wall {
				t.Errorf("runs=%d: %s timing histogram = %+v, want %d samples", runs, ts.Tool, c.Timing, wall)
			}
			if h := c.Handoff; (spans == 0) != (h == nil) || (h != nil && h.Count != spans) {
				t.Errorf("runs=%d: %s handoff-wait histogram = %+v, want %d samples",
					runs, ts.Tool, h, spans)
			}
		}
	}
}

// TestTelemetryFoldWithoutStream pins unitDone's two halves apart: the same
// units folded with and without an event stream print the same progress
// lines, and their distinct-race count is the stream's distinct (tool, race
// key) pairs — a key two tools both find counts twice.
func TestTelemetryFoldWithoutStream(t *testing.T) {
	run := func(sink io.Writer) string {
		var progress bytes.Buffer
		tel := NewTelemetry(TelemetryOptions{EventSink: sink, Progress: &progress})
		// One worker keeps the periodic progress lines deterministic.
		Run(eventSpec(t, 1, tel))
		return progress.String()
	}
	var events bytes.Buffer
	streamedLines := run(&events)
	quietLines := run(nil)

	if streamedLines != quietLines {
		t.Errorf("progress lines differ:\nwith a stream:\n%swithout:\n%s", streamedLines, quietLines)
	}
	if !strings.Contains(quietLines, "progress: ") {
		t.Errorf("no periodic progress line:\n%s", quietLines)
	}

	pairs := map[[2]string]bool{}
	tools := map[string]map[string]bool{} // key → tools that found it
	for _, line := range canonicalEvents(t, events.Bytes()) {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "race_first_seen" {
			pairs[[2]string{ev.Tool, ev.Key}] = true
			if tools[ev.Key] == nil {
				tools[ev.Key] = map[string]bool{}
			}
			tools[ev.Key][ev.Tool] = true
		}
	}
	// The last wave line carries the campaign's final distinct-race count.
	lines := strings.Split(strings.TrimSpace(quietLines), "\n")
	var wave, done, planned, conv, cells, races, fails int
	if _, err := fmt.Sscanf(lines[len(lines)-1], "wave %d: %d/%d execs, %d/%d cells converged, %d distinct race(s), %d failure(s)",
		&wave, &done, &planned, &conv, &cells, &races, &fails); err != nil {
		t.Fatalf("last progress line %q: %v", lines[len(lines)-1], err)
	}
	if len(pairs) == 0 || len(pairs) != races {
		t.Errorf("progress reports %d distinct race(s), stream has %d distinct (tool, key) pairs", races, len(pairs))
	}
	shared := false
	for _, ts := range tools {
		shared = shared || len(ts) > 1
	}
	if !shared {
		t.Error("no race key found by two tools: the (tool, key) pairing is untested")
	}
}
