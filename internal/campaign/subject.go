package campaign

import (
	"fmt"

	"c11tester/internal/core"
	"c11tester/internal/litmus"
	"c11tester/internal/structures"
	"c11tester/internal/trace"
)

// TraceSubject rebuilds the replay subject of a recorded trace: a fresh engine
// of the recorded tool and the recorded program, looked up by name
// in the benchmark or litmus registry. cmd/c11trace and the replay tests use
// it to close the record → replay loop from a serialized trace alone.
func TraceSubject(tr *trace.Trace) (trace.Subject, error) {
	spec, err := StandardTool(tr.Tool.Name, ToolOptions{})
	if err != nil {
		return trace.Subject{}, err
	}
	s := trace.Subject{Engine: spec.New().(*core.Engine)}
	if tr.Litmus {
		t, ok := litmus.ByName(tr.Program)
		if !ok {
			return trace.Subject{}, fmt.Errorf("campaign: unknown litmus test %q in trace", tr.Program)
		}
		out := new(string)
		s.Prog = t.Make(out)
		s.Reset = func() { *out = "" }
		s.Outcome = func() string { return *out }
		return s, nil
	}
	b, err := structures.ByName(tr.Program)
	if err != nil {
		return trace.Subject{}, err
	}
	s.Prog = b.New()
	return s, nil
}
