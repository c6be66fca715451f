// robustness.go is the dynamic SC-robustness analyzer (Margalit et al.,
// "Dynamic Robustness Verification Against Weak Memory"): it flags
// executions whose outcome is not explainable under sequential consistency,
// i.e. where the weak memory model was load-bearing. The check itself —
// acyclicity of sb ∪ rf ∪ mo ∪ fr over the lifted execution — lives in
// axiom.SCExplainable; this analyzer adapts it to the campaign's finding
// algebra.
package analysis

import (
	"fmt"

	"c11tester/internal/axiom"
)

func init() {
	Register("sc-robustness", func() Analyzer { return &scRobustness{} })
}

// The SC-robustness findings: a litmus cell's non-SC outcome (the subject),
// and, for benchmarks, where outcomes have no canonical rendering, one
// subject-less kind per cell.
var (
	outcomeKind = Kind{Prefix: "outcome/", Describe: func(outcome string, _ int) string {
		return fmt.Sprintf("outcome %q is not SC-explainable (sb∪rf∪mo∪fr cycle): the weak memory model was load-bearing", outcome)
	}}
	nonSCKind = Kind{Prefix: "non-sc", Describe: func(string, int) string {
		return "execution is not SC-explainable (sb∪rf∪mo∪fr cycle): the weak memory model was load-bearing"
	}}
)

// scRobustness keeps its own workspace for callers that hand it no lifted
// execution, the storage of the finding it returns, and the outcome keys.
type scRobustness struct {
	ws   axiom.Execution
	out  [1]Finding
	keys keyMemo
}

func (*scRobustness) Name() string     { return "sc-robustness" }
func (*scRobustness) NeedsTrace() bool { return true }
func (*scRobustness) NeedsMO() bool    { return true }

// Observe checks SC-explainability of the lifted execution, lifting it
// first when x carries none. Findings are keyed by the litmus outcome when
// there is one — each distinct non-SC outcome of a litmus cell is its own
// finding — and by a single per-cell key for benchmarks.
func (s *scRobustness) Observe(x *Exec) []Finding {
	ex := x.Lifted
	if ex == nil {
		if x.MO == nil {
			return nil
		}
		s.ws.Lift(x.Engine, x.MO)
		ex = &s.ws
	}
	if axiom.SCExplainable(ex) {
		return nil
	}
	if x.Outcome != "" {
		s.out[0] = Finding{Key: s.keys.key(&outcomeKind, x.Outcome), Kind: &outcomeKind, Subject: x.Outcome}
	} else {
		s.out[0] = Finding{Key: nonSCKind.Prefix, Kind: &nonSCKind}
	}
	return s.out[:]
}
