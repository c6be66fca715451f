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

// scRobustness keeps its own workspace for callers that hand it no lifted
// execution.
type scRobustness struct {
	ws axiom.Execution
}

func (*scRobustness) Name() string     { return "sc-robustness" }
func (*scRobustness) NeedsTrace() bool { return true }
func (*scRobustness) NeedsMO() bool    { return true }

// Observe checks SC-explainability of the lifted execution, lifting it
// first when x carries none. Findings are keyed by the litmus outcome when
// there is one — each distinct non-SC outcome of a litmus cell is its own
// finding — and by a single per-cell key for benchmarks, where outcomes
// have no canonical rendering.
func (s *scRobustness) Observe(x *Exec) []Finding {
	ex := x.Lifted
	if ex == nil {
		if x.Engine == nil || x.MO == nil {
			return nil
		}
		s.ws.Lift(x.Engine, x.MO)
		ex = &s.ws
	}
	if axiom.SCExplainable(ex) {
		return nil
	}
	if x.Outcome != "" {
		return []Finding{{
			Key:  "outcome/" + x.Outcome,
			Desc: fmt.Sprintf("outcome %q is not SC-explainable (sb∪rf∪mo∪fr cycle): the weak memory model was load-bearing", x.Outcome),
		}}
	}
	return []Finding{{
		Key:  "non-sc",
		Desc: "execution is not SC-explainable (sb∪rf∪mo∪fr cycle): the weak memory model was load-bearing",
	}}
}
