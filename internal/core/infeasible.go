package core

import (
	"fmt"

	"c11tester/internal/memmodel"
)

// InfeasibleError reports that the memory model reached a state it cannot
// extend: a load or RMW whose every may-read-from candidate fails the
// modification-order feasibility check, or a modification-order lifting that
// contains a cycle. Either condition is a model soundness bug — the paper's
// algorithm guarantees a feasible candidate always exists (Section 4.3) — so
// the error must surface loudly, but as data rather than a crashed worker:
// the model panics with an *InfeasibleError, Engine.Execute recovers it,
// unwinds the execution's threads, and returns it through
// capi.Result.EngineError, so a campaign records the failing (tool, program,
// seed) cell and keeps running the rest of its matrix.
type InfeasibleError struct {
	// Stage names the operation that failed: "load", "rmw", or "total-mo".
	Stage string
	// Loc is the location the operation was on.
	Loc memmodel.LocID
	// Detail is the human-readable condition.
	Detail string
}

// Error implements error.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("c11model: %s of loc %d infeasible: %s", e.Stage, e.Loc, e.Detail)
}

// RecoverInfeasible converts a panicking *InfeasibleError into a returned
// error and re-raises anything else. Callers that invoke model methods
// outside Engine.Execute — the trace recorder and the axiomatic validator
// both call AppendTotalMO after the execution — use it to turn a lifting
// failure into a recordable result instead of a dead goroutine:
//
//	err := core.RecoverInfeasible(func() { ... mp.AppendTotalMO(dst, loc) ... })
func RecoverInfeasible(f func()) (err *InfeasibleError) {
	defer func() {
		if r := recover(); r != nil {
			ie, ok := r.(*InfeasibleError)
			if !ok {
				panic(r)
			}
			err = ie
		}
	}()
	f()
	return nil
}
