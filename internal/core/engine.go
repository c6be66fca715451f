// Package core implements the C11Tester engine: the exploration loop of
// Figure 3, the operational semantics of Figure 11, and the surrounding
// runtime (race detection, scheduling, repeated execution).
//
// The engine is shared infrastructure: the memory-model-specific part — how
// an atomic operation picks the store it reads from and what bookkeeping it
// maintains — is behind the MemModel interface, so the tsan11/tsan11rec
// baselines (internal/baseline) reuse the same scheduler, clock machinery,
// race detector, and instrumentation plumbing, and differ only in the
// fragment of the memory model they admit. That mirrors the paper's framing:
// the tools are comparable because they test the same programs and differ in
// memory model and scheduling control.
package core

import (
	"fmt"

	"c11tester/internal/capi"
	"c11tester/internal/memmodel"
	"c11tester/internal/rng"
	"c11tester/internal/sched"
)

// Config configures an engine.
type Config struct {
	// Strategy plugs in the exploration strategy (Section 3's pluggable
	// framework). Nil means the default random strategy.
	Strategy Strategy
	// MaxSteps aborts executions that exceed this many visible operations
	// (livelock guard). 0 means the default of 4M.
	MaxSteps uint64
	// Trace records the full execution for the axiomatic validator.
	Trace bool
	// StoreBurst enables the consecutive-store scheduling rule of Section 3
	// (on for C11Tester; the baselines do not have it).
	StoreBurst bool
}

func (c Config) withDefaults() Config {
	if c.MaxSteps == 0 {
		c.MaxSteps = 4 << 20
	}
	if c.Strategy == nil {
		c.Strategy = NewRandomStrategy()
	}
	return c
}

// Strategy is the exploration plugin: it picks the next thread to run and
// makes the random choices of the memory model (which candidate store a load
// reads from). The default implements the paper's random strategy.
type Strategy interface {
	// Seed re-seeds the strategy for a new execution.
	Seed(seed int64)
	// PickThread selects the next thread among the schedulable ones, given
	// in creation order. The engine keeps ready between picks, so the
	// strategy must not modify it.
	PickThread(ready []*ThreadState) *ThreadState
	// PickIndex selects an index in [0, n).
	PickIndex(n int) int
}

// RandomStrategy is the paper's default plugin: uniform random choices. The
// rng.Rand is embedded by value, so the PCG state lives inline and
// re-seeding allocates nothing; all reseed mechanics live in internal/rng.
type RandomStrategy struct{ rng rng.Rand }

// NewRandomStrategy returns a RandomStrategy seeded with 1.
func NewRandomStrategy() *RandomStrategy {
	s := &RandomStrategy{}
	s.rng.Seed(1)
	return s
}

// Seed implements Strategy.
func (s *RandomStrategy) Seed(seed int64) { s.rng.Seed(seed) }

// PickThread implements Strategy.
func (s *RandomStrategy) PickThread(ready []*ThreadState) *ThreadState {
	return ready[s.rng.Intn(len(ready))]
}

// PickIndex implements Strategy.
func (s *RandomStrategy) PickIndex(n int) int { return s.rng.Intn(n) }

// QuantumStrategy models an uncontrolled OS scheduler: it keeps running the
// same thread for a geometrically distributed quantum of visible operations
// before preempting to a random other thread. This is how the tsan11
// baseline, which does not control scheduling, is represented on the
// engine's sequentialized substrate (Section 8's single-core configuration).
type QuantumStrategy struct {
	rng       rng.Rand
	quantum   rng.Geometric
	remaining int
	current   *ThreadState
	// idx is current's index in the ready list of its last pick. Engine.pick
	// keeps that list between steps, so the index holds until a rebuild
	// moves the thread; PickThread checks it before scanning.
	idx int
}

// NewQuantumStrategy returns a QuantumStrategy with the given mean quantum;
// means below 1 are taken as 1.
func NewQuantumStrategy(mean int) *QuantumStrategy {
	s := &QuantumStrategy{quantum: rng.NewGeometric(mean)}
	s.rng.Seed(1)
	return s
}

// Seed implements Strategy.
func (s *QuantumStrategy) Seed(seed int64) {
	s.rng.Seed(seed)
	s.current = nil
	s.remaining = 0
}

// PickThread implements Strategy.
func (s *QuantumStrategy) PickThread(ready []*ThreadState) *ThreadState {
	if s.current != nil && s.remaining > 0 {
		if s.idx < len(ready) && ready[s.idx] == s.current {
			s.remaining--
			return s.current
		}
		for i, t := range ready {
			if t == s.current {
				s.idx = i
				s.remaining--
				return t
			}
		}
	}
	s.idx = s.rng.Intn(len(ready))
	s.current = ready[s.idx]
	s.remaining = s.quantum.Draw(&s.rng)
	return s.current
}

// PickIndex implements Strategy.
func (s *QuantumStrategy) PickIndex(n int) int { return s.rng.Intn(n) }

// MemModel is the memory-model plugin point: the C11Tester model
// (constraint-based modification order, full hb∪sc∪rf-acyclic fragment)
// and the baseline commit-order models implement it.
type MemModel interface {
	// Begin resets the model's per-execution state.
	Begin(e *Engine)
	// AtomicLoad executes an atomic load and returns the value read.
	AtomicLoad(t *ThreadState, op *capi.Op) memmodel.Value
	// AtomicStore executes an atomic store.
	AtomicStore(t *ThreadState, op *capi.Op)
	// AtomicRMW executes a fetch-add, exchange, or compare-exchange. It
	// returns the value read and whether the write part happened (false for
	// a failed CAS).
	AtomicRMW(t *ThreadState, op *capi.Op) (old memmodel.Value, stored bool)
	// Fence executes an atomic fence.
	Fence(t *ThreadState, op *capi.Op)
	// PromoteNAStore informs the model that the most recent write to loc
	// was a non-atomic store by writer at the given epoch; the model must
	// make it visible to atomics (Section 7.2).
	PromoteNAStore(t *ThreadState, loc memmodel.LocID, writer memmodel.TID, epoch memmodel.SeqNum, v memmodel.Value)
}

// Engine runs programs under a MemModel with controlled scheduling. One
// Engine instance is one "tool" in the paper's sense. It keeps its buffers,
// pools and arenas warm across repeated executions, but no outcome: each
// Execute is a pure function of the program and the seed.
type Engine struct {
	cfg   Config
	name  string
	model MemModel
	// base is the constructed configuration (strategy and trace switch
	// included) that Rearm restores.
	base Config

	// Per-execution state.
	sch     *sched.Scheduler
	threads []*ThreadState
	locs    []*locState
	nextSeq memmodel.SeqNum
	scCount int
	result  *capi.Result
	steps   uint64
	choices uint64 // strategy decisions (PickThread + PickIndex) this execution
	trace   []*Action
	burstT  *ThreadState // thread eligible for a store burst

	// raceChecks, blocked and yields are this execution's per-operation
	// layer counts (see ExecStats).
	raceChecks, blocked, yields uint64

	// checkDue defers the upkeep (the MaxSteps guard) of a step that
	// granted a thread to the next step's entry, when that thread has
	// reached its next operation.
	checkDue bool
	// start is the unstarted thread the last step picked and returned to be
	// resumed: the step its first Call takes dispatches its operation without
	// a second pick (nil once dispatched, or once the thread finished
	// without issuing one).
	start *ThreadState

	// measureWait mirrors sched.SetMeasureWait across scheduler rebuilds
	// (Close discards the scheduler; the next Execute makes a fresh one).
	measureWait bool

	// phases is the forensics phase timer (reset/run spans), opt-in via
	// SetPhaseTiming exactly like measureWait. It lives on the engine (not the
	// scheduler), so it needs no rebuild mirroring.
	phases PhaseTimer

	// readyBuf is the list of schedulable threads, in creation order, that
	// pick hands the strategy. At a pick no thread is running, so the list
	// changes only when a thread spawns, blocks, is woken or finishes, and at
	// the execution's reset: those events set readyStale, and pick rebuilds
	// the list only then.
	readyBuf   []*ThreadState
	readyStale bool

	// Dispatch scratch: the race-conflict buffer handed to the shadow-word
	// checks (conflicts are copied into the result before the next dispatch)
	// and the synthetic Op backing NewAtomic's initializing store. Both are
	// reused so race-bearing operations and location creation allocate
	// nothing in steady state.
	confBuf []raceConflict
	initOp  capi.Op

	// State pools: locState and ThreadState objects (and their clock-vector
	// buffers) are recycled across Execute calls of one engine instance, so
	// repeated executions inside a campaign shard do not re-allocate the
	// per-location and per-thread scaffolding (ROADMAP: batch executions per
	// tool instance to amortize engine allocation). Pool entry i corresponds
	// to locs[i] / threads[i]; entries are reset in place when reused.
	locPool    []*locState
	threadPool []*ThreadState

	// resultBuf is the engine-owned capi.Result recycled across Execute
	// calls; result always points at it. See the ownership rules on
	// capi.Result: a returned Result is valid until the engine's next
	// Execute, and consumers copy what they keep.
	resultBuf capi.Result

	// Execution-lifetime arenas: every Action and every per-action
	// clock-vector snapshot created during Execute dies at the next Execute's
	// reset (see NewAction for the lifetime rules). The scheduler is likewise
	// recycled via sched.Reset.
	actions actionArena
	cvs     memmodel.CVArena
}

// New returns an engine running the given memory model.
func New(name string, model MemModel, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:   cfg,
		base:  cfg,
		name:  name,
		model: model,
	}
}

// Rearm restores the engine's constructed configuration, so a warm instance
// can serve a new unit of work: the constructed strategy, trace switch and
// (off) timing settings replace whatever SetStrategy, SetTrace,
// SetHandoffTiming and SetPhaseTiming installed. Everything else an engine
// keeps across executions — the scheduler's workers, state pools, arenas —
// is reset by every Execute anyway, and stays warm.
func (e *Engine) Rearm() {
	e.cfg = e.base
	e.SetHandoffTiming(false)
	e.SetPhaseTiming(false)
}

// Name implements capi.Tool.
func (e *Engine) Name() string { return e.name }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Model returns the engine's memory-model plugin.
func (e *Engine) Model() MemModel { return e.model }

// SetStrategy replaces the exploration strategy. The trace subsystem uses it
// to interpose recording and replay wrappers; it takes effect at the next
// strategy decision.
func (e *Engine) SetStrategy(s Strategy) {
	if s == nil {
		s = NewRandomStrategy()
	}
	e.cfg.Strategy = s
}

// SetTrace toggles trace recording for subsequent executions (the same
// switch as Config.Trace at construction time).
func (e *Engine) SetTrace(on bool) { e.cfg.Trace = on }

// FinalValues snapshots the last stored value of every shared location of
// the current (or last) execution, keyed by "name#id" (location names need
// not be unique). It must be read before the next Execute call.
func (e *Engine) FinalValues() map[string]memmodel.Value {
	out := make(map[string]memmodel.Value, len(e.locs))
	for _, l := range e.locs {
		if l != nil {
			out[fmt.Sprintf("%s#%d", l.name, l.id)] = l.naValue
		}
	}
	return out
}

// MOProvider is implemented by memory models that can produce a concrete
// per-location modification order for the last execution (the lifting of
// Section A.2). The C11 model implements it; the commit-order baselines keep
// only bounded histories and do not. The axiomatic validator and the trace
// recorder require it. Both methods append to dst and return the extended
// slice, so a caller that lifts every execution reuses one backing array:
// AppendLocations appends the locations in ascending order, AppendTotalMO
// one location's stores in modification order.
type MOProvider interface {
	AppendLocations(dst []memmodel.LocID) []memmodel.LocID
	AppendTotalMO(dst []*Action, loc memmodel.LocID) []*Action
}

// Threads returns the threads of the current (or last) execution.
func (e *Engine) Threads() []*ThreadState { return e.threads }

// Trace returns the recorded execution when Config.Trace is set.
func (e *Engine) Trace() []*Action { return e.trace }

// Strategy returns the engine's exploration strategy.
func (e *Engine) Strategy() Strategy { return e.cfg.Strategy }

// PickIndex routes a memory-model candidate choice (which store a load reads
// from, which position a commit order inserts at) through the strategy,
// counting it toward the execution's decision total. Memory models must make
// their random choices through it rather than calling the strategy directly,
// so ExecStats sees every decision.
func (e *Engine) PickIndex(n int) int {
	e.choices++
	return e.cfg.Strategy.PickIndex(n)
}

// ExecStats is the per-execution instrumentation snapshot behind the
// campaign's schedule-length and choices histograms and its per-cell layer
// counts. Steps, Choices, Resumes, RaceChecks, Blocked and Yields are exact
// counts, filled on every execution at the cost of an increment: the layers
// that act once per operation (the handoff, the race-shadow check) are
// priced from them rather than clocked.
type ExecStats struct {
	// Steps is the number of visible operations dispatched (the schedule
	// length of the execution).
	Steps uint64
	// Choices is the number of strategy decisions made: PickThread calls
	// plus PickIndex calls routed through Engine.PickIndex.
	Choices uint64
	// Resumes is the number of thread resumes (sched.Resumes): each arrival
	// of the turn at a thread that a step chose, whether the fiber that took
	// the step resumed it directly or unwound the fiber stack to it — a
	// granted thread that had parked, or a thread's start on its first pick —
	// and each abort unwind of a started thread. Spawning costs none: a
	// thread's start is the resume that runs its first operation. A step that
	// grants the thread running it costs no resume, so Resumes falls below
	// Steps. Each resume costs one coroutine switch, or a few when it unwinds
	// several fibers. A driver that took every step itself, as kernel-thread
	// sequencing does, would resume once per granted operation — Steps less
	// the dispatches that blocked — and once per thread start and abort
	// unwind; README's Figure 14 prices that count.
	Resumes uint64
	// RaceChecks is the number of race-shadow checks (race.Shadow OnRead and
	// OnWrite calls): one per allocation, plain access, atomic load and
	// atomic store, two per RMW that stores (its read and its write), one
	// per RMW that does not. Fences and thread operations check nothing.
	RaceChecks uint64
	// Blocked is the number of dispatches that blocked their thread (a
	// join of an unfinished thread). Each is a step that grants nothing;
	// the operation is dispatched again once woken.
	Blocked uint64
	// Yields is the number of KYield dispatches (capi.Env.Yield).
	Yields uint64
	// HandoffWaitNS is the total time the driver spent waiting while the turn
	// was on the program's fibers, excluding every tool step, wherever it ran;
	// 0 unless SetHandoffTiming enabled the measurement.
	HandoffWaitNS int64
	// PhaseNS is the per-phase wall time of the execution (indexed by Phase);
	// all zero unless SetPhaseTiming enabled the measurement. The engine
	// fills PhaseReset and PhaseRun; PhaseValidate and PhaseRecord are
	// campaign duties timed by the campaign runner, and the engine no longer
	// fills PhaseRace (RaceChecks counts what it timed).
	PhaseNS [NumPhases]int64
}

// ExecStats returns the instrumentation counters of the current (or last)
// execution. Like Trace and FinalValues, it must be read before the next
// Execute call.
func (e *Engine) ExecStats() ExecStats {
	st := ExecStats{
		Steps: e.steps, Choices: e.choices,
		RaceChecks: e.raceChecks, Blocked: e.blocked, Yields: e.yields,
		PhaseNS: e.phases.Durations(),
	}
	if e.sch != nil {
		st.Resumes, st.HandoffWaitNS = uint64(e.sch.Resumes()), e.sch.WaitNS()
	}
	return st
}

// SetHandoffTiming toggles the scheduler's handoff-wait measurement for
// subsequent executions (see sched.SetMeasureWait). It costs two monotonic
// clock reads per step and allocates nothing. Campaigns never turn it on
// (they count resumes instead); its one caller is the benchmark's traced
// pass.
func (e *Engine) SetHandoffTiming(on bool) {
	e.measureWait = on
	if e.sch != nil {
		e.sch.SetMeasureWait(on)
	}
}

// SetPhaseTiming toggles the forensics phase spans (PhaseTimer) for
// subsequent executions: four monotonic clock reads per execution, and no
// allocation. Campaign telemetry turns it on for a deterministic sample of
// each cell's executions; bare runs keep it off.
func (e *Engine) SetPhaseTiming(on bool) { e.phases.SetEnabled(on) }

// PhaseTiming reports whether phase spans are being measured.
func (e *Engine) PhaseTiming() bool { return e.phases.Enabled() }

// Execute implements capi.Tool: it runs one execution of p.
//
// Executing resets the engine's execution-lifetime arenas: every *Action,
// clock-vector snapshot, and mo-graph node of the previous execution is
// reclaimed here. Anything read from the engine after an execution (Trace,
// FinalValues, a model's AppendTotalMO) must be consumed — or deep-copied, as
// the trace recorder does — before the next Execute call.
//
// If the memory model reaches an infeasible state mid-execution (see
// InfeasibleError), Execute recovers the panic, unwinds the execution's
// remaining threads through the scheduler, and returns the partial result
// with Result.EngineError set; the engine stays usable for further Execute
// calls. Any other panic propagates.
func (e *Engine) Execute(p capi.Program, seed int64) (res *capi.Result) {
	e.phases.Reset()
	e.phases.Begin(PhaseReset)
	e.resetExecState(seed)
	e.phases.End(PhaseReset)
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ie, ok := r.(*InfeasibleError)
		if !ok {
			panic(r)
		}
		// The panic unwound the driver loop (Drive re-raises one a fiber's
		// step recovered, once the fiber stack has unwound) while the
		// program's threads are still parked; Abort unwinds them all,
		// restoring the all-threads-finished state the next resetExecState
		// relies on.
		e.phases.End(PhaseRun)
		e.result.EngineError = ie
		e.sch.Abort()
		res = e.result
	}()

	e.phases.Begin(PhaseRun)
	e.spawnThread("main", p.Run, nil)
	e.loop()
	e.phases.End(PhaseRun)

	return e.result
}

// resetExecState resets every piece of per-execution state — scheduler,
// thread/location pools, execution-lifetime arenas, strategy, and the
// model's own bookkeeping (mo-graph included, via Begin). It runs
// unconditionally at the top of every Execute: pooled engines, trace
// replayers, and guided prefix strategies (trace.PrefixGuide) all rely on the
// next execution never observing recycled state from the previous one.
func (e *Engine) resetExecState(seed int64) {
	if e.sch == nil {
		e.sch = sched.New()
		e.sch.SetMeasureWait(e.measureWait)
		e.sch.SetStep(e.step, true)
	} else {
		e.sch.Reset()
	}
	e.threads = e.threads[:0]
	e.locs = e.locs[:0]
	e.locs = append(e.locs, nil) // LocID 0 is NoLoc
	e.nextSeq = 0
	e.scCount = 0
	e.steps, e.choices = 0, 0
	e.raceChecks, e.blocked, e.yields = 0, 0, 0
	e.trace = e.trace[:0]
	e.burstT = nil
	e.checkDue = false
	e.start = nil
	e.readyStale = true
	e.actions.reset()
	e.cvs.Reset()
	e.cfg.Strategy.Seed(seed)
	// The Result is recycled in place: its slices keep their capacity, so a
	// steady-state execution appends races and assertion failures without
	// allocating. The previous execution's Result contents die here — the
	// ownership rule consumers see on capi.Result.
	e.resultBuf.Reset()
	e.result = &e.resultBuf
	e.model.Begin(e)
}

// Close retires the engine's scheduler workers (see sched.Shutdown), so
// discarding a pooled engine does not leave parked workers behind in a
// long-lived process. Campaign runners keep one warm engine per worker and
// tool for the whole campaign (Rearm separates its units of work) and close
// it when the worker exits. Close is idempotent; a later Execute
// transparently builds a fresh scheduler (and pool) again.
func (e *Engine) Close() {
	if e.sch != nil {
		e.sch.Shutdown()
		e.sch = nil
	}
}

// Workers returns the number of live pooled scheduler workers (0 before the
// first execution) and WorkerSpawns the number of workers the scheduler has
// ever started. The fiber-pool tests pin the pool invariant with them:
// spawns stop growing once the pool is warm, and retirements (panics)
// replace workers instead of leaking them.
func (e *Engine) Workers() int {
	if e.sch == nil {
		return 0
	}
	return e.sch.WorkerCount()
}

// WorkerSpawns returns the scheduler's lifetime worker-start count; see
// Workers.
func (e *Engine) WorkerSpawns() int {
	if e.sch == nil {
		return 0
	}
	return e.sch.Spawns()
}

// spawnThread creates a model thread. parent is nil for the main thread;
// otherwise the child inherits the parent's clock (the asw edge of the
// paper's lifting, Section A.2). ThreadState objects are recycled from the
// engine's pool across executions; all thread bindings of the previous
// execution have settled by the time Execute reuses them. The sched binding
// is the ThreadState's cached runBody method value — re-binding a pooled
// thread to a new fn allocates nothing.
//
// The thread is bound, not run: it is schedulable from here on, and its code
// first runs when a step picks it and the turn reaches it (see step). A
// thread that issues no visible operation is therefore a scheduling choice
// until it is picked.
func (e *Engine) spawnThread(name string, fn func(capi.Env), parent *ThreadState) *ThreadState {
	idx := len(e.threads)
	var ts *ThreadState
	if idx < len(e.threadPool) {
		ts = e.threadPool[idx]
		ts.reset(name, idx+1)
	} else {
		ts = &ThreadState{
			Name: name,
			C:    memmodel.NewClockVector(idx + 1),
		}
		ts.bodyFn = ts.runBody
		e.threadPool = append(e.threadPool, ts)
	}
	ts.eng = e
	ts.envv = env{e: e, ts: ts}
	ts.fn = fn
	if parent != nil {
		ts.C.Merge(parent.C)
	}
	ts.thr = e.sch.NewThread(name, ts.bodyFn)
	ts.ID = ts.thr.ID
	e.threads = append(e.threads, ts)
	e.readyStale = true
	return ts
}

// loop drives an execution: it takes the first step and hands its choice to
// the scheduler's Drive, which returns once a step ends the execution. The
// program's fibers take every later step themselves and pass the turn among
// themselves (see sched.Drive). Deadlock and truncation abort here, on the
// driver, once the fiber stack has unwound: a fiber cannot resume itself to
// unwind.
func (e *Engine) loop() {
	e.sch.Drive(e.step(nil))
	if e.result.Deadlocked || e.result.Truncated {
		e.sch.Abort()
	}
}

// step is one round of the Explore procedure of Figure 3: select an enabled
// thread, select its operation's behaviour, and execute it, repeating while
// the operation blocks. It returns the thread whose operation completed, or
// nil when the execution is over: every thread finished, a deadlock, or the
// step limit. done, when set, is a thread that just finished: the step
// handles its finish first. A fiber calls it from sched.Thread.Call, or after
// the thread above it finished; the driver calls it for the first step (and,
// driver-stepped, for every step).
//
// A picked thread that has not started has no operation to execute yet.
// The step records it (start) and returns it for the scheduler to resume;
// the thread runs to its first operation, and the step taken there — inline
// on its fiber, or by the driver when driver-stepped — dispatches that
// operation without picking again. The strategy thus sees the same ready set
// at the same points as if the thread had started at its spawn.
func (e *Engine) step(done *sched.Thread) *sched.Thread {
	if done != nil {
		e.finishThread(e.threads[done.ID])
	}
	if e.checkDue {
		e.checkDue = false
		if e.upkeep() {
			return nil
		}
	}
	t := e.start
	e.start = nil
	for {
		if t == nil {
			if t = e.pick(); t == nil {
				return nil
			}
			if t.thr.Unstarted() {
				e.start = t
				return t.thr
			}
		}
		e.dispatch(t)
		e.steps++
		if t.thr.State() == sched.Running {
			e.checkDue = true
			return t.thr
		}
		if e.upkeep() {
			return nil
		}
		t = nil
	}
}

// pick selects the next thread to dispatch, or returns nil when none is
// enabled, recording a deadlock if some thread is still alive. The ready list
// it hands the strategy is kept between picks (see readyBuf).
func (e *Engine) pick() *ThreadState {
	// Store-burst rule (Section 3): consecutive relaxed/release stores by
	// the same thread execute without a scheduling decision.
	if e.cfg.StoreBurst && e.burstT != nil && e.schedulable(e.burstT) && isBurstableStore(e.burstT.thr.Pending()) {
		return e.burstT
	}
	if e.readyStale {
		e.readyBuf = e.appendReady(e.readyBuf[:0])
		e.readyStale = false
	}
	ready := e.readyBuf
	if readyCheck != nil {
		readyCheck(e, ready)
	}
	if len(ready) == 0 {
		if e.sch.AliveCount() != 0 {
			e.result.Deadlocked = true
		}
		return nil
	}
	t := e.cfg.Strategy.PickThread(ready)
	e.choices++
	return t
}

// upkeep runs what is due after a dispatch, once the dispatched thread has
// settled: it reports whether the MaxSteps livelock guard ends the
// execution.
func (e *Engine) upkeep() bool {
	if e.steps >= e.cfg.MaxSteps {
		e.result.Truncated = true
		return true
	}
	return false
}

// appendReady appends the schedulable threads to dst in creation order.
func (e *Engine) appendReady(dst []*ThreadState) []*ThreadState {
	for _, ts := range e.threads {
		if e.schedulable(ts) {
			dst = append(dst, ts)
		}
	}
	return dst
}

// readyCheck, when set, sees the kept ready list at every pick that uses it.
// Tests compare it against a fresh appendReady.
var readyCheck func(e *Engine, kept []*ThreadState)

func (e *Engine) schedulable(ts *ThreadState) bool {
	if ts.finished {
		return false
	}
	switch ts.thr.State() {
	case sched.Ready:
		return true
	case sched.Blocked:
		return ts.woken
	}
	return false
}

func isBurstableStore(op *capi.Op) bool {
	return op != nil && op.Kind == memmodel.KStore &&
		(op.MO == memmodel.Relaxed || op.MO == memmodel.Release)
}

// assignSeq gives the current operation of ts its event sequence number and
// advances the thread's clock (a thread's own clock entry is the sequence
// number of its latest event, Section 4.2).
func (e *Engine) assignSeq(ts *ThreadState) memmodel.SeqNum {
	e.nextSeq++
	ts.opSeq = e.nextSeq
	ts.C.Set(ts.ID, e.nextSeq)
	return e.nextSeq
}

// nextSCIndex allocates the next position in the seq_cst total order.
func (e *Engine) nextSCIndex() int {
	e.scCount++
	return e.scCount - 1
}

// complete grants ts: its operation is done, and it runs on to its next
// operation once the step returns it (see step).
func (e *Engine) complete(ts *ThreadState) {
	ts.woken = false
	e.sch.Grant(ts.thr)
}

// block suspends ts on its current operation; it stays suspended until a
// wake marks it schedulable again, at which point the operation is
// re-dispatched.
func (e *Engine) block(ts *ThreadState) {
	e.blocked++
	if ts.thr.State() == sched.Ready {
		e.sch.Block(ts.thr)
	}
	ts.woken = false
	e.burstT = nil
	e.readyStale = true
}

// wake marks the blocked ts schedulable again (see ThreadState.woken), which
// changes the ready list.
func (e *Engine) wake(ts *ThreadState) {
	ts.woken = true
	e.readyStale = true
}

func (e *Engine) finishThread(ts *ThreadState) {
	ts.finished = true
	e.readyStale = true
	e.start = nil // ts, if it finished without issuing an operation
	if ts.thr.PanicValue != nil {
		e.result.AssertFailures = append(e.result.AssertFailures, capi.AssertFailure{
			TID:     ts.ID,
			Message: fmt.Sprintf("panic in thread %q: %v", ts.Name, ts.thr.PanicValue),
		})
	}
	// Wake the threads blocked joining ts; their joins re-dispatch and now
	// succeed. Waking only marks them, and the ready list is rebuilt in
	// creation order, so the order of this list does not matter.
	for w := ts.joiners; w != nil; w = w.nextJoiner {
		e.wake(w)
	}
	ts.joiners = nil
	if e.cfg.Trace {
		a := e.NewAction()
		a.Seq, a.TID, a.Kind = e.nextSeqPeek(), ts.ID, memmodel.KThreadFinish
		e.trace = append(e.trace, a)
	}
}

func (e *Engine) nextSeqPeek() memmodel.SeqNum {
	e.nextSeq++
	return e.nextSeq
}

// beginBlock opens a BeginAtomic block on ts: the span covers every action
// whose sequence number is assigned from here on (the next assignSeq yields
// nextSeq+1), until the matching endBlock. Annotations are engine-local
// bookkeeping, not visible operations — no Action, no scheduling decision —
// so annotated and unannotated programs produce identical executions.
func (e *Engine) beginBlock(ts *ThreadState, name string) {
	e.result.Blocks = append(e.result.Blocks, capi.BlockSpan{
		TID: ts.ID, Name: name, Begin: e.nextSeq + 1,
	})
}

// endBlock closes ts's innermost open block: actions numbered strictly below
// nextSeq+1 (i.e. everything executed since the matching beginBlock) are in
// the span. An EndAtomic with no open block is ignored — a harmless
// annotation bug, not an execution error.
func (e *Engine) endBlock(ts *ThreadState) {
	blocks := e.result.Blocks
	for i := len(blocks) - 1; i >= 0; i-- {
		if blocks[i].TID == ts.ID && blocks[i].End == 0 {
			blocks[i].End = e.nextSeq + 1
			return
		}
	}
}

// NewAction allocates an Action from the engine's execution-lifetime arena,
// zeroed except for SCIdx, which is -1 (not in the seq_cst order). Memory
// model plugins must create every per-execution Action through it.
//
// Lifetime rules: an arena Action is valid until the engine's next Execute
// call. It must never be stored anywhere that outlives the execution —
// results, summaries, and serialized traces copy the fields they keep (see
// internal/trace.Record). The README's "Performance" section documents the
// contract for external consumers.
func (e *Engine) NewAction() *Action { return e.actions.alloc() }

// CloneCV returns an arena-backed copy of cv, for per-action clock-vector
// snapshots (RFCV, CVSnap) that die with the execution. The same lifetime
// rules as NewAction apply. A nil cv yields the empty clock.
func (e *Engine) CloneCV(cv *memmodel.ClockVector) *memmodel.ClockVector {
	return e.cvs.CloneOf(cv)
}

// ActionCount returns the number of Actions allocated in the current (or
// last) execution; tests use it to pin the arena's steady-state behaviour.
func (e *Engine) ActionCount() int { return e.actions.len() }

// loc returns the location state for id.
func (e *Engine) loc(id memmodel.LocID) *locState { return e.locs[id] }

// newLocState returns a reset locState for id, recycled from the engine's
// pool when a previous execution already allocated one at this slot. The
// reset is field-wise: zeroing the struct would discard the race-detector
// shadow's spilled record, re-allocating it on the next expansion.
func (e *Engine) newLocState(id memmodel.LocID, name string) *locState {
	for len(e.locPool) <= int(id) {
		e.locPool = append(e.locPool, nil)
	}
	l := e.locPool[id]
	if l == nil {
		l = &locState{}
		e.locPool[id] = l
	}
	l.id = id
	l.name = name
	l.naValue = 0
	l.promoted = false
	l.shadow.Reset()
	return l
}

// LocName returns the name a location was created with.
func (e *Engine) LocName(id memmodel.LocID) string {
	if int(id) < len(e.locs) && e.locs[id] != nil {
		return e.locs[id].name
	}
	return fmt.Sprintf("loc#%d", id)
}

// reportConflicts converts race-detector conflicts on loc into this
// execution's reports. Reporting each race once across executions (Section
// 7.6) is the campaign's fold, not the engine's.
func (e *Engine) reportConflicts(ts *ThreadState, l *locState, kind memmodel.Kind, conflicts []raceConflict) {
	for _, c := range conflicts {
		priorKind := memmodel.KNALoad
		if c.PriorWrite {
			priorKind = memmodel.KNAStore
		}
		if !c.PriorNA {
			priorKind = memmodel.KLoad
			if c.PriorWrite {
				priorKind = memmodel.KStore
			}
		}
		e.result.Races = append(e.result.Races, capi.RaceReport{
			LocName:   l.name,
			PriorKind: priorKind,
			Kind:      kind,
			PriorTID:  c.PriorTID,
			TID:       ts.ID,
		})
	}
}
