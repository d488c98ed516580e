// Package pram simulates a synchronous Parallel Random Access Machine.
//
// The paper's complexity claims are stated in PRAM time steps: a machine
// with p processors executes synchronous rounds in which every processor
// performs O(1) work. The Machine type counts exactly those rounds
// (Time) along with total operations (Work), so measured step counts can
// be compared directly against bounds such as O(n·log i/p + log^(i) n).
//
// Three executors are provided. The sequential executor runs every
// simulated processor in program order and is fully deterministic. The
// pooled executor shards each round across a persistent worker pool
// (pool.go) woken per round — the "goroutines for simulated PRAM steps"
// substitution — plus a fused-round fast path (Machine.Batch) that
// amortizes one wake across many consecutive rounds. Accounting is
// executor-independent, so it yields Stats bit-identical to the
// sequential executor's (asserted in tests) with real wall-clock
// parallelism. The native executor (Native,
// native.go) leaves the simulation behind for selected hot operations:
// it reuses the pooled machine's workers through the SPMD RunTeam
// primitive — per-worker chunk ownership, explicit barriers, no step
// charging — while every simulated primitive still dispatches exactly
// like Pooled, so operations without a native kernel remain bit-identical
// to the other executors.
//
// Algorithms written against the Machine must respect the owner-writes
// contract: within one ParFor round a body may write only cells it owns
// and may read only cells no other body instance writes in the same
// round. Every algorithm in this repository uses double buffering where
// a round reads its neighbours' previous values, which makes the two
// executors observationally equivalent. CheckedArray (memory.go)
// verifies the stronger per-model EREW/CREW access disciplines.
package pram

import (
	"fmt"
	"runtime"
	"time"

	"parlist/internal/obs"
	"parlist/internal/ws"
)

// Model identifies a PRAM memory-access model.
type Model int

const (
	// EREW forbids concurrent reads and concurrent writes of a cell.
	EREW Model = iota
	// CREW allows concurrent reads, forbids concurrent writes.
	CREW
	// CRCW allows both; writes must be Common (all writers agree).
	CRCW
)

// String returns the conventional model name.
func (m Model) String() string {
	switch m {
	case EREW:
		return "EREW"
	case CREW:
		return "CREW"
	case CRCW:
		return "CRCW"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Exec selects how simulated rounds are executed.
type Exec int

const (
	// Sequential runs all simulated processors on the calling goroutine.
	Sequential Exec = iota
	// Pooled shards rounds across a persistent worker pool created once
	// in New — no per-round goroutine spawning — and supports fused
	// dispatch of consecutive rounds via Machine.Batch.
	Pooled
	// Native is the fast-path execution mode: simulated primitives
	// dispatch exactly like Pooled (so non-native code paths stay
	// bit-identical), and additionally the machine exposes RunTeam
	// (native.go), the SPMD primitive the direct work-parallel kernels
	// in rank/partition/matching run on — no step charging, no
	// synchronous-read shadow copies, only the barriers the dependence
	// structure requires.
	Native
)

// String returns the executor name.
func (e Exec) String() string {
	switch e {
	case Sequential:
		return "sequential"
	case Pooled:
		return "pooled"
	case Native:
		return "native"
	}
	return fmt.Sprintf("exec(%d)", int(e))
}

// ParseExec returns the executor whose String is name, or an error for
// any other name.
func ParseExec(name string) (Exec, error) {
	for e := Sequential; e <= Native; e++ {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown executor %q", name)
}

// PhaseStat records the time/work accumulated under one named phase.
type PhaseStat struct {
	Name string
	Time int64
	Work int64
}

// Stats is a snapshot of a machine's accounting.
type Stats struct {
	Processors int
	Time       int64 // synchronous PRAM steps
	Work       int64 // total unit operations
	Phases     []PhaseStat
	// Notes records lifecycle degradations (a recovered worker panic, a
	// CheckedArray disabled under a parallel executor) so results that
	// ran in a degraded mode are visibly marked. Nil in normal runs.
	Notes []string
}

// Efficiency returns seqWork / (p·T): 1.0 means a perfectly optimal
// parallel algorithm relative to a sequential time of seqWork.
func (s Stats) Efficiency(seqWork int64) float64 {
	den := float64(s.Processors) * float64(s.Time)
	if den == 0 {
		return 0
	}
	return float64(seqWork) / den
}

// Machine is a simulated synchronous PRAM.
type Machine struct {
	p       int
	exec    Exec
	workers int

	time int64
	work int64

	phases   []PhaseStat
	curPhase int

	// round counts completed synchronous primitives; vtime is the
	// current virtual step and vproc the current virtual processor,
	// used by CheckedArray during sequential execution to detect
	// same-step cross-processor access conflicts.
	round int64
	vtime int64
	vproc int

	checked []resetter
	notes   []string

	// obsv receives the machine's events (observe.go); phaseStart is
	// the opening instant of the current phase span, zero while idle.
	// Both are dead weight when no observer is attached: every hook site
	// nil-checks obsv first, so the unobserved hot path costs one
	// predictable branch and the simulated accounting is bit-identical
	// either way.
	obsv       obs.Observer
	phaseStart time.Time

	// deadline is the absolute abort instant armed by SetDeadline (zero
	// = unarmed). Checked on the coordinator at every synchronous
	// primitive and at RunTeam dispatch, never inside a round body, so
	// an abort always finds the workers parked or barrier-parked and the
	// machine survives without degrading.
	deadline time.Time

	// pool holds the persistent workers of the Pooled executor (nil for
	// the other executors, after Close, and after a recovered failure
	// degraded the machine to inline execution); fused is set while a
	// Batch has the workers checked out, routing every primitive through
	// the barrier-driven fused path. faults and watchdog are the
	// robustness knobs forwarded to the pool (failure.go, faults.go).
	pool     *pool
	fused    bool
	faults   *FaultPlan
	watchdog time.Duration

	// workspace is the optional scratch arena (nil outside an engine):
	// algorithms draw per-run buffers from it via ws.Ints/ws.Bools, and
	// the owning engine resets it between requests.
	workspace *ws.Workspace

	// inlineTeam is the reused single-party context RunTeam hands to
	// native kernels when no worker pool is available (native.go).
	inlineTeam TeamCtx
}

type resetter interface{ beginRound(base int64) }

// Option configures a Machine.
type Option func(*Machine)

// WithExec selects the executor (default Sequential).
func WithExec(e Exec) Option { return func(m *Machine) { m.exec = e } }

// WithWorkers sets the real worker count for the Pooled and Native
// executors (default runtime.GOMAXPROCS(0)).
func WithWorkers(w int) Option {
	return func(m *Machine) {
		if w > 0 {
			m.workers = w
		}
	}
}

// WithWorkspace attaches a scratch arena to the machine. Algorithms
// fetch it with Workspace() and acquire per-run buffers from it instead
// of allocating; with no workspace attached (the default) they fall
// back to make, so plain library use is unaffected. The caller that
// attaches a workspace owns its lifecycle: it must Reset it between
// runs and must not reset it while a run is in flight. The engine is
// the only attacher in this repository.
func WithWorkspace(w *ws.Workspace) Option {
	return func(m *Machine) { m.workspace = w }
}

// New creates a machine with p simulated processors. p must be ≥ 1.
//
// With WithExec(Pooled) the persistent workers are started here and live
// until Close. A finalizer is attached so machines that are simply
// dropped (the pattern throughout cmd/, examples/ and the benchmarks)
// release their workers when collected; long-lived callers should still
// Close explicitly.
func New(p int, opts ...Option) *Machine {
	if p < 1 {
		panic(fmt.Sprintf("pram: New with p=%d", p))
	}
	m := &Machine{
		p:       p,
		exec:    Sequential,
		workers: runtime.GOMAXPROCS(0),
		phases:  []PhaseStat{{Name: "init"}},
	}
	for _, o := range opts {
		o(m)
	}
	if m.workers < 1 {
		m.workers = 1
	}
	if (m.exec == Pooled || m.exec == Native) && m.workers > 1 {
		m.pool = newPool(m.workers - 1)
		m.pool.faults = m.faults
		m.pool.watchdog = m.watchdog
		m.pool.obsv = m.obsv
		// The workers reference only the pool, never the Machine, so an
		// unreachable Machine is collectable and its finalizer can stop
		// them.
		runtime.SetFinalizer(m, (*Machine).Close)
	}
	return m
}

// Close stops the persistent workers of a Pooled machine. Idempotent and
// safe on any executor. After Close the machine remains usable — rounds
// execute inline on the calling goroutine — and all accounting is
// preserved.
func (m *Machine) Close() {
	if m.pool == nil {
		return
	}
	m.pool.close()
	m.pool = nil
	runtime.SetFinalizer(m, nil)
}

// Processors returns the simulated processor count p.
func (m *Machine) Processors() int { return m.p }

// Workspace returns the attached scratch arena, or nil. The ws package
// helpers treat nil as "allocate with make".
func (m *Machine) Workspace() *ws.Workspace { return m.workspace }

// Degraded reports whether a Pooled or Native machine has lost its
// persistent workers (a recovered WorkerPanic or BarrierStall tore the
// pool down, or Close was called) and now executes rounds inline.
// Long-lived owners use this to decide to rebuild the machine rather
// than serve follow-up requests degraded.
func (m *Machine) Degraded() bool {
	return (m.exec == Pooled || m.exec == Native) && m.workers > 1 && m.pool == nil
}

// Executor returns the configured executor.
func (m *Machine) Executor() Exec { return m.exec }

// Time returns the accumulated synchronous PRAM steps.
func (m *Machine) Time() int64 { return m.time }

// Work returns the accumulated unit operations.
func (m *Machine) Work() int64 { return m.work }

// Reset clears all accounting (processor count and executor persist).
// Registered CheckedArrays are notified so per-step conflict bookkeeping
// from before the Reset cannot leak into the restarted virtual-time
// axis (virtual step numbers repeat after a Reset). Reset must not be
// called inside an open Batch: the fused rounds issued so far would be
// charged to the discarded accounting while the rest of the batch
// charges the fresh one, so it panics with a clear message instead of
// silently splitting a batch's accounting.
func (m *Machine) Reset() {
	if m.fused {
		panic("pram: Reset inside an open Batch (finish the batch before resetting accounting)")
	}
	if m.obsv != nil {
		m.spanCut(time.Now())
	}
	m.time, m.work, m.round, m.vtime = 0, 0, 0, 0
	m.vproc = 0
	// Reuse the phases backing array: a reused machine's second and
	// later runs must not allocate here (the engine's zero-alloc
	// steady-state contract), and a request records the same phase
	// sequence as its predecessor at fixed workload, so capacity
	// stabilizes after the first run.
	m.phases = append(m.phases[:0], PhaseStat{Name: "init"})
	m.curPhase = 0
	for _, c := range m.checked {
		c.beginRound(0)
	}
}

// SetFaults replaces the machine's fault-injection plan for subsequent
// rounds and rewinds the pooled executor's dispatch-round counter to
// zero. The rewind is what makes fault plans compose with machine
// reuse: a plan's (round, worker) coordinates are meant to be relative
// to the request it is installed for, so installing it per request must
// not leave the plan aimed at round numbers the previous requests
// already consumed — without the rewind a plan targeting round 3 would
// fire on the first request and never again. Pass nil to clear.
// Panics inside an open Batch for the same reason Reset does.
func (m *Machine) SetFaults(plan *FaultPlan) {
	if m.fused {
		panic("pram: SetFaults inside an open Batch")
	}
	m.faults = plan
	if m.pool != nil {
		m.pool.faults = plan
		m.pool.rounds = 0
	}
}

// SetProcessors sets the simulated processor count p (≥ 1) for later
// rounds. It scales only the accounting — ParFor's charge, ProcFor's
// round, Snapshot — never the real workers, so one warm machine can
// serve each request at its own count. Panics inside an open Batch.
func (m *Machine) SetProcessors(p int) {
	if p < 1 {
		panic(fmt.Sprintf("pram: SetProcessors with p=%d", p))
	}
	if m.fused {
		panic("pram: SetProcessors inside an open Batch")
	}
	m.p = p
}

// SetDeadline arms (or, with the zero time, disarms) a request
// deadline: once t has passed, the next synchronous primitive — or the
// next RunTeam dispatch — panics with *DeadlineExceeded instead of
// executing. The check runs only on the coordinating goroutine between
// rounds, so granularity is one round: a round already dispatched runs
// to completion, the worker pool stays healthy, and an open Batch
// unwinds through its normal release path. An unarmed machine pays one
// predictable branch per primitive, mirroring the observer hooks.
//
// The deadline persists across Reset; long-lived owners (the engine)
// re-arm or disarm it per request.
func (m *Machine) SetDeadline(t time.Time) { m.deadline = t }

// abortDeadline raises the typed deadline abort. Split from the inline
// IsZero check at every call site so the armed-but-not-expired path
// stays cheap and the unarmed path is branch-only.
func (m *Machine) abortDeadline() {
	now := time.Now()
	if !now.After(m.deadline) {
		return
	}
	panic(&DeadlineExceeded{Round: m.round, Over: now.Sub(m.deadline)})
}

// Phase begins a new named accounting phase; subsequent charges
// accumulate under it. Useful for per-step breakdowns (e.g. showing that
// Match2's sort step dominates).
func (m *Machine) Phase(name string) {
	if m.obsv != nil {
		m.spanCut(time.Now())
	}
	m.phases = append(m.phases, PhaseStat{Name: name})
	m.curPhase = len(m.phases) - 1
}

// Snapshot returns a copy of the machine's accounting.
func (m *Machine) Snapshot() Stats {
	ph := make([]PhaseStat, 0, len(m.phases))
	for _, p := range m.phases {
		if p.Time != 0 || p.Work != 0 {
			ph = append(ph, p)
		}
	}
	return Stats{
		Processors: m.p,
		Time:       m.time,
		Work:       m.work,
		Phases:     ph,
		Notes:      append([]string(nil), m.notes...),
	}
}

// SnapshotInto fills st with the machine's accounting, reusing st's
// Phases capacity — the allocation-free Snapshot for the engine's
// steady-state request path. The resulting Stats are value-identical
// to Snapshot's (tests assert this).
func (m *Machine) SnapshotInto(st *Stats) {
	st.Processors = m.p
	st.Time = m.time
	st.Work = m.work
	if st.Phases == nil {
		st.Phases = make([]PhaseStat, 0, len(m.phases))
	}
	st.Phases = st.Phases[:0]
	for _, p := range m.phases {
		if p.Time != 0 || p.Work != 0 {
			st.Phases = append(st.Phases, p)
		}
	}
	if len(m.notes) == 0 {
		st.Notes = nil
	} else {
		st.Notes = append(st.Notes[:0], m.notes...)
	}
}

// note records a lifecycle degradation surfaced through Stats.Notes.
func (m *Machine) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// Notes returns the degradation notes recorded so far.
func (m *Machine) Notes() []string { return append([]string(nil), m.notes...) }

func (m *Machine) charge(t, w int64) {
	m.time += t
	m.work += w
	m.phases[m.curPhase].Time += t
	m.phases[m.curPhase].Work += w
}

// Charge adds an explicit time/work cost without executing anything.
// Used when a cost is known analytically (e.g. a TableBank setup).
func (m *Machine) Charge(t, w int64) {
	if t < 0 || w < 0 {
		panic("pram: negative charge")
	}
	m.charge(t, w)
	if m.obsv != nil {
		m.obsv.Observe(obs.Event{Kind: obs.KindCharge, Name: m.phases[m.curPhase].Name, Time: t, Work: w})
	}
}

// ceilDiv returns ⌈a/b⌉ for a ≥ 0, b ≥ 1.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// ParFor simulates n independent unit-cost operations executed by the
// machine's p processors using Brent scheduling: processor q handles the
// contiguous items [q·c, (q+1)·c) with c = ⌈n/p⌉, so the round costs
// ⌈n/p⌉ time and n work. body(i) must be independent across i within
// the round (owner-writes contract).
func (m *Machine) ParFor(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	m.runRound(obs.KindParFor, n, ceilDiv(int64(n), int64(m.p)), 1, body)
}

// ParForCost is ParFor for bodies that each perform up to `cost` unit
// operations (cost must be a constant independent of n for the bounds to
// hold — e.g. walking a constant-length sublist in Match1 step 4). The
// round is charged cost·⌈n/p⌉ time and cost·n work.
func (m *Machine) ParForCost(n int, cost int64, body func(i int)) {
	if n <= 0 {
		return
	}
	if cost < 1 {
		panic("pram: ParForCost with cost < 1")
	}
	m.runRound(obs.KindParFor, n, ceilDiv(int64(n), int64(m.p)), cost, body)
}

// ProcFor runs one unit-cost operation on each of the p processors:
// 1 time step, p work. body receives the processor index.
func (m *Machine) ProcFor(body func(q int)) {
	m.runRound(obs.KindProc, m.p, 1, 1, body)
}

// ProcRun runs a local procedure of `steps` sequential unit operations
// on each processor simultaneously: steps time, p·steps work. body(q)
// performs the whole local procedure for processor q (e.g. Match4's
// per-column counting sort). The bodies must touch disjoint memory.
func (m *Machine) ProcRun(steps int64, body func(q int)) {
	if steps < 0 {
		panic("pram: ProcRun with negative steps")
	}
	m.runRound(obs.KindProc, m.p, 1, steps, body)
}

// runRound is the one body of the four synchronous primitives: n items
// in chunks of c, item i running on processor i/c at local step
// (i mod c)·cost, charged c·cost time and n·cost work.
func (m *Machine) runRound(kind obs.Kind, n int, c, cost int64, body func(i int)) {
	if !m.deadline.IsZero() {
		m.abortDeadline()
	}
	var t0 time.Time
	if m.obsv != nil {
		t0 = time.Now()
	}
	m.beginRound()
	if !m.dispatch(n, body) {
		if m.checked != nil {
			// Drive virtual time so CheckedArray sees the true PRAM
			// schedule.
			for i := 0; i < n; i++ {
				m.vtime = m.round + int64(i)%c*cost
				m.vproc = int(int64(i) / c)
				body(i)
			}
		} else {
			for i := 0; i < n; i++ {
				body(i)
			}
		}
	}
	t, w := c*cost, int64(n)*cost
	m.round += t
	m.vtime = m.round
	m.charge(t, w)
	if m.obsv != nil {
		m.obsv.Observe(obs.Event{Kind: kind, Name: m.phases[m.curPhase].Name,
			N: n, Time: t, Work: w, Dur: time.Since(t0)})
	}
}

// beginRound notifies checked arrays that a new synchronous primitive
// starts, so same-step conflict sets reset.
func (m *Machine) beginRound() {
	if m.checked == nil {
		return
	}
	for _, c := range m.checked {
		c.beginRound(m.round)
	}
}

// dispatch shards one round of n bodies across real workers and reports
// whether it did: the fused batch path when Batch has the pool checked
// out, or the persistent pool for single Pooled rounds. Returns false
// when the round must run inline (Sequential executor, a single worker,
// trivial n, or a Pooled machine after Close or a recovered failure).
//
// A panic recovered from a worker (or a watchdog-declared barrier
// stall) is re-raised here on the coordinator after the round's
// synchronization has drained; the aborted round is not charged. For
// the pooled executor the machine first degrades to inline execution —
// see failPool.
func (m *Machine) dispatch(n int, body func(i int)) bool {
	if m.workers <= 1 || n <= 1 {
		return false
	}
	switch {
	case m.fused && m.pool != nil:
		if err := m.pool.runFused(n, body); err != nil {
			m.failPool(err)
		}
	case (m.exec == Pooled || m.exec == Native) && m.pool != nil:
		if err := m.pool.run(n, body); err != nil {
			m.failPool(err)
		}
	default:
		return false
	}
	return true
}

// failPool tears the pooled executor down after a dispatch failure and
// re-raises the failure on the coordinator. After a recovered
// WorkerPanic the workers have parked cleanly (the barrier or
// completion channel drained), so they are released and joined — no
// goroutine outlives the failure. After a BarrierStall at least one
// worker is wedged, so the pool is abandoned instead: the aborted flag
// makes the responsive workers exit on their own and only the wedged
// body's goroutine remains, now diagnosed rather than silently
// spinning. Either way the machine survives, degrades to inline
// execution with accounting intact, and Close stays idempotent.
func (m *Machine) failPool(err error) {
	p := m.pool
	m.pool = nil
	runtime.SetFinalizer(m, nil)
	switch e := err.(type) {
	case *WorkerPanic:
		if m.fused {
			m.fused = false
			if st := p.endBatch(); st != nil {
				m.note("pram: worker pool abandoned while unwinding a recovered panic: %v", st)
				panic(err)
			}
		}
		p.close()
		m.note("pram: panic in round %d on worker %d recovered; machine degraded to inline execution", e.Round, e.Worker)
	case *BarrierStall:
		m.fused = false
		m.note("pram: barrier watchdog abandoned the worker pool in round %d (missing workers %v); machine degraded to inline execution", e.Round, e.Missing)
	}
	panic(err)
}
