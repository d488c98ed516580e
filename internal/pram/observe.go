package pram

import "time"

// Observer receives wall-clock observations from a Machine — the side
// channel that makes the simulator's real-time behaviour (dispatch
// overhead, barrier-wait imbalance, phase durations) measurable without
// touching the simulated accounting. The interface deliberately uses
// only basic types so implementations (internal/obs.Collector) need not
// import pram.
//
// Contract: observation must never change observable machine behaviour.
// With no observer attached every hook site is a nil-check no-op; with
// one attached, the machine only reads clocks and calls these methods —
// Stats (Time, Work, Phases, Notes) are bit-identical either way, which
// the equivalence tests assert on every executor.
//
// BarrierWaitObserved is called concurrently from pool workers; the
// other methods are called from the coordinating goroutine only.
// Implementations must be safe for that mix.
type Observer interface {
	// RoundObserved reports the wall-clock duration of one synchronous
	// primitive (ParFor, ParForCost, ProcFor, ProcRun) over items items.
	RoundObserved(wall time.Duration, items int)
	// BarrierWaitObserved reports one participant's wait at an executor
	// synchronization point: worker 0 is the coordinator, worker q ≥ 1 a
	// background pool worker. Fused batches report both the release and
	// the completion barrier; single pooled rounds report the
	// coordinator's wait for the slowest worker.
	BarrierWaitObserved(worker int, wall time.Duration)
	// PhaseObserved reports a completed accounting phase as a wall-clock
	// span: the machine entered phase name at start and left it wall
	// later (at the next Phase, Reset, or FlushSpans).
	PhaseObserved(name string, start time.Time, wall time.Duration)
}

// WithObserver attaches a wall-clock observer to the machine.
func WithObserver(o Observer) Option {
	return func(m *Machine) { m.obsv = o }
}

// spanCut closes the currently open phase span at now and opens the
// next one. Only called with an observer attached.
func (m *Machine) spanCut(now time.Time) {
	if !m.phaseStart.IsZero() {
		m.obsv.PhaseObserved(m.phases[m.curPhase].Name, m.phaseStart, now.Sub(m.phaseStart))
	}
	m.phaseStart = now
}

// FlushSpans closes the currently open phase span and marks the machine
// idle, so wall time between requests is not attributed to the last
// request's final phase. The owning engine calls this after each
// request; standalone callers that want the trailing span call it after
// an algorithm returns. No-op without an observer.
func (m *Machine) FlushSpans() {
	if m.obsv == nil {
		return
	}
	m.spanCut(time.Now())
	m.phaseStart = time.Time{}
}
