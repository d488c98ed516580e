package pram

import (
	"time"

	"parlist/internal/obs"
)

// WithObserver attaches an observer to the machine and its worker
// pool: every round, charge, barrier wait and phase reaches it as one
// obs.Event. A *Tracer is an observer, as is obs.Collector.
//
// Contract: observation must never change observable machine
// behaviour. With no observer attached every hook site is a nil-check
// no-op; with one attached, the machine only reads clocks and sends
// events — Stats (Time, Work, Phases, Notes) are bit-identical either
// way, which the equivalence tests assert on every executor. Barrier
// waits are observed concurrently from pool workers; every other kind
// comes from the coordinating goroutine.
func WithObserver(o obs.Observer) Option {
	return func(m *Machine) { m.obsv = o }
}

// spanCut closes the currently open phase span at now and opens the
// next one. Only called with an observer attached.
func (m *Machine) spanCut(now time.Time) {
	if !m.phaseStart.IsZero() {
		m.obsv.Observe(obs.Event{Kind: obs.KindPhase, Name: m.phases[m.curPhase].Name,
			Start: m.phaseStart, Dur: now.Sub(m.phaseStart)})
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
