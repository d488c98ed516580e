package pram

import (
	"runtime"
	"runtime/debug"
	"time"

	"parlist/internal/obs"
)

// This file is the Native executor's runtime: RunTeam, an SPMD ("single
// program, multiple data") primitive layered on the pooled executor's
// persistent workers and sense-reversing barrier. Where the simulated
// primitives charge PRAM steps and enforce the synchronous-read
// discipline with shadow copies, a team body runs free: every party
// (the coordinator plus the background workers) executes the same
// closure over its own chunk of the data, synchronizing only at the
// explicit TeamCtx.Barrier calls the dependence structure genuinely
// requires. Nothing is charged to Time/Work — the native kernels in
// internal/rank, internal/partition and internal/matching are measured
// by the wall clock, not the model.
//
// Failure semantics mirror the pooled executor's: a panic in any party
// is recovered, recorded first-writer-wins, and flips the pool's
// aborted flag; every other party unwinds at its next barrier, the
// machine abandons the pool (degrading to inline execution), and the
// recorded WorkerPanic is re-raised on the coordinator so the owning
// engine can turn it into an error and rebuild. No goroutine outlives
// the failure.

// TeamCtx is one party's view of a RunTeam dispatch. Worker 0 is the
// coordinating goroutine; workers 1..Workers-1 are the pool's
// background goroutines. The zero value (nil pool) is the inline
// single-party context used when the machine has no worker pool.
type TeamCtx struct {
	pool *pool

	// Worker is this party's index in [0, Workers).
	Worker int
	// Workers is the team size (pool background workers + coordinator).
	Workers int
}

// Chunk returns this party's contiguous share [lo, hi) of [0, n) under
// the same ⌈n/parties⌉ chunking the simulated executors use, so a team
// body's memory ranges stay disjoint and cache-friendly.
func (c *TeamCtx) Chunk(n int) (lo, hi int) {
	sz := (n + c.Workers - 1) / c.Workers
	lo = c.Worker * sz
	hi = lo + sz
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// Barrier synchronizes all parties of the team: no party proceeds past
// it until every party has arrived, and all writes before the barrier
// are visible to all parties after it. On a single-party (inline) team
// it is a no-op. If the team has been aborted — another party panicked,
// or the watchdog declared the barrier stalled — Barrier unwinds the
// calling party instead of waiting forever.
func (c *TeamCtx) Barrier() {
	p := c.pool
	if p == nil {
		return
	}
	if c.Worker == 0 {
		if st := p.coordBarrier(); st != nil {
			panic(teamAbort{stall: st})
		}
		return
	}
	if !p.workerBarrier(c.Worker - 1) {
		panic(teamAbort{})
	}
}

// teamAbort is the sentinel panic Barrier raises to unwind a party out
// of the user body when the team has been aborted. It never escapes
// runTeamParty.
type teamAbort struct {
	stall *BarrierStall
}

// runTeamParty executes the published team body as the given party,
// recovering panics. A recovered user panic is recorded (first writer
// wins) and aborts the team; a teamAbort sentinel means another party
// already failed (the coordinator keeps the sentinel's stall, if any).
// Background parties (party ≥ 1) always decrement the pending count so
// the coordinator's completion wait drains. The return value tells a
// background worker whether to re-park (true) or exit its goroutine
// (false, team failed).
func (p *pool) runTeamParty(party int) (keep bool) {
	keep = true
	func() {
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			keep = false
			if ab, ok := r.(teamAbort); ok {
				if party == 0 {
					p.teamStall = ab.stall
				}
				return
			}
			p.failure.CompareAndSwap(nil, &WorkerPanic{
				Value:  r,
				Worker: party,
				Round:  p.rounds,
				Stack:  debug.Stack(),
			})
			p.aborted.Store(true)
		}()
		p.spmd(&p.teamCtxs[party])
	}()
	if party > 0 {
		if p.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
	return keep
}

// runTeam dispatches one team over all parties and blocks until every
// party has finished or unwound. Returns the recorded failure, if any.
//
// Completion accounting: every background party decrements pending on
// its way out, panicked or not, so the done signal fires whenever all
// workers are responsive. The one exception is a genuinely wedged
// worker (the watchdog-stall case): then the coordinator's Barrier has
// already returned the stall, the coordinator must not block on done,
// and the done channel's one-slot buffer absorbs a late completion
// signal harmlessly — the pool is abandoned after any team failure and
// never dispatches again.
func (p *pool) runTeam(body func(*TeamCtx)) error {
	p.spmd = body
	p.teamStall = nil
	p.pending.Store(int32(p.background))
	for q := range p.slots {
		p.slots[q].wake <- msgSPMD
	}
	p.runTeamParty(0)
	if st := p.teamStall; st != nil && p.failure.Load() == nil {
		p.teamStall = nil
		p.spmd = nil
		return st
	}
	var t0 time.Time
	if p.obsv != nil {
		t0 = time.Now()
	}
	<-p.done
	if p.obsv != nil {
		p.obsv.Observe(obs.Event{Kind: obs.KindBarrierWait, Dur: time.Since(t0)})
	}
	p.rounds++
	p.spmd = nil
	if rec := p.failure.Load(); rec != nil {
		return rec
	}
	return nil
}

// NativeParties returns the party count RunTeam will dispatch: the
// pool's workers plus the coordinator, or 1 when the machine executes
// inline (sequential machine, single worker, degraded pool). Native
// kernels size their per-worker scratch with it.
func (m *Machine) NativeParties() int {
	if m.pool == nil {
		return 1
	}
	return m.pool.background + 1
}

// RunTeam executes body once per party, SPMD-style: every party runs
// the same closure with its own TeamCtx and synchronizes at the body's
// Barrier calls. Nothing is charged to the simulated accounting — this
// is the Native executor's fast path, bypassing the simulation
// entirely. The body must call Barrier the same number of times in
// every party.
//
// With no worker pool (Sequential machine, workers == 1, or a degraded
// pool) the body runs inline as a single party whose Barrier is a
// no-op, so native kernels remain correct — just serial — on any
// machine.
//
// A panic in any party tears the pool down exactly like a pooled-round
// failure: the machine degrades to inline execution, the failure is
// noted in Stats.Notes, and the WorkerPanic is re-raised here on the
// coordinator.
func (m *Machine) RunTeam(body func(*TeamCtx)) {
	if m.fused {
		panic("pram: RunTeam inside an open Batch")
	}
	// A team runs to completion once dispatched (the kernels place
	// barriers, not the machine), so an armed deadline is checked here:
	// team granularity, the coarsest the native fast path offers.
	if !m.deadline.IsZero() {
		m.abortDeadline()
	}
	if m.pool == nil {
		m.inlineTeam.Workers = 1
		body(&m.inlineTeam)
		return
	}
	if err := m.pool.runTeam(body); err != nil {
		m.failTeam(err)
	}
}

// failTeam abandons the pool after a team failure and re-raises the
// failure on the coordinator. Unlike a single pooled round, a failed
// team leaves the barrier in an indeterminate generation, so the pool
// can never be reused: the responsive workers have already exited via
// the aborted flag, and close() releases any that finished their body
// normally and re-parked.
func (m *Machine) failTeam(err error) {
	p := m.pool
	m.pool = nil
	runtime.SetFinalizer(m, nil)
	p.close()
	switch e := err.(type) {
	case *WorkerPanic:
		m.note("pram: panic in team party %d recovered; machine degraded to inline execution", e.Worker)
	case *BarrierStall:
		m.note("pram: team barrier declared stalled (missing workers %v); machine degraded to inline execution", e.Missing)
	}
	panic(err)
}
