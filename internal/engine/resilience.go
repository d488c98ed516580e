package engine

// This file is the pool's resilience layer (DESIGN.md "Resilience"):
// retry of transient fault-class failures on a different shard, and a
// per-engine circuit breaker with background quarantine. Both are off
// by default — a zero PoolConfig serves exactly as it did before this
// layer existed — and both observe the same error taxonomy:
//
//	transient  pram.WorkerPanic, pram.BarrierStall   retried, trips breakers
//	deadline   ErrDeadlineExceeded                   never retried, never trips
//	overload   ErrQueueFull                          caller's decision, never trips
//	validation ErrNilList, ErrInvalidList, ...       permanent, never trips
//
// Retrying a transient failure is sound because requests are pure: a
// request is a function of (inputs, parameters, seed), every fault
// class leaves no partial output behind (the engine rebuilds its
// machine and resets its workspace), and outputs are proven
// schedule-independent (internal/matching/faultplan_test.go), so a
// retried request is bit-identical to a fault-free run — the chaos
// harness (internal/chaos) re-proves this under load against
// internal/verify.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"parlist/internal/list"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// RetryPolicy configures transparent retry of transient failures
// (recovered worker panics, watchdog barrier stalls). The zero value
// disables retries.
type RetryPolicy struct {
	// Max is the number of re-attempts after the first try (0 =
	// disabled). Each attempt runs on a different shard than the one
	// that failed, so a request never waits behind the machine rebuild
	// its own failure triggered.
	Max int
	// BaseBackoff delays the first retry (default 200µs); attempt k
	// waits min(BaseBackoff·2^(k−1), MaxBackoff), scaled by a
	// deterministic jitter in [0.5, 1.5).
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth (default 5ms).
	MaxBackoff time.Duration
}

// BreakerPolicy configures the per-engine circuit breaker and its
// quarantine/readmission state machine. The zero value disables
// breakers.
type BreakerPolicy struct {
	// Threshold opens an engine's breaker after this many consecutive
	// transient faults (0 = disabled). Deadline aborts, sheds and
	// validation errors never count.
	Threshold int
	// Cooldown is the open → half-open delay before the first probe
	// cycle (default 5ms), doubling after every failed cycle up to
	// 32·Cooldown.
	Cooldown time.Duration
	// Probes is the number of consecutive canary requests that must
	// pass before the engine is readmitted (default 2).
	Probes int
	// CanaryN is the probe list length (default 64) — big enough that a
	// probe takes the engine's parallel dispatch path whenever the
	// engine has more than one worker (64 is the native walk's team
	// cutoff), small enough that probes are microseconds. A one-worker
	// pool engine serves probes inline, as it serves everything.
	CanaryN int
}

// BreakerState is one engine's position in the circuit-breaker state
// machine.
type BreakerState int32

// The breaker states. Closed admits traffic; Open is quarantined (the
// router skips it, a background goroutine owns its recovery); HalfOpen
// is quarantined but mid-probe.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// breaker is one shard's health state machine. state transitions:
// the dispatcher CASes closed→open (it alone counts the fault streak);
// the shard's single quarantine goroutine owns every transition out of
// open, so writes never race.
type breaker struct {
	state    atomic.Int32
	streak   atomic.Int32 // consecutive transient faults while closed
	trips    atomic.Int64 // cumulative closed→open transitions
	openedAt atomic.Int64 // UnixNano of the latest trip
}

// now returns the current state.
func (b *breaker) now() BreakerState { return BreakerState(b.state.Load()) }

// canarySeed fixes the probe list so probe results are comparable
// across cycles (arbitrary odd constant).
const canarySeed = 0x5eed

// setBreaker publishes a state transition and mirrors it to the
// observer.
func (p *EnginePool) setBreaker(s *shard, st BreakerState) {
	s.brk.state.Store(int32(st))
	p.observe(obs.Event{Kind: obs.KindBreaker, Index: s.id, N: int(st)})
}

// noteFault records one transient fault against s's breaker, tripping
// it open — and launching the quarantine goroutine — when the
// consecutive-fault streak reaches the threshold. Called only from s's
// dispatcher goroutine.
func (p *EnginePool) noteFault(s *shard) {
	th := p.cfg.Breaker.Threshold
	if th <= 0 {
		return
	}
	if s.brk.streak.Add(1) < int32(th) {
		return
	}
	if !s.brk.state.CompareAndSwap(int32(BreakerClosed), int32(BreakerOpen)) {
		return // already quarantined; its goroutine owns recovery
	}
	s.brk.trips.Add(1)
	s.brk.openedAt.Store(time.Now().UnixNano())
	p.observe(obs.Event{Kind: obs.KindBreaker, Index: s.id, N: int(BreakerOpen)})
	// If the pool is closing there is nothing to recover for: the
	// breaker stays open and Close releases the engine regardless.
	p.goGuarded(func() { p.quarantine(s) })
}

// noteOK resets s's fault streak after a successful service. Called
// only from s's dispatcher goroutine.
func (p *EnginePool) noteOK(s *shard) {
	if p.cfg.Breaker.Threshold > 0 {
		s.brk.streak.Store(0)
	}
}

// quarantine owns one open breaker's recovery: wait out the cooldown,
// rebuild the engine's machine off the hot path, then probe it with
// canary requests; readmit only after Probes consecutive passes, and
// back off exponentially after a failed cycle. Runs on a guarded
// background goroutine — the router skips the shard the whole time, so
// no production request pays for the rebuild or the probes.
func (p *EnginePool) quarantine(s *shard) {
	opened := time.Now()
	cool := p.cfg.Breaker.Cooldown
	maxCool := 32 * cool
	for {
		if !p.sleep(cool) {
			return // pool closing; breaker stays open
		}
		p.setBreaker(s, BreakerHalfOpen)
		// Tear the (likely degraded) machine down now so the first
		// canary pays the rebuild instead of a production request.
		s.eng.Invalidate()
		pass := true
		for i := 0; i < p.cfg.Breaker.Probes; i++ {
			if err := p.probe(s); err != nil {
				pass = false
				break
			}
		}
		if pass {
			s.brk.streak.Store(0)
			p.setBreaker(s, BreakerClosed)
			p.observe(obs.Event{Kind: obs.KindQuarantine, Index: s.id, Dur: time.Since(opened)})
			return
		}
		p.setBreaker(s, BreakerOpen)
		if cool < maxCool {
			cool *= 2
		}
	}
}

// probe serves one canary request directly on s's engine (bypassing
// the admission queue — the shard is quarantined) and checks the
// result with the independent verifier, so a machine that computes
// quickly but wrongly cannot be readmitted.
func (p *EnginePool) probe(s *shard) error {
	res, err := s.eng.Run(context.Background(), Request{Op: OpRank, List: p.canary})
	if err != nil {
		return err
	}
	return verify.Ranks(p.canary, res.Ranks)
}

// sleep waits d, returning false if the pool starts closing first.
func (p *EnginePool) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-p.stop:
		return false
	}
}

// goGuarded runs fn on a background goroutine registered with the
// pool's resilience WaitGroup, unless the pool is already closed.
// Close waits for these goroutines BEFORE closing the shard queues, so
// a retry may safely enqueue (even blocking) without racing a channel
// close: the Add happens under the same lock Close takes to flip
// closed, making "registered" and "queues still open" one atomic fact.
func (p *EnginePool) goGuarded(fn func()) bool {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return false
	}
	p.resWG.Add(1)
	p.mu.RUnlock()
	go func() {
		defer p.resWG.Done()
		fn()
	}()
	return true
}

// retryable reports whether f has retry budget left: attempts
// remaining, context alive, deadline not passed.
func (p *EnginePool) retryable(f *Future) bool {
	if p.cfg.Retry.Max <= 0 || f.attempts >= p.cfg.Retry.Max {
		return false
	}
	if f.ctx.Err() != nil {
		return false
	}
	if !f.deadline.IsZero() && time.Now().After(f.deadline) {
		return false
	}
	return true
}

// backoff returns the capped, jittered delay before retry attempt k
// (1-based). The jitter is derived deterministically from the future's
// admission instant and the attempt index, so concurrent retries
// decorrelate without shared RNG state.
func (p *EnginePool) backoff(f *Future) time.Duration {
	d := p.cfg.Retry.BaseBackoff
	for k := 1; k < f.attempts && d < p.cfg.Retry.MaxBackoff; k++ {
		d *= 2
	}
	if d > p.cfg.Retry.MaxBackoff {
		d = p.cfg.Retry.MaxBackoff
	}
	h := splitmix64(uint64(f.enq.UnixNano()) + uint64(f.attempts))
	return d/2 + time.Duration(h%uint64(d)) // [d/2, 3d/2)
}

// splitmix64 is the splitmix64 finalizer — the same mixer the fault
// planner uses for deterministic schedules.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scheduleRetry moves a transiently-failed future onto the retry path:
// count the attempt, narrow a request future to its transiently failed
// items (the rest have settled and are not re-run), drop the
// (first-attempt-only) fault plans, and hand the future to a guarded
// backoff goroutine that re-enqueues it on a different shard. Returns
// false — leaving the future unresolved for the caller to fail — only
// when the pool is closing.
func (p *EnginePool) scheduleRetry(from *shard, f *Future, cause error) bool {
	f.attempts++
	if f.step != nil {
		f.step.faults = nil // injected faults model the environment, not the request
	} else {
		// A fresh slice leaves the caller's batch unwritten.
		var faulted []*BatchItem
		for _, it := range f.items {
			if pram.Transient(it.Err) {
				it.Req.Faults = nil
				faulted = append(faulted, it)
			}
		}
		f.items = faulted
	}
	from.retries.Add(1)
	p.observe(obs.Event{Kind: obs.KindRetry, Index: from.id})
	return p.goGuarded(func() { p.retry(from, f, cause) })
}

// retry waits out the backoff and re-enqueues f on a shard other than
// the one that failed it. Every exit resolves the future exactly once:
// re-enqueued (the new shard's dispatcher resolves it), context done,
// deadline passed, or pool shutdown (resolved with the original cause
// so callers see the real failure, not an artefact of Close).
func (p *EnginePool) retry(from *shard, f *Future, cause error) {
	tc := traceOf(f)
	traced := p.cfg.Observer != nil && tc.Sampled
	t0 := time.Now()
	// backedOff emits the backoff span, tagged with the attempt it was
	// buying. It lands before the future is re-enqueued, so it precedes
	// the root span that the attempt's resolution emits.
	backedOff := func(status string) {
		if traced {
			p.childSpan(tc, "retry", from.id, f.attempts, t0, time.Since(t0), status)
		}
	}
	// fail resolves f with err on a terminal retry-path exit, emitting
	// the trace's root span first for Submit futures, so a waiter that
	// reads the recorder after Wait sees the finished trace.
	fail := func(status string, err error) {
		if traced && f.step == nil {
			p.rootSpan(tc, from.id, f.attempts, f.born, time.Since(f.born), status)
		}
		f.abort(err)
	}
	t := time.NewTimer(p.backoff(f))
	defer t.Stop()
	select {
	case <-t.C:
	case <-f.ctx.Done():
		err := f.ctx.Err()
		backedOff(spanStatus(err))
		fail(spanStatus(err), err)
		return
	case <-p.stop:
		backedOff("error")
		fail("error", fmt.Errorf("engine pool: retry abandoned at shutdown: %w", cause))
		return
	}
	if !f.deadline.IsZero() && time.Now().After(f.deadline) {
		p.observe(obs.Event{Kind: obs.KindDeadline})
		from.deadlined.Add(1)
		backedOff("deadline")
		fail("deadline", fmt.Errorf("engine pool: deadline passed during retry backoff: %w", ErrDeadlineExceeded))
		return
	}
	backedOff("")
	s := p.choose(from.id)
	s.pending.Add(1)
	f.enq = time.Now()
	select {
	case s.queue <- f:
		p.observe(obs.Event{Kind: obs.KindEnqueue, N: len(s.queue)})
	case <-f.ctx.Done():
		s.pending.Add(-1)
		fail(spanStatus(f.ctx.Err()), f.ctx.Err())
	case <-p.stop:
		s.pending.Add(-1)
		fail("error", fmt.Errorf("engine pool: retry abandoned at shutdown: %w", cause))
	}
}

// choose returns the best shard for (re)placement: least-loaded, with
// a two-level preference — admitting shards (closed breaker) over
// quarantined ones, and, when avoid ≥ 0, other shards over the one
// that just failed. A fully-quarantined pool still returns a shard:
// total refusal would turn a recoverable brownout into an outage, and
// a request that fails there keeps its retry budget.
func (p *EnginePool) choose(avoid int) *shard {
	best, bestClass, bestLoad := (*shard)(nil), 5, 0
	for _, s := range p.shards {
		class := 0
		if s.brk.now() != BreakerClosed {
			class += 2
		}
		if s.id == avoid {
			class++
		}
		load := s.load()
		if best == nil || class < bestClass || (class == bestClass && load < bestLoad) {
			best, bestClass, bestLoad = s, class, load
		}
	}
	return best
}

// KillEngine tears down engine i's warm machine, as an external fault:
// the next request on that shard pays a full rebuild (visible in
// Stats.Rebuilds). It blocks until the engine finishes its in-flight
// request — the execution model has no mid-round preemption, so this
// is the strongest kill deliverable from outside; mid-round deaths are
// modelled with Request.Faults instead. This is the chaos harness's
// kill hook; normal serving never calls it.
func (p *EnginePool) KillEngine(i int) {
	if i < 0 || i >= len(p.shards) {
		panic(fmt.Sprintf("engine pool: KillEngine(%d) with %d engines", i, len(p.shards)))
	}
	p.shards[i].eng.Invalidate()
}

// Breaker reports engine i's current breaker state (BreakerClosed when
// breakers are disabled).
func (p *EnginePool) Breaker(i int) BreakerState { return p.shards[i].brk.now() }

// newCanary builds the tiny probe list shared by every quarantine
// cycle.
func newCanary(n int) *list.List { return list.RandomList(n, canarySeed) }
