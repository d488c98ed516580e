package engine

// This file is the serving layer: EnginePool shards requests across
// several warm engines behind a bounded admission queue. One Engine
// serializes every caller onto its single machine; a pool keeps N
// machines warm and lets N requests run truly in parallel while callers
// see a single async front door — Submit returns a Future, overload is
// shed with ErrQueueFull, and cancellation is honoured at every stage
// (admission, queue, service). See DESIGN.md "Serving layer".

import (
	"context"
	"errors"
	"fmt"
	stdbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
)

// Pool-level sentinel errors. Callers test with errors.Is; returned
// errors carry shard detail around these sentinels.
var (
	// ErrQueueFull reports that the chosen engine's admission queue was
	// at capacity when Submit tried to enqueue — the overload fast path.
	// The pool never blocks an admission: callers decide whether to
	// retry, degrade, or shed the request.
	ErrQueueFull = errors.New("admission queue full")
	// ErrPoolClosed reports a Submit against a closed pool.
	ErrPoolClosed = errors.New("engine pool closed")
)

// PoolConfig shapes an EnginePool. The zero value is usable: it yields
// GOMAXPROCS engines that split the CPUs between them, a 32-slot queue
// per engine, and no result cache.
type PoolConfig struct {
	// Engines is the number of warm engines (default GOMAXPROCS).
	Engines int
	// QueueDepth is the per-engine admission-queue capacity (default
	// 32). A Submit that finds the chosen engine's queue full fails
	// immediately with ErrQueueFull.
	QueueDepth int
	// CacheSize bounds the optional result cache in entries (0 =
	// disabled). The cache serves idempotent replay traffic: a request
	// whose key — (op, seed, n, p, algorithm, parameters) plus a
	// fingerprint of the input list — was served before returns a copy
	// of the stored result without touching an engine. Requests with a
	// fault plan are never cached.
	CacheSize int
	// Engine configures every engine in the pool (default processor
	// count, executor, worker cap, watchdog). Tracer is ignored:
	// tracers are per-machine and would interleave across shards.
	// Engine.Workers 0 gives each engine max(1, GOMAXPROCS/Engines)
	// real workers, so the engines share the CPUs instead of each
	// running a GOMAXPROCS-wide team; at one worker an engine runs its
	// kernels inline. An explicit Engine.Workers is used as given.
	Engine Config
	// Retry enables transparent retry of transient fault-class
	// failures on a different shard (zero value = disabled); see
	// RetryPolicy.
	Retry RetryPolicy
	// Breaker enables the per-engine circuit breaker and quarantine
	// state machine (zero value = disabled); see BreakerPolicy.
	Breaker BreakerPolicy
	// Observer, when non-nil, receives admission-path observations
	// (queue wait/depth, sheds, cache hits). If it also implements
	// EngineObserver and Engine.Observer is unset, it is wired into
	// every engine too, so one obs.Collector attached here instruments
	// the whole stack: pool admission, engine requests, and (when it
	// implements pram.Observer) simulator rounds and barriers. A value
	// that additionally implements ResilienceObserver receives retry,
	// breaker and deadline observations; one that implements
	// SpanObserver receives trace spans for sampled requests.
	Observer PoolObserver
}

// RequestMetrics records how one pooled request was served. Valid once
// the request's Future is done.
type RequestMetrics struct {
	// Engine is the index of the engine that served the request, or -1
	// for a cache hit (no engine involved).
	Engine int
	// QueueWait is the time between admission and the start of service.
	QueueWait time.Duration
	// Service is the engine-side service time of the final attempt
	// (zero on a cache hit).
	Service time.Duration
	// Retries is how many re-attempts the request consumed (0 = served
	// on the first try).
	Retries int
	// CacheHit reports that the result came from the result cache.
	CacheHit bool
}

// Future is the handle Submit returns: a single-assignment cell that
// resolves to the request's Result or error when service completes.
type Future struct {
	ctx  context.Context
	req  Request
	enq  time.Time
	done chan struct{}

	// born is the original admission instant. Unlike enq it survives
	// retry re-enqueues, so the traced root span covers the request's
	// whole life, backoffs included.
	born time.Time

	// deadline is the absolute budget derived from Request.Deadline at
	// admission (zero = none); attempts counts retries consumed. Both
	// are touched only by the goroutine currently responsible for the
	// future (submitter → dispatcher → retry goroutine → dispatcher), a
	// chain of happens-before edges through the queue sends.
	deadline time.Time
	attempts int

	// step marks a sharded plan-step future (shard.go): the dispatcher
	// runs the step against the request's shared shard state instead of
	// serving req, and resolves with a nil Result. Step futures never
	// touch the result cache (there is no req.List to key on).
	step *stepSpec

	// batch marks a fused-batch future (batch.go): the dispatcher runs
	// RunBatch over the items — one machine acquisition for all of them
	// — and resolves with a nil Result once every item's Err/Res is
	// populated. Batch futures never touch the result cache.
	batch *batchSpec

	res *Result
	err error
	m   RequestMetrics
}

// Done returns a channel closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the request completes or ctx is done, returning the
// request's result. The ctx passed here only bounds the wait — the
// request itself keeps running under the ctx given to Submit. An
// already-done ctx returns its error immediately and deterministically,
// even when the result is also ready (select would pick at random).
func (f *Future) Wait(ctx context.Context) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Metrics reports how the request was served. It must only be called
// after Done's channel is closed.
func (f *Future) Metrics() RequestMetrics { return f.m }

// resolve publishes the outcome and wakes waiters. Called exactly once
// (a second call panics on the closed channel — the chaos harness
// leans on that to prove no future ever double-resolves).
func (f *Future) resolve(res *Result, err error) {
	f.res, f.err = res, err
	f.m.Retries = f.attempts
	close(f.done)
}

// shard is one engine plus its private admission queue and counters.
// The counters are written only by this shard's dispatcher goroutine
// (and read by Stats), so they stay cache-local under load; pad keeps
// adjacent shards' hot fields off one cache line.
type shard struct {
	id    int
	eng   *Engine
	queue chan *Future

	// pending counts admitted-but-unfinished requests: incremented at
	// enqueue, decremented when service (or in-queue cancellation)
	// completes, so a shard reads busy from the instant a request is
	// accepted until its result resolves.
	pending     atomic.Int32
	served      atomic.Int64
	steps       atomic.Int64
	batches     atomic.Int64
	failures    atomic.Int64
	canceled    atomic.Int64
	retries     atomic.Int64
	deadlined   atomic.Int64
	queueWaitNs atomic.Int64
	serviceNs   atomic.Int64

	// brk is the shard's circuit breaker (resilience.go); inert when
	// BreakerPolicy is disabled.
	brk breaker
	_   [64]byte
}

// load is the shard's backlog for placement decisions: requests
// admitted and not yet resolved.
func (s *shard) load() int { return int(s.pending.Load()) }

// EnginePool serves requests across several warm engines. Safe for
// concurrent use. Construct with NewPool, release with Close.
//
// Dispatch is sharded by input size class: consecutive requests of the
// same size prefer the engine that last served that size, so its
// workspace arena already holds buffers of exactly the right buckets
// and the steady-state request path stays allocation-free. When the
// preferred engine is busy the request spills to the least-loaded
// engine instead of queueing behind it, so a pool of N engines serves N
// same-size requests in parallel under load.
type EnginePool struct {
	cfg    PoolConfig
	shards []*shard
	// affinity maps a size class (power-of-two bucket of the input
	// length) to the engine that last served it. Entries start spread
	// round-robin; updates are racy by design — the map is a placement
	// hint, never a correctness input.
	affinity [maxSizeClasses]atomic.Int32

	cache     *resultCache
	cacheHits atomic.Int64
	rejected  atomic.Int64

	// Resilience plumbing (resilience.go). robsv is the Observer's
	// ResilienceObserver facet, if it has one; canary is the shared
	// probe input for breaker readmission; stop wakes sleeping retry and
	// quarantine goroutines at Close; resWG counts those goroutines so
	// Close can wait them out before closing the shard queues.
	robsv  ResilienceObserver
	canary *list.List
	stop   chan struct{}
	resWG  sync.WaitGroup

	// Sharded-execution plumbing (shard.go). shobsv is the Observer's
	// ShardObserver facet, if it has one; plans caches compiled plans
	// by fan-out so repeated sharded requests reuse one immutable Plan.
	shobsv ShardObserver
	plans  sync.Map

	// spobsv is the Observer's SpanObserver facet, if it has one
	// (tracing). Every emission site gates on spobsv != nil AND the
	// request's TraceContext being sampled, so untraced and unsampled
	// traffic pays nothing.
	spobsv SpanObserver

	// mu guards closed against in-flight Submits: Submit holds the read
	// side while it enqueues, Close takes the write side before closing
	// the queues, so no send can race a close.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// maxSizeClasses covers input lengths up to 2^63 — one class per
// power-of-two bucket, mirroring the workspace arena's bucketing.
const maxSizeClasses = 64

// sizeClass buckets an input length the same way the workspace arena
// buckets scratch slices, so affinity classes and arena buckets align.
func sizeClass(n int) int {
	if n <= 0 {
		return 0
	}
	return stdbits.Len(uint(n - 1))
}

// NewPool returns a running pool of cfg.Engines warm engines. Machines
// are built lazily by each engine on its first request.
func NewPool(cfg PoolConfig) *EnginePool {
	if cfg.Engines < 1 {
		cfg.Engines = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 32
	}
	if cfg.Engine.Workers < 1 {
		cfg.Engine.Workers = max(1, runtime.GOMAXPROCS(0)/cfg.Engines)
	}
	cfg.Engine.Tracer = nil // per-machine state; meaningless across shards
	if cfg.Engine.Observer == nil {
		if eo, ok := cfg.Observer.(EngineObserver); ok {
			cfg.Engine.Observer = eo
		}
	}
	if cfg.Retry.Max > 0 {
		if cfg.Retry.BaseBackoff <= 0 {
			cfg.Retry.BaseBackoff = 200 * time.Microsecond
		}
		if cfg.Retry.MaxBackoff < cfg.Retry.BaseBackoff {
			cfg.Retry.MaxBackoff = 5 * time.Millisecond
			if cfg.Retry.MaxBackoff < cfg.Retry.BaseBackoff {
				cfg.Retry.MaxBackoff = cfg.Retry.BaseBackoff
			}
		}
	}
	if cfg.Breaker.Threshold > 0 {
		if cfg.Breaker.Cooldown <= 0 {
			cfg.Breaker.Cooldown = 5 * time.Millisecond
		}
		if cfg.Breaker.Probes < 1 {
			cfg.Breaker.Probes = 2
		}
		if cfg.Breaker.CanaryN < 1 {
			cfg.Breaker.CanaryN = 64
		}
	}
	p := &EnginePool{cfg: cfg, stop: make(chan struct{})}
	p.robsv, _ = cfg.Observer.(ResilienceObserver)
	p.shobsv, _ = cfg.Observer.(ShardObserver)
	p.spobsv, _ = cfg.Observer.(SpanObserver)
	if cfg.Breaker.Threshold > 0 {
		p.canary = newCanary(cfg.Breaker.CanaryN)
	}
	if cfg.CacheSize > 0 {
		p.cache = newResultCache(cfg.CacheSize)
	}
	p.shards = make([]*shard, cfg.Engines)
	for i := range p.shards {
		s := &shard{
			id:    i,
			eng:   New(cfg.Engine),
			queue: make(chan *Future, cfg.QueueDepth),
		}
		p.shards[i] = s
		p.wg.Add(1)
		go p.dispatch(s)
	}
	// Spread initial affinity so distinct size classes land on distinct
	// engines before any load information exists.
	for c := range p.affinity {
		p.affinity[c].Store(int32(c % cfg.Engines))
	}
	return p
}

// Engines returns the number of engines in the pool.
func (p *EnginePool) Engines() int { return len(p.shards) }

// Submit admits one request and returns its Future. Admission never
// blocks: if the chosen engine's queue is full the request is shed with
// ErrQueueFull, and a ctx that is already done fails with ctx.Err().
// The ctx travels with the request — cancellation while queued resolves
// the Future with ctx.Err() without occupying an engine.
func (p *EnginePool) Submit(ctx context.Context, req Request) (*Future, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, fmt.Errorf("engine pool: %w", ErrPoolClosed)
	}
	if p.cache != nil && req.Faults == nil {
		if key, ok := keyOf(&p.cfg.Engine, req); ok {
			if res := p.cache.get(key); res != nil {
				p.cacheHits.Add(1)
				if o := p.cfg.Observer; o != nil {
					o.CacheHitObserved()
				}
				f := &Future{done: make(chan struct{}), m: RequestMetrics{Engine: -1, CacheHit: true}}
				f.resolve(res, nil)
				if p.spobsv != nil && req.Trace.Sampled {
					now := time.Now()
					p.childSpan(req.Trace, "cache", -1, 0, now, 0, "")
					p.rootSpan(req.Trace, -1, 0, now, 0, "")
				}
				return f, nil
			}
		}
	}
	s := p.pick(req)
	f := &Future{ctx: ctx, req: req, enq: time.Now(), done: make(chan struct{})}
	f.born = f.enq
	if req.Deadline > 0 {
		f.deadline = f.enq.Add(req.Deadline)
		f.req.deadlineAt = f.deadline
	}
	s.pending.Add(1)
	select {
	case s.queue <- f:
		if o := p.cfg.Observer; o != nil {
			o.EnqueueObserved(len(s.queue))
		}
		return f, nil
	default:
		s.pending.Add(-1)
		p.rejected.Add(1)
		if o := p.cfg.Observer; o != nil {
			o.ShedObserved()
		}
		return nil, fmt.Errorf("engine pool: engine %d: %w", s.id, ErrQueueFull)
	}
}

// Do serves one request synchronously: admit (retrying queue-full with
// backpressure until ctx expires), then wait for the result. This is
// the closed-loop caller's entry point; open-loop callers use Submit
// and shed on ErrQueueFull instead.
func (p *EnginePool) Do(ctx context.Context, req Request) (*Result, error) {
	backoff := 10 * time.Microsecond
	for {
		f, err := p.Submit(ctx, req)
		if err == nil {
			return f.Wait(ctx)
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 2*time.Millisecond {
			backoff *= 2
		}
	}
}

// pick chooses the serving shard: the size class's last engine when it
// is idle and admitting (maximal arena reuse), otherwise the best
// shard by choose's class-then-load order — which routes around open
// breakers — updating the affinity hint to the choice.
func (p *EnginePool) pick(req Request) *shard {
	n := 0
	if req.List != nil {
		n = req.List.Len()
	}
	c := sizeClass(n)
	s := p.shards[int(p.affinity[c].Load())%len(p.shards)]
	if s.load() == 0 && s.brk.now() == BreakerClosed {
		return s
	}
	best := p.choose(-1)
	p.affinity[c].Store(int32(best.id))
	return best
}

// Idle reports whether some engine could start work right now: its
// breaker is closed and it has no admitted, unfinished request. It
// reads the same load and breaker signal pick routes by, so a Submit
// made while Idle is true lands on an idle engine unless a concurrent
// caller claims it first. The serving batcher flushes a pending group
// as soon as Idle is true rather than holding it for more arrivals.
func (p *EnginePool) Idle() bool {
	for _, s := range p.shards {
		if s.load() == 0 && s.brk.now() == BreakerClosed {
			return true
		}
	}
	return false
}

// dispatch is a shard's service loop: one goroutine per engine draining
// that engine's queue until Close closes it.
func (p *EnginePool) dispatch(s *shard) {
	defer p.wg.Done()
	for f := range s.queue {
		p.serve(s, f)
	}
}

// serve runs one admitted request on s's engine and resolves its
// Future. A request whose ctx expired while queued is resolved without
// touching the engine.
//
// The load counter must drop BEFORE the future resolves: a caller
// chaining Wait → Submit otherwise races the decrement, sees the shard
// still busy, and spills off its pinned engine — losing arena affinity
// for strictly serial traffic.
func (p *EnginePool) serve(s *shard, f *Future) {
	start := time.Now()
	wait := start.Sub(f.enq)
	s.queueWaitNs.Add(int64(wait))
	if o := p.cfg.Observer; o != nil {
		o.DequeueObserved(wait, len(s.queue))
	}
	f.m = RequestMetrics{Engine: s.id, QueueWait: wait}
	tc := traceOf(f)
	traced := p.spobsv != nil && tc.Sampled
	if traced {
		p.childSpan(tc, "queue", s.id, f.attempts, f.enq, wait, "")
	}
	if err := f.ctx.Err(); err != nil {
		s.canceled.Add(1)
		s.pending.Add(-1)
		if traced && f.step == nil {
			p.rootSpan(tc, s.id, f.attempts, f.born, time.Since(f.born), spanStatus(err))
		}
		f.resolve(nil, err)
		return
	}
	// A request whose budget ran out while queued is failed here without
	// touching the engine, so a backlog drains at channel speed once a
	// deadline storm passes.
	if !f.deadline.IsZero() && start.After(f.deadline) {
		s.deadlined.Add(1)
		if p.robsv != nil {
			p.robsv.DeadlineExceededObserved()
		}
		s.pending.Add(-1)
		if traced && f.step == nil {
			p.rootSpan(tc, s.id, f.attempts, f.born, time.Since(f.born), "deadline")
		}
		f.resolve(nil, fmt.Errorf("engine pool: engine %d: queued past deadline: %w", s.id, ErrDeadlineExceeded))
		return
	}
	if f.batch != nil {
		p.serveBatch(s, f, start)
		return
	}

	var res *Result
	var err error
	if f.step != nil {
		err = s.eng.runStep(f.ctx, f.step)
		s.steps.Add(1)
	} else {
		res = new(Result)
		err = s.eng.RunInto(f.ctx, f.req, res)
		s.served.Add(1)
	}
	f.m.Service = time.Since(start)
	s.serviceNs.Add(int64(f.m.Service))
	if traced {
		name := "engine"
		if f.step != nil {
			name = stepLabel(f.step.kind)
		}
		p.childSpan(tc, name, s.id, f.attempts, start, f.m.Service, spanStatus(err))
	}
	if err != nil {
		s.failures.Add(1)
		switch {
		case errors.Is(err, ErrDeadlineExceeded):
			s.deadlined.Add(1)
			if p.robsv != nil {
				p.robsv.DeadlineExceededObserved()
			}
		case pram.Transient(err):
			p.noteFault(s)
			if p.retryable(f) && p.scheduleRetry(s, f, err) {
				// The retry goroutine owns the future now; this shard is
				// done with it.
				s.pending.Add(-1)
				return
			}
		}
		s.pending.Add(-1)
		if traced && f.step == nil {
			p.rootSpan(tc, s.id, f.attempts, f.born, time.Since(f.born), spanStatus(err))
		}
		f.resolve(nil, err)
		return
	}
	p.noteOK(s)
	if f.step == nil && p.cache != nil && f.req.Faults == nil {
		if key, ok := keyOf(&p.cfg.Engine, f.req); ok {
			p.cache.put(key, cloneResult(res))
		}
	}
	s.pending.Add(-1)
	if traced && f.step == nil {
		p.rootSpan(tc, s.id, f.attempts, f.born, time.Since(f.born), "")
	}
	f.resolve(res, nil)
}

// Close drains and shuts the pool down: admission stops (further
// Submits fail with ErrPoolClosed), in-flight retry and quarantine
// goroutines are woken and waited out, already-queued requests are
// served to completion, the dispatchers exit, and every engine is
// released. Close is idempotent and safe to call concurrently with
// Submit.
//
// The ordering is load-bearing: closed flips and stop closes under the
// write lock (no new guarded goroutine can register after that), then
// resWG drains BEFORE the shard queues close — a woken retry goroutine
// may still be enqueueing, and sends on a closed channel panic.
func (p *EnginePool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	close(p.stop)
	p.mu.Unlock()
	p.resWG.Wait()
	for _, s := range p.shards {
		close(s.queue)
	}
	p.wg.Wait()
	var first error
	for _, s := range p.shards {
		if err := s.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// EngineLoad is one engine's share of a PoolStats snapshot.
type EngineLoad struct {
	// Served counts requests this engine completed (successes and
	// failures; cancellations resolved in queue are excluded).
	Served int64
	// Pending is the engine's instantaneous backlog at snapshot time:
	// requests admitted and not yet resolved — the same signal the
	// placement logic balances on. /statusz renders it as live load.
	Pending int
	// Breaker is the engine's circuit-breaker state (BreakerClosed when
	// breakers are disabled); Trips counts its closed→open transitions.
	Breaker BreakerState
	Trips   int64
	// Stats is the engine's own cumulative counters (machine rebuilds,
	// arena hit rates, simulated time/work).
	Stats Stats
}

// PoolStats is a point-in-time snapshot of a pool's cumulative
// counters. Reading it is lock-cheap: the per-shard counters are plain
// atomics and the per-engine stats come through each engine's one-slot
// mailbox, so Stats never contends with in-flight requests.
type PoolStats struct {
	// Engines is the pool size.
	Engines int
	// Requests counts requests served by an engine, successes and
	// failures alike (cache hits and shed requests are not included).
	Requests int64
	// Steps counts sharded plan steps served across all engines. A
	// K-shard request contributes its 2K+1 engine-run steps here and
	// nothing to Requests — Steps is sharded traffic's served-work
	// counter.
	Steps int64
	// Batches counts fused batches served through SubmitBatch. Each
	// batch's items are counted individually in Requests; Batches is the
	// machine-acquisition count, so Requests/Batches over a batched
	// workload is the achieved coalescing factor.
	Batches int64
	// Failures counts served requests that returned an error.
	Failures int64
	// Rejected counts Submits shed with ErrQueueFull.
	Rejected int64
	// Canceled counts requests whose context expired while queued.
	Canceled int64
	// Retries counts transient-failure re-attempts scheduled by the
	// retry layer (a request retried twice counts twice).
	Retries int64
	// DeadlineExceeded counts requests failed with ErrDeadlineExceeded —
	// while queued, mid-service, or during retry backoff.
	DeadlineExceeded int64
	// CacheHits counts requests answered from the result cache.
	CacheHits int64
	// QueueWait and Service accumulate per-request queue latency and
	// engine service time over all dequeued requests.
	QueueWait time.Duration
	Service   time.Duration
	// PerEngine breaks the load down by engine, in engine order.
	PerEngine []EngineLoad
}

// Stats returns a snapshot of the pool's cumulative counters.
func (p *EnginePool) Stats() PoolStats {
	st := PoolStats{
		Engines:   len(p.shards),
		Rejected:  p.rejected.Load(),
		CacheHits: p.cacheHits.Load(),
		PerEngine: make([]EngineLoad, len(p.shards)),
	}
	for i, s := range p.shards {
		served := s.served.Load()
		st.Requests += served
		st.Steps += s.steps.Load()
		st.Batches += s.batches.Load()
		st.Failures += s.failures.Load()
		st.Canceled += s.canceled.Load()
		st.Retries += s.retries.Load()
		st.DeadlineExceeded += s.deadlined.Load()
		st.QueueWait += time.Duration(s.queueWaitNs.Load())
		st.Service += time.Duration(s.serviceNs.Load())
		st.PerEngine[i] = EngineLoad{
			Served:  served,
			Pending: s.load(),
			Breaker: s.brk.now(),
			Trips:   s.brk.trips.Load(),
			Stats:   s.eng.Stats(),
		}
	}
	return st
}

// cacheKey identifies a request for the result cache: every field that
// influences the output, plus a fingerprint of the input arrays. Two
// requests with equal keys are bit-identical computations — all seven
// ops are deterministic functions of (inputs, parameters, seed).
type cacheKey struct {
	op       Op
	algo     Algorithm
	rank     RankScheme
	variant  partition.Variant
	n, p     int
	i, iters int
	k        int
	seed     int64
	useTable bool
	crcw     bool
	fp       uint64
}

// keyOf builds a request's cache key, reporting false for requests the
// cache must not serve (no input list to fingerprint).
func keyOf(cfg *Config, req Request) (cacheKey, bool) {
	if req.List == nil {
		return cacheKey{}, false
	}
	p := req.Processors
	if p == 0 {
		p = cfg.Processors
	}
	if p < 1 {
		p = 1
	}
	fp := fpInit
	fp = fpInts(fp, req.List.Next)
	fp = fpInt(fp, req.List.Head)
	fp = fpInts(fp, req.Values)
	fp = fpInts(fp, req.Labels)
	return cacheKey{
		op: req.Op, algo: req.Algorithm, rank: req.Rank, variant: req.Variant,
		n: req.List.Len(), p: p, i: req.I, iters: req.Iters, k: req.K,
		seed: req.Seed, useTable: req.UseTable, crcw: req.CRCW, fp: fp,
	}, true
}

// fpInit seeds the input fingerprint (an arbitrary odd constant).
const fpInit uint64 = 0x9e3779b97f4a7c15

// fpInt folds one value into a fingerprint with a splitmix64 round —
// the same mixer the fault planner uses for deterministic schedules.
func fpInt(h uint64, v int) uint64 {
	h += uint64(v) + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// fpInts folds a slice (length included) into a fingerprint.
func fpInts(h uint64, vs []int) uint64 {
	h = fpInt(h, len(vs))
	for _, v := range vs {
		h = fpInt(h, v)
	}
	return h
}

// resultCache is a bounded map of completed results with FIFO eviction.
// Entries are immutable once stored; get hands out copies so callers
// can mutate their results freely.
type resultCache struct {
	mu    sync.Mutex
	max   int
	m     map[cacheKey]*Result
	order []cacheKey
}

// newResultCache returns an empty cache bounded to max entries.
func newResultCache(max int) *resultCache {
	return &resultCache{max: max, m: make(map[cacheKey]*Result, max)}
}

// get returns a copy of the stored result for key, or nil.
func (c *resultCache) get(key cacheKey) *Result {
	c.mu.Lock()
	r := c.m[key]
	c.mu.Unlock()
	if r == nil {
		return nil
	}
	return cloneResult(r)
}

// put stores res under key (res must not be mutated afterwards),
// evicting the oldest entry when the cache is full.
func (c *resultCache) put(key cacheKey, res *Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.m[key]; !ok && len(c.order) >= c.max {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
	}
	if _, ok := c.m[key]; !ok {
		c.order = append(c.order, key)
	}
	c.m[key] = res
}

// cloneResult deep-copies a result so cached and caller-owned copies
// never alias.
func cloneResult(r *Result) *Result {
	c := *r
	c.In = append([]bool(nil), r.In...)
	c.Labels = append([]int(nil), r.Labels...)
	c.Ranks = append([]int(nil), r.Ranks...)
	c.Stats.Phases = append([]pram.PhaseStat(nil), r.Stats.Phases...)
	c.Stats.Notes = append([]string(nil), r.Stats.Notes...)
	if r.Sharding != nil {
		sh := *r.Sharding
		sh.ContractWall = append([]time.Duration(nil), r.Sharding.ContractWall...)
		c.Sharding = &sh
	}
	return &c
}
