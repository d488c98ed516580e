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
	"parlist/internal/obs"
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
// GOMAXPROCS engines that split the CPUs between them and a 32-slot
// queue per engine.
type PoolConfig struct {
	// Engines is the number of warm engines (default GOMAXPROCS).
	Engines int
	// QueueDepth is the per-engine admission-queue capacity (default
	// 32). A Submit that finds the chosen engine's queue full fails
	// immediately with ErrQueueFull.
	QueueDepth int
	// Engine configures every engine in the pool (default processor
	// count, executor, worker cap, watchdog, observer).
	// Engine.Workers 0 gives each engine max(1, GOMAXPROCS/Engines)
	// real workers, so the engines share the CPUs instead of each
	// running a GOMAXPROCS-wide team; at one worker an engine runs its
	// kernels inline. An explicit Engine.Workers is used as given.
	Engine Config
	// Observer, when non-nil, receives the pool's events: admission
	// (enqueue, dequeue, shed), deadlines, sharded plans, and spans of
	// sampled requests. When
	// Engine.Observer is unset it is every engine's observer too, so
	// one obs.Collector attached here instruments the whole stack down
	// to the machines' rounds and barriers.
	Observer obs.Observer
}

// RequestMetrics records how one pooled request was served. Valid once
// the request's Future is done.
type RequestMetrics struct {
	// Engine is the index of the engine that served the request.
	Engine int
	// QueueWait is the time between admission and the start of service.
	QueueWait time.Duration
	// Service is the engine-side service time.
	Service time.Duration
}

// Future is the handle Submit returns: a single-assignment cell that
// resolves when service completes. Every admission is one kind of
// future: a batch of request items served by one RunBatch, of which a
// Submit is the batch of one, and a SubmitBatch one resolves by
// calling its completion. ShardedDo's plan steps are the only other
// kind.
type Future struct {
	ctx  context.Context
	enq  time.Time
	done chan struct{}
	// then is SubmitBatch's completion (nil for every other future).
	then func(engine int)

	// items is the request work: SubmitBatch's caller-owned batch, or
	// solo's one item. The caller's slice is never written.
	items []*BatchItem
	// solo holds the item Submit allocated (nil for a batch): Wait
	// returns its Res and Err, and the pool traces it. Its array backs
	// items, so a Submit allocates no slice.
	solo [1]*BatchItem

	// deadline is the absolute budget a Submit future's request armed at
	// admission (zero = none; a batch's items carry their own, checked
	// per item by the engine). The submitter writes it before the queue
	// send and the dispatcher reads it after the receive.
	deadline time.Time

	// step marks a sharded plan-step future (shard.go): the dispatcher
	// runs the step against the request's shared shard state instead of
	// serving items, and resolves with a nil Result.
	step *stepSpec

	res *Result
	err error
	m   RequestMetrics
}

// Done returns a channel closed when the result is available.
func (f *Future) Done() <-chan struct{} { return f.done }

// Wait blocks until the request completes or ctx is done, returning
// its result. The ctx passed here only bounds the wait — the request
// itself keeps running under the ctx given to Submit. An already-done
// ctx returns its error immediately and
// deterministically, even when the result is also ready (select would
// pick at random).
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

// resolve publishes the outcome and wakes waiters, or runs a batch's
// completion. Called exactly once (a second call on a Submit or step
// future panics on the closed channel — the soak test leans on that).
func (f *Future) resolve(res *Result, err error) {
	f.res, f.err = res, err
	if f.then != nil {
		f.then(f.m.Engine)
		return
	}
	close(f.done)
}

// abort resolves f with err, which every pending item takes as its
// outcome too: a context that died or a budget spent before service.
func (f *Future) abort(err error) {
	for _, it := range f.items {
		it.Err = err
	}
	f.resolve(nil, err)
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
	deadlined   atomic.Int64
	queueWaitNs atomic.Int64
	serviceNs   atomic.Int64

	_ [64]byte
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

	rejected atomic.Int64

	// plans caches compiled sharded plans by fan-out (shard.go), so
	// repeated sharded requests reuse one immutable Plan.
	plans sync.Map

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
	if cfg.Engine.Observer == nil {
		cfg.Engine.Observer = cfg.Observer
	}
	p := &EnginePool{cfg: cfg}
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

// observe sends e to the pool's observer, if it has one.
func (p *EnginePool) observe(e obs.Event) {
	if o := p.cfg.Observer; o != nil {
		o.Observe(e)
	}
}

// Engines returns the number of engines in the pool.
func (p *EnginePool) Engines() int { return len(p.shards) }

// Submit admits one request and returns its Future. Admission never
// blocks: if the chosen engine's queue is full the request is shed with
// ErrQueueFull, and a ctx that is already done fails with ctx.Err().
// The ctx travels with the request — cancellation while queued resolves
// the Future with ctx.Err() without occupying an engine. The request
// is served as a batch of one, through the same path as SubmitBatch.
func (p *EnginePool) Submit(ctx context.Context, req Request) (*Future, error) {
	f := &Future{done: make(chan struct{})}
	f.solo[0] = &BatchItem{Req: req}
	if err := p.admit(ctx, f, f.solo[:]); err != nil {
		return nil, err
	}
	return f, nil
}

// admit is the one admission path: it arms each item's deadline, picks
// the engine by the first item's size class, and enqueues f carrying
// items — or sheds it with ErrQueueFull, never blocking.
func (p *EnginePool) admit(ctx context.Context, f *Future, items []*BatchItem) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return fmt.Errorf("engine pool: %w", ErrPoolClosed)
	}
	now := time.Now()
	for _, it := range items {
		if it.Req.Deadline > 0 {
			it.Req.deadlineAt = now.Add(it.Req.Deadline)
		}
	}
	if it := f.solo[0]; it != nil {
		f.deadline = it.Req.deadlineAt
	}
	f.ctx, f.enq, f.items = ctx, now, items
	s := p.pick(items[0].Req.List)
	s.pending.Add(1)
	select {
	case s.queue <- f:
		p.observe(obs.Event{Kind: obs.KindEnqueue, N: len(s.queue)})
		return nil
	default:
		s.pending.Add(-1)
		p.rejected.Add(1)
		p.observe(obs.Event{Kind: obs.KindShed})
		return fmt.Errorf("engine pool: engine %d: %w", s.id, ErrQueueFull)
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

// pick chooses the serving shard for an input list: the size class's
// last engine when it is idle (maximal arena reuse), otherwise the
// least-loaded shard, updating the affinity hint to the choice.
func (p *EnginePool) pick(l *list.List) *shard {
	n := 0
	if l != nil {
		n = l.Len()
	}
	c := sizeClass(n)
	s := p.shards[int(p.affinity[c].Load())%len(p.shards)]
	if s.load() == 0 {
		return s
	}
	best, _ := p.leastLoaded()
	p.affinity[c].Store(int32(best.id))
	return best
}

// leastLoaded returns the shard with the smallest backlog (the first in
// engine order on a tie) and that backlog.
func (p *EnginePool) leastLoaded() (*shard, int) {
	best, bestLoad := p.shards[0], p.shards[0].load()
	for _, s := range p.shards[1:] {
		if load := s.load(); load < bestLoad {
			best, bestLoad = s, load
		}
	}
	return best, bestLoad
}

// Idle reports whether some engine could start work right now: it has
// no admitted, unfinished request. It reads the same load signal pick
// routes by, so a Submit made while Idle is true lands on an idle
// engine unless a concurrent caller claims it first. The serving
// batcher flushes a pending group as soon as Idle is true rather than
// holding it for more arrivals.
func (p *EnginePool) Idle() bool {
	_, load := p.leastLoaded()
	return load == 0
}

// dispatch is a shard's service loop: one goroutine per engine draining
// that engine's queue until Close closes it.
func (p *EnginePool) dispatch(s *shard) {
	defer p.wg.Done()
	for f := range s.queue {
		p.serve(s, f)
	}
}

// serve runs one admitted future on s's engine and resolves it. A
// future whose ctx expired, or whose budget ran out, while queued is
// resolved without touching the engine. Otherwise a step future runs
// its plan step, and every other future runs its items as one batch.
//
// The load counter must drop BEFORE the future resolves: a caller
// chaining Wait → Submit otherwise races the decrement, sees the shard
// still busy, and spills off its pinned engine — losing arena affinity
// for strictly serial traffic — and a batch's completion would find
// no idle engine for the serving batcher's held groups.
func (p *EnginePool) serve(s *shard, f *Future) {
	start := time.Now()
	wait := start.Sub(f.enq)
	s.queueWaitNs.Add(int64(wait))
	p.observe(obs.Event{Kind: obs.KindDequeue, Dur: wait, N: len(s.queue)})
	f.m = RequestMetrics{Engine: s.id, QueueWait: wait}
	tc := traceOf(f)
	traced := p.cfg.Observer != nil && tc.Sampled
	if traced {
		p.childSpan(tc, "queue", s.id, f.enq, wait, "")
	}
	if err := f.ctx.Err(); err != nil {
		s.canceled.Add(1)
		s.pending.Add(-1)
		if traced && f.step == nil {
			p.rootSpan(tc, s.id, f.enq, time.Since(f.enq), spanStatus(err))
		}
		f.abort(err)
		return
	}
	// A request whose budget ran out while queued is failed here without
	// touching the engine, so a backlog drains at channel speed once a
	// deadline storm passes.
	if !f.deadline.IsZero() && start.After(f.deadline) {
		s.deadlined.Add(1)
		p.observe(obs.Event{Kind: obs.KindDeadline})
		s.pending.Add(-1)
		if traced && f.step == nil {
			p.rootSpan(tc, s.id, f.enq, time.Since(f.enq), "deadline")
		}
		f.abort(fmt.Errorf("engine pool: engine %d: queued past deadline: %w", s.id, ErrDeadlineExceeded))
		return
	}

	var res *Result
	var err error
	if f.step != nil {
		err = s.eng.runStep(f.ctx, f.step)
		s.steps.Add(1)
		p.tally(s, err)
	} else {
		if err = s.eng.RunBatch(f.ctx, f.items); err != nil {
			for _, it := range f.items {
				it.Err = err // the machine was never acquired
			}
		}
		s.served.Add(int64(len(f.items)))
		s.batches.Add(1)
		for _, it := range f.items {
			p.tally(s, it.Err)
		}
		if it := f.solo[0]; it != nil {
			if err = it.Err; err == nil {
				res = &it.Res
			}
		}
	}
	f.m.Service = time.Since(start)
	s.serviceNs.Add(int64(f.m.Service))
	if traced {
		name := "engine"
		if f.step != nil {
			name = stepLabel(f.step.kind)
		}
		p.childSpan(tc, name, s.id, start, f.m.Service, spanStatus(err))
	}
	s.pending.Add(-1)
	if traced && f.step == nil {
		p.rootSpan(tc, s.id, f.enq, time.Since(f.enq), spanStatus(err))
	}
	f.resolve(res, err)
}

// tally counts one served outcome into s's failure counters.
func (p *EnginePool) tally(s *shard, err error) {
	if err == nil {
		return
	}
	s.failures.Add(1)
	if errors.Is(err, ErrDeadlineExceeded) {
		s.deadlined.Add(1)
		p.observe(obs.Event{Kind: obs.KindDeadline})
	}
}

// Close drains and shuts the pool down: admission stops (further
// Submits fail with ErrPoolClosed), already-queued requests are served
// to completion, the dispatchers exit, and every engine is released.
// Close is idempotent and safe to call concurrently with Submit: closed
// flips under the write lock, and every admission sends while holding
// the read lock, so no send can race the queues' close.
func (p *EnginePool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
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
	// failures alike (shed requests are not included).
	Requests int64
	// Steps counts sharded plan steps served across all engines. A
	// K-shard request contributes its 2K+1 engine-run steps here and
	// nothing to Requests — Steps is sharded traffic's served-work
	// counter.
	Steps int64
	// Batches counts machine acquisitions for requests: one per served
	// future, a SubmitBatch batch or a Submit (a batch of one). Each
	// item counts individually in Requests, so Requests/Batches is the
	// achieved coalescing factor (1 for Submit-only traffic).
	Batches int64
	// Failures counts served requests that returned an error.
	Failures int64
	// Rejected counts Submits shed with ErrQueueFull.
	Rejected int64
	// Canceled counts requests whose context expired while queued.
	Canceled int64
	// Retries always reads 0: the pool never retries a request. It stays
	// only because perfbench's layers.go reads it for pool.retries; a
	// change to the benchmark will delete both.
	Retries int64
	// DeadlineExceeded counts requests failed with ErrDeadlineExceeded,
	// while queued or mid-service.
	DeadlineExceeded int64
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
		PerEngine: make([]EngineLoad, len(p.shards)),
	}
	for i, s := range p.shards {
		served := s.served.Load()
		st.Requests += served
		st.Steps += s.steps.Load()
		st.Batches += s.batches.Load()
		st.Failures += s.failures.Load()
		st.Canceled += s.canceled.Load()
		st.DeadlineExceeded += s.deadlined.Load()
		st.QueueWait += time.Duration(s.queueWaitNs.Load())
		st.Service += time.Duration(s.serviceNs.Load())
		st.PerEngine[i] = EngineLoad{
			Served:  served,
			Pending: s.load(),
			Stats:   s.eng.Stats(),
		}
	}
	return st
}
