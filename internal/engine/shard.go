package engine

// This file is the pool side of sharded execution: ShardedDo compiles
// one rank/prefix request into the contract → exchange → solve → expand
// plan (internal/plan), co-schedules the plan's steps across the pool's
// warm engines stage by stage, and stitches the shards' outputs into a
// single Result that is bit-identical to a whole-request run. Steps
// ride the ordinary admission queues as step futures, so they inherit
// the full serving discipline: deadlines abort queued or mid-service
// steps, and a step that fails fails the whole request. See DESIGN.md
// "Sharded execution".

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"parlist/internal/list"
	"parlist/internal/obs"
	"parlist/internal/plan"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/ws"
)

// Sharded-execution sentinel errors, in the validation class of the
// pool's taxonomy.
var (
	// ErrBadShards reports a ShardedDo fan-out below 1.
	ErrBadShards = errors.New("bad shard count")
	// ErrShardUnsupported reports an op or scheme the sharded pipeline
	// does not cover (only OpRank contraction/wyllie and OpPrefix
	// decompose into shard-local segments).
	ErrShardUnsupported = errors.New("operation not shardable")
)

// ShardStats is one sharded request's execution accounting, attached to
// its Result.
type ShardStats struct {
	// Shards is the fan-out the plan actually ran with (the requested
	// count clamped to the list length).
	Shards int
	// Segments is the reduced inter-shard list's length: one segment
	// per next-pointer crossing a shard boundary, plus one.
	Segments int
	// ExchangeBytes is the PEM-style exchange volume: every segment's
	// gathered boundary record plus its scattered solved offset.
	ExchangeBytes int64
	// ContractWall is each shard's contract-step wall time (queue wait
	// excluded); the spread is the plan's load imbalance.
	ContractWall []time.Duration
	// Imbalance is the contract stage's slowest shard over its mean
	// shard wall time (1.0 = perfectly balanced, K = one shard did
	// everything).
	Imbalance float64
}

// planScratch recycles the coordinator-owned workspaces that back each
// sharded request's ShardState, so steady-state sharded traffic
// allocates nothing proportional to n.
var planScratch = sync.Pool{New: func() any { return ws.New() }}

// shardPlan returns the (immutable, shared) compiled plan for fan-out
// k, caching plans so repeated sharded requests do not re-allocate
// step slices.
func (p *EnginePool) shardPlan(k int) plan.Plan {
	if v, ok := p.plans.Load(k); ok {
		return v.(plan.Plan)
	}
	pl := plan.Sharded(k)
	p.plans.Store(k, pl)
	return pl
}

// ShardedDo serves one rank or prefix request by fanning it out across
// shards engine shards: the list's address space is split into
// contiguous ranges, each contracted shard-locally in parallel, the
// reduced inter-shard list is solved on one engine, and the result is
// expanded shard-locally again. The stitched output is bit-identical
// to p.Do of the same request.
//
// A fan-out of 1 (or a list too small to split) serves the whole
// request through p.Do unchanged. Ops other than OpRank (contraction
// or Wyllie scheme) and OpPrefix fail with ErrShardUnsupported — their
// algorithms are not decomposable into shard-local segments.
//
// Request.Deadline bounds the whole plan (admission to last expand),
// and Request.Faults is applied to shard 0's contract step. ShardedDo
// blocks until the plan completes, ctx is done, or a step fails; on
// any failure every in-flight step is awaited before the shared
// scratch is released back to the arena pool.
func (p *EnginePool) ShardedDo(ctx context.Context, req Request, shards int) (*Result, error) {
	if shards < 1 {
		return nil, fmt.Errorf("engine pool: %d shards: %w", shards, ErrBadShards)
	}
	if req.List == nil {
		return nil, fmt.Errorf("engine pool: sharded request: %w", ErrNilList)
	}
	if req.Processors < 0 || req.Processors > MaxProcessors {
		return nil, fmt.Errorf("engine pool: %d %w", req.Processors, ErrBadProcessors)
	}
	n := req.List.Len()
	var vals []int
	switch req.Op {
	case OpRank:
		switch req.Rank {
		case "", RankContraction, RankWyllie:
			// Ranks are unique, so shard-local contraction is
			// output-identical to either whole-request scheme.
		default:
			return nil, fmt.Errorf("engine pool: sharded rank scheme %q: %w", req.Rank, ErrShardUnsupported)
		}
	case OpPrefix:
		if len(req.Values) != n {
			return nil, fmt.Errorf("engine pool: %d values for %d nodes: %w", len(req.Values), n, ErrBadValues)
		}
		vals = req.Values
	default:
		return nil, fmt.Errorf("engine pool: sharded %v: %w", req.Op, ErrShardUnsupported)
	}
	if req.Faults != nil && p.cfg.Engine.Exec == pram.Native {
		return nil, fmt.Errorf("engine pool: sharded fault plans: %w", ErrNativeUnsupported)
	}

	k := shards
	if k > n {
		k = n
	}
	if k < 2 {
		res, err := p.Do(ctx, req)
		if res != nil {
			res.Sharding = &ShardStats{Shards: 1, Segments: 1}
		}
		return res, err
	}

	t0 := time.Now()
	traced := p.cfg.Observer != nil && req.Trace.Sampled
	var deadlineAt time.Time
	if req.Deadline > 0 {
		deadlineAt = t0.Add(req.Deadline)
	}

	pl := p.shardPlan(k)
	wsp := planScratch.Get().(*ws.Workspace)
	defer func() {
		wsp.Reset()
		planScratch.Put(wsp)
	}()
	// Steps trust the list; validate it once here, like serve does per
	// whole request.
	if err := req.List.ValidateInto(wsp.Words(list.DegreeWords(n))); err != nil {
		return nil, fmt.Errorf("engine pool: sharded request: %w", err)
	}
	st := rank.NewShardState(wsp, req.List, vals, k)

	specs := make([]stepSpec, len(pl.Steps))
	futs := make([]*Future, len(pl.Steps))
	sh := &ShardStats{Shards: k, ContractWall: make([]time.Duration, k)}
	var agg pram.Stats
	var firstErr error

stages:
	for _, stage := range pl.Stages() {
		if len(stage) == 1 && pl.Steps[stage[0]].Kind == plan.KindBoundaryExchange {
			// The gather/stitch runs inline on this goroutine — it is the
			// plan's data movement, not machine work; its cost is
			// surfaced as ExchangeBytes rather than simulated time.
			exStart := time.Now()
			rank.Exchange(st)
			sh.Segments = st.Segments
			sh.ExchangeBytes = plan.ExchangeBytes(st.Segments)
			if traced {
				p.childSpan(req.Trace, "exchange", -1, exStart, time.Since(exStart), "")
			}
			continue
		}
		for _, id := range stage {
			step := pl.Steps[id]
			specs[id] = stepSpec{
				kind:       step.Kind,
				shard:      step.Shard,
				st:         st,
				procs:      req.Processors,
				deadlineAt: deadlineAt,
				trace:      req.Trace,
			}
			if step.Kind == plan.KindReducedSolve {
				specs[id].shard = 0
			}
			if req.Faults != nil && step.Kind == plan.KindLocalContract && step.Shard == 0 {
				specs[id].faults = req.Faults
			}
			f, err := p.submitStep(ctx, id, &specs[id])
			if err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("engine pool: sharded %s step shard %d: %w", step.Kind, step.Shard, err)
				}
				break
			}
			futs[id] = f
		}
		// Wait for every submitted step of the stage, failed submissions
		// included — the shared scratch must not recycle while any engine
		// can still write it.
		var stageWall time.Duration
		for _, id := range stage {
			f := futs[id]
			if f == nil {
				continue
			}
			<-f.Done()
			if err := f.err; err != nil {
				if firstErr == nil {
					step := pl.Steps[id]
					firstErr = fmt.Errorf("engine pool: sharded %s step shard %d: %w", step.Kind, step.Shard, err)
				}
				continue
			}
			if f.m.Service > stageWall {
				stageWall = f.m.Service
			}
			agg.Work += specs[id].stats.Work
			if specs[id].kind == plan.KindLocalContract {
				sh.ContractWall[specs[id].shard] = f.m.Service
			}
		}
		if firstErr != nil {
			break stages
		}
		// Simulated time advances by the stage's slowest step: the plan's
		// stages are barriers, so steps within one stage overlap.
		var stageTime int64
		for _, id := range stage {
			if t := specs[id].stats.Time; t > stageTime {
				stageTime = t
			}
		}
		agg.Time += stageTime
		if o := p.cfg.Observer; o != nil {
			for _, id := range stage {
				o.Observe(obs.Event{Kind: obs.KindShardStep, Name: stepLabel(specs[id].kind), Index: specs[id].shard,
					Dur: futs[id].m.Service, Wait: stageWall - futs[id].m.Service})
			}
		}
	}
	if firstErr != nil {
		if traced {
			p.rootSpan(req.Trace, -1, t0, time.Since(t0), spanStatus(firstErr))
		}
		return nil, firstErr
	}

	var sum, max time.Duration
	for _, w := range sh.ContractWall {
		sum += w
		if w > max {
			max = w
		}
	}
	if sum > 0 {
		sh.Imbalance = float64(max) * float64(k) / float64(sum)
	}
	p.observe(obs.Event{Kind: obs.KindShardedRequest, Index: k, N: sh.Segments,
		Bytes: sh.ExchangeBytes, Permille: int64(sh.Imbalance * 1000)})

	if traced {
		p.rootSpan(req.Trace, -1, t0, time.Since(t0), "")
	}
	res := &Result{Op: req.Op, Stats: agg, Sharding: sh}
	res.Ranks = append(res.Ranks, st.Out[:n]...)
	return res, nil
}

// submitStep admits one plan step, spinning with backpressure on full
// queues the way Do does for whole requests — steps never shed, they
// wait (bounded by ctx, the plan deadline, and pool shutdown, which
// trySubmitStep reports as ErrPoolClosed).
func (p *EnginePool) submitStep(ctx context.Context, idx int, spec *stepSpec) (*Future, error) {
	backoff := 10 * time.Microsecond
	for {
		f, err := p.trySubmitStep(ctx, idx, spec)
		if err == nil {
			return f, nil
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, err
		}
		if !spec.deadlineAt.IsZero() && time.Now().After(spec.deadlineAt) {
			return nil, fmt.Errorf("engine pool: deadline passed awaiting step admission: %w", ErrDeadlineExceeded)
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

// trySubmitStep performs one non-blocking step admission: prefer the
// step-index-aligned shard (spreading a stage's steps across distinct
// engines), spill to the least-loaded shard when it is busy, and shed
// with ErrQueueFull when that queue is full too.
func (p *EnginePool) trySubmitStep(ctx context.Context, idx int, spec *stepSpec) (*Future, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return nil, fmt.Errorf("engine pool: %w", ErrPoolClosed)
	}
	s := p.shards[idx%len(p.shards)]
	if s.load() > 0 {
		s, _ = p.leastLoaded()
	}
	f := &Future{ctx: ctx, enq: time.Now(), done: make(chan struct{}), step: spec, deadline: spec.deadlineAt}
	s.pending.Add(1)
	select {
	case s.queue <- f:
		p.observe(obs.Event{Kind: obs.KindEnqueue, N: len(s.queue)})
		return f, nil
	default:
		s.pending.Add(-1)
		return nil, fmt.Errorf("engine pool: engine %d: %w", s.id, ErrQueueFull)
	}
}
