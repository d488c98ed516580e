package engine

import "time"

// EngineObserver receives wall-clock observations from an Engine: one
// call per served request, after the machine has finished. The
// interface uses only basic types so implementations
// (internal/obs.Collector) need not import engine; the same value can
// also implement pram.Observer, in which case the engine attaches it to
// its machine too (see Config.Observer).
//
// Observation is a side channel: with a nil observer the request path
// is untouched (TestEngineSteadyStateZeroAlloc still pins 0 allocs/op),
// and with one attached, the served results and their simulated Stats
// are bit-identical.
type EngineObserver interface {
	// RequestObserved reports one request: the op name (Op.String), the
	// engine-side wall time (validation through result copy-out, queue
	// wait excluded), whether it failed, and how many fresh bytes the
	// workspace arena had to allocate for it (0 in steady state).
	RequestObserved(op string, wall time.Duration, failed bool, arenaBytes uint64)
}

// PoolObserver receives admission-path observations from an EnginePool.
// Like EngineObserver it is declared over basic types so one collector
// value can satisfy every observation interface at once. Methods are
// called concurrently from submitters and shard dispatchers.
type PoolObserver interface {
	// EnqueueObserved reports a successful admission; depth is the
	// chosen shard's queue depth just after the enqueue.
	EnqueueObserved(depth int)
	// DequeueObserved reports a request entering service (or resolving
	// a queued cancellation): wait is admission → dequeue, depth the
	// shard's remaining queue depth.
	DequeueObserved(wait time.Duration, depth int)
	// ShedObserved reports a Submit rejected with ErrQueueFull.
	ShedObserved()
}

// ShardObserver receives sharded-execution observations from an
// EnginePool whose PoolObserver also implements it (ShardedDo's
// exchange-volume and balance accounting). Like the others it is a
// separate interface over basic types only, so existing observers keep
// compiling. Methods are called from the coordinating goroutine of each
// sharded request, concurrently across requests.
type ShardObserver interface {
	// ShardedRequestObserved reports one completed sharded request: its
	// shard fan-out, the reduced inter-shard list's length, the
	// PEM-style exchange volume in bytes, and the contract-stage
	// imbalance (slowest shard over mean shard wall time, in permille;
	// 1000 = perfectly balanced).
	ShardedRequestObserved(shards, segments int, exchangeBytes, imbalancePermille int64)
	// ShardStepObserved reports one engine-run plan step: its kind
	// label ("step-contract", "step-solve", "step-expand"), owning
	// shard index, wall time, and how long it then waited at the stage
	// barrier for the stage's slowest step.
	ShardStepObserved(kind string, shard int, wall, barrierWait time.Duration)
}

// SpanObserver receives trace-span observations from an EnginePool
// whose PoolObserver also implements it. Spans are emitted only for
// requests whose TraceContext is sampled, so an attached observer that
// implements SpanObserver costs nothing on unsampled traffic; with no
// observer (or one that does not implement this interface) the request
// path is bit-for-bit the untraced one. Like the other observation
// interfaces it is declared over basic types only. Methods are called
// concurrently from dispatchers, retry goroutines and sharded-request
// coordinators.
type SpanObserver interface {
	// SpanObserved reports one completed span. traceHi/traceLo are the
	// 128-bit trace id halves; spanID is the span's id (0 = let the
	// recorder mint one) and parentID its parent's (0 = root span).
	// name is the span's stage ("request", "queue", "engine",
	// "step-contract", …), shard the owning shard/engine index (-1 =
	// none), attempt the retry attempt the span belongs to, start/d its
	// wall-clock extent, and status "" for success or a short failure
	// class ("error", "transient", "deadline", "shed", "canceled").
	SpanObserved(traceHi, traceLo, spanID, parentID uint64,
		name string, shard, attempt int,
		start time.Time, d time.Duration, status string)
}

// ResilienceObserver receives resilience-layer observations from an
// EnginePool whose PoolObserver also implements it. It is a separate
// interface — not new methods on PoolObserver — so existing observers
// keep compiling; like the others it is declared over basic types only.
// Methods are called concurrently from dispatchers and the retry and
// quarantine goroutines.
type ResilienceObserver interface {
	// RetryObserved reports one retry scheduled after a transient
	// failure on the given engine.
	RetryObserved(engine int)
	// DeadlineExceededObserved reports a request failed with
	// ErrDeadlineExceeded (queued, mid-service, or in retry backoff).
	DeadlineExceededObserved()
	// BreakerStateObserved reports engine's breaker entering state
	// (int-coded BreakerState: 0 closed, 1 open, 2 half-open).
	BreakerStateObserved(engine, state int)
	// QuarantineObserved reports engine's readmission after quarantine,
	// with the total open → closed duration.
	QuarantineObserved(engine int, d time.Duration)
}
