package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// MaxTrackedWorkers caps the per-worker barrier-wait attribution; a
// worker id at or beyond the cap still feeds the aggregate histogram,
// it just loses its dedicated imbalance counter. Far above any real
// pool in this repository (worker counts track CPU cores).
const MaxTrackedWorkers = 64

// Collector receives the wall-clock observations the producing layers
// emit and lands them in a Registry. It structurally satisfies
// pram.Observer (round wall time, per-worker barrier waits, phase
// spans), engine.EngineObserver (per-op request latency, arena churn),
// engine.PoolObserver (queue wait/depth, shed) and
// engine.SpanObserver (distributed-tracing spans, forwarded to an
// attached SpanRecorder) — one Collector can be attached at all layers
// at once, and every method is safe for concurrent use (the hot paths
// are lock-free atomics).
//
// Metric names (all durations in nanoseconds):
//
//	parlist_round_wall_ns            histogram  per synchronous PRAM round
//	parlist_rounds_total             counter
//	parlist_barrier_wait_ns          histogram  per barrier participant wait
//	parlist_barrier_worker_wait_ns_total{worker}  counter (imbalance)
//	parlist_barrier_worker_waits_total{worker}    counter
//	parlist_phase_wall_ns_total{phase}            counter
//	parlist_request_latency_ns{op}   histogram  engine service time
//	parlist_requests_total           counter
//	parlist_request_failures_total   counter
//	parlist_arena_bytes_total        counter    fresh arena allocation
//	parlist_queue_wait_ns            histogram  admission → service start
//	parlist_queue_depth              gauge      depth of the event's shard
//	parlist_queue_shed_total         counter    ErrQueueFull rejections
//	parlist_retries_total{engine}    counter    transient-failure retries
//	parlist_deadline_exceeded_total  counter    requests past their budget
//	parlist_breaker_state{engine}    gauge      0 closed, 1 open, 2 half-open
//	parlist_breaker_trips_total{engine}           counter (closed → open)
//	parlist_quarantine_ns            histogram  open → readmitted duration
//	parlist_sharded_requests_total   counter    plans served by ShardedDo
//	parlist_shard_segments_total     counter    reduced-list segments exchanged
//	parlist_exchange_bytes_total     counter    PEM-style boundary-exchange volume
//	parlist_shard_imbalance_permille histogram  contract-stage max/mean × 1000
//	parlist_shard_step_wall_ns{kind} histogram  engine service time per plan step
//	parlist_shard_steps_total        counter    plan steps observed
//	parlist_shard_barrier_wait_ns    histogram  per-step wait for its stage barrier
type Collector struct {
	reg   *Registry
	trace *Trace
	spans *SpanRecorder

	// Simulator layer.
	roundWall   *Histogram
	rounds      *Counter
	barrierWait *Histogram
	workers     [MaxTrackedWorkers]atomic.Pointer[workerCounters]
	phaseNs     sync.Map // phase name → *Counter

	// Engine layer.
	reqLat     sync.Map // op name → *Histogram
	requests   *Counter
	failures   *Counter
	arenaBytes *Counter

	// Pool layer.
	queueWait  *Histogram
	queueDepth *Gauge
	shed       *Counter

	// Resilience layer (engine.ResilienceObserver). Per-engine series
	// are lazily created like the per-worker barrier counters.
	deadlineExceeded *Counter
	quarantineNs     *Histogram
	engRetries       [MaxTrackedWorkers]atomic.Pointer[Counter]
	engBreakers      [MaxTrackedWorkers]atomic.Pointer[breakerSeries]

	// Sharded-execution layer (engine.ShardObserver). Step-wall series
	// are labelled by plan-step kind, lazily like phaseNs.
	shardedReqs     *Counter
	shardSegments   *Counter
	exchangeBytes   *Counter
	shardImbalance  *Histogram
	shardStepWall   sync.Map // step kind → *Histogram
	shardStepsTotal *Counter
	shardBarrier    *Histogram
}

// NewCollector returns a collector registering its metrics in reg.
func NewCollector(reg *Registry) *Collector {
	return &Collector{
		reg:         reg,
		roundWall:   reg.Histogram("parlist_round_wall_ns", "wall-clock duration of one synchronous PRAM round"),
		rounds:      reg.Counter("parlist_rounds_total", "synchronous PRAM rounds executed"),
		barrierWait: reg.Histogram("parlist_barrier_wait_ns", "per-participant wait at executor barriers"),
		requests:    reg.Counter("parlist_requests_total", "engine requests served"),
		failures:    reg.Counter("parlist_request_failures_total", "engine requests that returned an error"),
		arenaBytes:  reg.Counter("parlist_arena_bytes_total", "fresh bytes allocated by workspace arenas"),
		queueWait:   reg.Histogram("parlist_queue_wait_ns", "admission-to-service wait in the pool queue"),
		queueDepth:  reg.Gauge("parlist_queue_depth", "instantaneous depth of the event's shard queue"),
		shed:        reg.Counter("parlist_queue_shed_total", "requests shed with a full admission queue"),
		deadlineExceeded: reg.Counter("parlist_deadline_exceeded_total",
			"requests failed past their deadline budget (queued, mid-service, or in retry backoff)"),
		quarantineNs: reg.Histogram("parlist_quarantine_ns",
			"breaker open-to-readmitted duration per quarantine episode"),
		shardedReqs:   reg.Counter("parlist_sharded_requests_total", "requests served through a sharded plan"),
		shardSegments: reg.Counter("parlist_shard_segments_total", "reduced-list segments exchanged across shard boundaries"),
		exchangeBytes: reg.Counter("parlist_exchange_bytes_total",
			"PEM-style boundary-exchange volume: gathered segment records plus scattered offsets"),
		shardImbalance: reg.Histogram("parlist_shard_imbalance_permille",
			"contract-stage load imbalance per sharded request (slowest shard over mean, ×1000)"),
		shardStepsTotal: reg.Counter("parlist_shard_steps_total", "sharded plan steps executed on pool engines"),
		shardBarrier: reg.Histogram("parlist_shard_barrier_wait_ns",
			"per-step wait for its stage barrier (slowest stage sibling minus own service)"),
	}
}

// AttachTrace directs phase spans into t (nil detaches). Metrics keep
// flowing either way; the trace only adds the Perfetto span log.
func (c *Collector) AttachTrace(t *Trace) { c.trace = t }

// AttachSpans directs request-scoped distributed-tracing spans into r
// (nil detaches). Like AttachTrace this is a side channel: with no
// recorder attached SpanObserved is a nil-check no-op, so the
// zero-allocation request path is untouched. Attach before serving
// traffic — the field is not synchronized against in-flight requests.
func (c *Collector) AttachSpans(r *SpanRecorder) { c.spans = r }

// Spans returns the attached span recorder (nil when detached).
func (c *Collector) Spans() *SpanRecorder { return c.spans }

// SpanObserved implements the producers' span hook (engine.SpanObserver):
// one completed span of a sampled trace. spanID 0 asks the recorder to
// mint an id; parentID 0 marks the trace's root span and triggers its
// tail-sampling keep/drop decision. With no recorder attached the call
// is a no-op.
func (c *Collector) SpanObserved(traceHi, traceLo, spanID, parentID uint64,
	name string, shard, attempt int, start time.Time, d time.Duration, status string) {
	r := c.spans
	if r == nil {
		return
	}
	r.Record(Span{
		TraceHi: traceHi, TraceLo: traceLo, SpanID: spanID, ParentID: parentID,
		Name: name, Shard: shard, Attempt: attempt, Start: start, Dur: d, Status: status,
	})
}

// RoundObserved implements the simulator's round hook: one synchronous
// primitive took wall time for items items.
func (c *Collector) RoundObserved(wall time.Duration, items int) {
	c.roundWall.Observe(wall.Nanoseconds())
	c.rounds.Inc()
}

// workerCounters is one participant's barrier-wait counter pair. Both
// counters are built before the pair is published, so a reader that
// sees the pointer sees both.
type workerCounters struct {
	ns, n *Counter
}

// worker returns the lazily created per-worker counter pair. The fast
// path is one atomic load; creation races resolve through the
// registry's idempotent constructors, so both racers store equal pairs
// of the same instances.
func (c *Collector) worker(q int) *workerCounters {
	w := c.workers[q].Load()
	if w == nil {
		label := strconv.Itoa(q)
		w = &workerCounters{
			ns: c.reg.Counter("parlist_barrier_worker_wait_ns_total",
				"cumulative barrier wait per participant (worker 0 = coordinator)", "worker", label),
			n: c.reg.Counter("parlist_barrier_worker_waits_total",
				"barrier waits recorded per participant", "worker", label),
		}
		c.workers[q].Store(w)
	}
	return w
}

// BarrierWaitObserved implements the executor's barrier hook: one
// participant (worker 0 = coordinator) waited wall at a barrier.
func (c *Collector) BarrierWaitObserved(worker int, wall time.Duration) {
	ns := wall.Nanoseconds()
	c.barrierWait.Observe(ns)
	if worker >= 0 && worker < MaxTrackedWorkers {
		w := c.worker(worker)
		w.ns.Add(ns)
		w.n.Inc()
	}
}

// PhaseObserved implements the simulator's phase hook: the named
// accounting phase ran as one wall-clock span.
func (c *Collector) PhaseObserved(name string, start time.Time, wall time.Duration) {
	v, ok := c.phaseNs.Load(name)
	if !ok {
		v, _ = c.phaseNs.LoadOrStore(name,
			c.reg.Counter("parlist_phase_wall_ns_total", "cumulative wall time per algorithm phase", "phase", name))
	}
	v.(*Counter).Add(wall.Nanoseconds())
	if t := c.trace; t != nil {
		t.Span(name, "phase", 1, start, wall)
	}
}

// RequestLatency returns the request-latency histogram for one op,
// creating it on first use — the same instance RequestObserved feeds.
func (c *Collector) RequestLatency(op string) *Histogram {
	v, ok := c.reqLat.Load(op)
	if !ok {
		v, _ = c.reqLat.LoadOrStore(op,
			c.reg.Histogram("parlist_request_latency_ns", "engine-side service time per request", "op", op))
	}
	return v.(*Histogram)
}

// RequestObserved implements the engine's request hook: one request of
// the named op finished after wall, allocating arenaBytes fresh bytes
// in the workspace arena.
func (c *Collector) RequestObserved(op string, wall time.Duration, failed bool, arenaBytes uint64) {
	c.RequestLatency(op).Observe(wall.Nanoseconds())
	c.requests.Inc()
	if failed {
		c.failures.Inc()
	}
	if arenaBytes > 0 {
		c.arenaBytes.Add(int64(arenaBytes))
	}
}

// EnqueueObserved implements the pool's admission hook.
func (c *Collector) EnqueueObserved(depth int) {
	c.queueDepth.Set(int64(depth))
}

// DequeueObserved implements the pool's service-start hook: a request
// waited wait in its shard queue, which now holds depth entries.
func (c *Collector) DequeueObserved(wait time.Duration, depth int) {
	c.queueWait.Observe(wait.Nanoseconds())
	c.queueDepth.Set(int64(depth))
}

// ShedObserved implements the pool's overload hook.
func (c *Collector) ShedObserved() { c.shed.Inc() }

// RetryObserved implements the pool's resilience hook: one retry was
// scheduled after a transient failure on the given engine.
func (c *Collector) RetryObserved(engine int) {
	if engine < 0 || engine >= MaxTrackedWorkers {
		return
	}
	ctr := c.engRetries[engine].Load()
	if ctr == nil {
		ctr = c.reg.Counter("parlist_retries_total",
			"transient-failure retries scheduled, by failing engine", "engine", strconv.Itoa(engine))
		c.engRetries[engine].Store(ctr)
	}
	ctr.Inc()
}

// DeadlineExceededObserved implements the pool's resilience hook: one
// request failed past its deadline budget.
func (c *Collector) DeadlineExceededObserved() { c.deadlineExceeded.Inc() }

// breakerSeries is one engine's breaker gauge and trips counter, built
// together and published as one pointer like workerCounters.
type breakerSeries struct {
	state *Gauge
	trips *Counter
}

// BreakerStateObserved implements the pool's resilience hook: the
// engine's breaker entered the int-coded state (0 closed, 1 open, 2
// half-open). Closed→open transitions also bump the trips counter.
func (c *Collector) BreakerStateObserved(engine, state int) {
	if engine < 0 || engine >= MaxTrackedWorkers {
		return
	}
	b := c.engBreakers[engine].Load()
	if b == nil {
		label := strconv.Itoa(engine)
		b = &breakerSeries{
			state: c.reg.Gauge("parlist_breaker_state",
				"circuit-breaker state per engine (0 closed, 1 open, 2 half-open)", "engine", label),
			trips: c.reg.Counter("parlist_breaker_trips_total",
				"closed-to-open breaker transitions per engine", "engine", label),
		}
		c.engBreakers[engine].Store(b)
	}
	b.state.Set(int64(state))
	if state == 1 {
		b.trips.Inc()
	}
}

// QuarantineObserved implements the pool's resilience hook: the engine
// was readmitted d after its breaker opened.
func (c *Collector) QuarantineObserved(engine int, d time.Duration) {
	c.quarantineNs.Observe(d.Nanoseconds())
}

// QueueWait returns the pool queue-wait histogram.
func (c *Collector) QueueWait() *Histogram { return c.queueWait }

// BarrierWait returns the aggregate barrier-wait histogram.
func (c *Collector) BarrierWait() *Histogram { return c.barrierWait }

// RoundWall returns the per-round wall-time histogram.
func (c *Collector) RoundWall() *Histogram { return c.roundWall }

// ShardedRequestObserved implements the pool's sharded-plan hook: one
// ShardedDo request completed with the given fan-out, reduced-list
// segment count, boundary-exchange volume and contract-stage imbalance
// (slowest shard over mean shard wall, ×1000).
func (c *Collector) ShardedRequestObserved(shards, segments int, exchangeBytes, imbalancePermille int64) {
	c.shardedReqs.Inc()
	c.shardSegments.Add(int64(segments))
	c.exchangeBytes.Add(exchangeBytes)
	c.shardImbalance.Observe(imbalancePermille)
}

// ShardStepObserved implements the pool's per-step hook: one plan step
// of the given kind ran on an engine for wall of service time, then
// waited barrierWait for the slowest step of its stage.
func (c *Collector) ShardStepObserved(kind string, shard int, wall, barrierWait time.Duration) {
	v, ok := c.shardStepWall.Load(kind)
	if !ok {
		v, _ = c.shardStepWall.LoadOrStore(kind,
			c.reg.Histogram("parlist_shard_step_wall_ns", "engine service time per sharded plan step", "kind", kind))
	}
	v.(*Histogram).Observe(wall.Nanoseconds())
	c.shardStepsTotal.Inc()
	c.shardBarrier.Observe(barrierWait.Nanoseconds())
}

// ExchangeBytesTotal reports the cumulative boundary-exchange volume —
// the raw material of E20's volume-versus-bound measurements.
func (c *Collector) ExchangeBytesTotal() int64 { return c.exchangeBytes.Value() }

// WorkerWaitNs reports the cumulative barrier-wait nanoseconds per
// tracked participant, trimmed to the highest participant seen —
// the raw material of E17's imbalance measurements.
func (c *Collector) WorkerWaitNs() []int64 {
	out := make([]int64, 0, MaxTrackedWorkers)
	last := -1
	for q := 0; q < MaxTrackedWorkers; q++ {
		if w := c.workers[q].Load(); w != nil {
			for len(out) < q {
				out = append(out, 0)
			}
			out = append(out, w.ns.Value())
			last = q
		}
	}
	return out[:last+1]
}
