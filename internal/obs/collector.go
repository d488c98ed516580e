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

// Collector is the Observer that lands the event stream in a
// Registry: each event kind feeds the metric families below, phase
// events also reach an attached Trace, and span events an attached
// SpanRecorder. One Collector can observe a whole pool — its engines
// and their machines — at once, and it is safe for concurrent use (the
// hot paths are lock-free atomics).
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

	// Resilience layer. Per-engine series are lazily created like the
	// per-worker barrier counters.
	deadlineExceeded *Counter
	quarantineNs     *Histogram
	engRetries       [MaxTrackedWorkers]atomic.Pointer[Counter]
	engBreakers      [MaxTrackedWorkers]atomic.Pointer[breakerSeries]

	// Sharded-execution layer. Step-wall series are labelled by
	// plan-step kind, lazily like phaseNs.
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
// recorder attached span events are dropped, so the zero-allocation
// request path is untouched. Attach before serving traffic — the field
// is not synchronized against in-flight requests.
func (c *Collector) AttachSpans(r *SpanRecorder) { c.spans = r }

// Observe implements Observer: it lands each event kind in the metric
// families that kind feeds. Charge events feed none.
func (c *Collector) Observe(e Event) {
	switch e.Kind {
	case KindParFor, KindProc:
		c.roundWall.Observe(e.Dur.Nanoseconds())
		c.rounds.Inc()
	case KindBarrierWait:
		c.BarrierWaitObserved(e.Index, e.Dur)
	case KindPhase:
		v, ok := c.phaseNs.Load(e.Name)
		if !ok {
			v, _ = c.phaseNs.LoadOrStore(e.Name,
				c.reg.Counter("parlist_phase_wall_ns_total", "cumulative wall time per algorithm phase", "phase", e.Name))
		}
		v.(*Counter).Add(e.Dur.Nanoseconds())
		if t := c.trace; t != nil {
			t.Span(e.Name, "phase", 1, e.Start, e.Dur)
		}
	case KindRequest:
		c.RequestLatency(e.Name).Observe(e.Dur.Nanoseconds())
		c.requests.Inc()
		if e.Failed {
			c.failures.Inc()
		}
		if e.Bytes > 0 {
			c.arenaBytes.Add(e.Bytes)
		}
	case KindEnqueue:
		c.queueDepth.Set(int64(e.N))
	case KindDequeue:
		c.queueWait.Observe(e.Dur.Nanoseconds())
		c.queueDepth.Set(int64(e.N))
	case KindShed:
		c.shed.Inc()
	case KindRetry:
		if e.Index >= 0 && e.Index < MaxTrackedWorkers {
			c.retries(e.Index).Inc()
		}
	case KindDeadline:
		c.deadlineExceeded.Inc()
	case KindBreaker:
		if e.Index >= 0 && e.Index < MaxTrackedWorkers {
			b := c.breaker(e.Index)
			b.state.Set(int64(e.N))
			if e.N == 1 { // entering open
				b.trips.Inc()
			}
		}
	case KindQuarantine:
		c.quarantineNs.Observe(e.Dur.Nanoseconds())
	case KindShardedRequest:
		c.shardedReqs.Inc()
		c.shardSegments.Add(int64(e.N))
		c.exchangeBytes.Add(e.Bytes)
		c.shardImbalance.Observe(e.Permille)
	case KindShardStep:
		v, ok := c.shardStepWall.Load(e.Name)
		if !ok {
			v, _ = c.shardStepWall.LoadOrStore(e.Name,
				c.reg.Histogram("parlist_shard_step_wall_ns", "engine service time per sharded plan step", "kind", e.Name))
		}
		v.(*Histogram).Observe(e.Dur.Nanoseconds())
		c.shardStepsTotal.Inc()
		c.shardBarrier.Observe(e.Wait.Nanoseconds())
	case KindSpan:
		if r := c.spans; r != nil {
			r.Record(e.Span)
		}
	}
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

// BarrierWaitObserved lands one KindBarrierWait event: participant
// worker (0 = coordinator) waited wall at a barrier.
func (c *Collector) BarrierWaitObserved(worker int, wall time.Duration) {
	ns := wall.Nanoseconds()
	c.barrierWait.Observe(ns)
	if worker >= 0 && worker < MaxTrackedWorkers {
		w := c.worker(worker)
		w.ns.Add(ns)
		w.n.Inc()
	}
}

// RequestLatency returns the request-latency histogram for one op,
// creating it on first use — the same instance request events feed.
func (c *Collector) RequestLatency(op string) *Histogram {
	v, ok := c.reqLat.Load(op)
	if !ok {
		v, _ = c.reqLat.LoadOrStore(op,
			c.reg.Histogram("parlist_request_latency_ns", "engine-side service time per request", "op", op))
	}
	return v.(*Histogram)
}

// retries returns engine's lazily created retry counter.
func (c *Collector) retries(engine int) *Counter {
	ctr := c.engRetries[engine].Load()
	if ctr == nil {
		ctr = c.reg.Counter("parlist_retries_total",
			"transient-failure retries scheduled, by failing engine", "engine", strconv.Itoa(engine))
		c.engRetries[engine].Store(ctr)
	}
	return ctr
}

// breakerSeries is one engine's breaker gauge and trips counter, built
// together and published as one pointer like workerCounters.
type breakerSeries struct {
	state *Gauge
	trips *Counter
}

// breaker returns engine's lazily created breaker series.
func (c *Collector) breaker(engine int) *breakerSeries {
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
	return b
}

// QueueWait returns the pool queue-wait histogram.
func (c *Collector) QueueWait() *Histogram { return c.queueWait }

// BarrierWait returns the aggregate barrier-wait histogram.
func (c *Collector) BarrierWait() *Histogram { return c.barrierWait }

// RoundWall returns the per-round wall-time histogram.
func (c *Collector) RoundWall() *Histogram { return c.roundWall }

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
