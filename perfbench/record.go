package main

import (
	"fmt"
	"math"
	"slices"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
	"parlist/internal/server"
)

// rec is one request as the benchmark observed it.
type rec struct {
	e *entry
	// due is the intended send time (open loop) or the call time
	// (closed loop); lat runs from due to the result in hand.
	due time.Time
	lat time.Duration
	// status is the server's status code (server.StatusOK when the
	// request was served); err is non-nil for any failure, a wrong
	// result included.
	status byte
	err    error
	// class selects the layer budget parts describes; root is the
	// budget's whole, which the parts tile exactly.
	class budgetClass
	root  time.Duration
	parts [maxParts]time.Duration

	// k is the shard fan-out of an in-process call; shard its sharding
	// accounting when k > 1.
	k     int
	shard *engine.ShardStats
	// lane is the client connection or caller that sent the request.
	lane int
}

func (r *rec) ok() bool { return r.err == nil }

// budgetClass names a way of tiling a request's latency into layers.
type budgetClass int

const (
	// classWire: due → Submit → enqueue → flush → service → respond →
	// receive, from the response's server-stamped life cycle.
	classWire budgetClass = iota
	// classPool: a K=1 pool call, from its future's metrics.
	classPool
	// classSharded: a K=2 ShardedDo call, from its sharding accounting.
	classSharded
)

const maxParts = 6

var budgets = [...]struct {
	name  string
	parts []string
}{
	classWire: {"wire request", []string{"gen.late_ms", "server.wire_in_ms", "server.batch_wait_ms",
		"pool.queue_ms", "engine.service_ms", "server.wire_out_ms"}},
	classPool:    {"pool call K=1", []string{"pool.queue_ms", "engine.service_ms", "pool.hop_ms"}},
	classSharded: {"sharded call K=2", []string{"shard.contract_ms", "shard.rest_ms"}},
}

// tally counts a phase's outcomes.
type tally struct{ attempted, ok, shed, failed int }

func tallyOf(recs []rec) tally {
	t := tally{attempted: len(recs)}
	for i := range recs {
		switch r := &recs[i]; {
		case r.ok():
			t.ok++
		case r.status == server.StatusShed || r.status == server.StatusOverLimit:
			t.shed++
		default:
			t.failed++
		}
	}
	return t
}

func (t tally) String() string {
	return fmt.Sprintf("attempted %d  ok %d  shed %d  failed %d", t.attempted, t.ok, t.shed, t.failed)
}

// latencies returns the phase's latencies sorted, a failed request
// counting as slower than any success.
func latencies(recs []rec) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i := range recs {
		out[i] = recs[i].lat
		if !recs[i].ok() {
			out[i] = math.MaxInt64
		}
	}
	slices.Sort(out)
	return out
}

// tracer is the traced run's span sink. Spans are kept in memory in an
// obs.Trace and written once at exit. Each block is cut into slices of
// sliceWidth; requests due in odd slices record their spans and the
// others do not, and the process CPU sampled at every slice boundary
// prices the spans as bench.trace_overhead_pct.
type tracer struct {
	t *obs.Trace

	start time.Time
	stop  chan struct{}
	done  chan struct{}
	cpu   []time.Duration // CPU at each slice boundary of the current block
	// sliceCPU and sliceReqs accumulate CPU and requests of the
	// untraced (0) and traced (1) slices over all blocks.
	sliceCPU  [2]time.Duration
	sliceReqs [2]int
}

const sliceWidth = 500 * time.Millisecond

func newTracer() *tracer { return &tracer{t: obs.NewTrace()} }

// startBlock starts the slice-boundary CPU sampler.
func (tr *tracer) startBlock() {
	if tr == nil {
		return
	}
	tr.start = time.Now()
	tr.cpu = []time.Duration{cpuTime()}
	tr.stop, tr.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tr.done)
		for k := 1; ; k++ {
			t := time.NewTimer(time.Until(tr.start.Add(time.Duration(k) * sliceWidth)))
			select {
			case <-tr.stop:
				t.Stop()
				return
			case <-t.C:
				tr.cpu = append(tr.cpu, cpuTime())
			}
		}
	}()
}

// endBlock stops the sampler, closes the block's last slice, and
// charges the block's slices and requests to their parity.
func (tr *tracer) endBlock(recs []rec) {
	if tr == nil {
		return
	}
	close(tr.stop)
	<-tr.done
	tr.cpu = append(tr.cpu, cpuTime())
	for k := 0; k+1 < len(tr.cpu); k++ {
		tr.sliceCPU[k%2] += tr.cpu[k+1] - tr.cpu[k]
	}
	for i := range recs {
		tr.sliceReqs[tr.slice(recs[i].due)%2]++
	}
}

// slice is the index of the slice t falls in within the current block.
func (tr *tracer) slice(t time.Time) int { return int(t.Sub(tr.start) / sliceWidth) }

// on reports whether a request due at t records spans.
func (tr *tracer) on(t time.Time) bool { return tr != nil && tr.slice(t)%2 == 1 }

// spans records r's root span and its layer children.
func (tr *tracer) spans(r *rec) {
	b := budgets[r.class]
	tr.t.Span(b.name, r.e.key, r.lane, r.due, r.root)
	at := r.due
	for i, name := range b.parts {
		tr.t.Span(name, "layer", r.lane, at, r.parts[i])
		at = at.Add(r.parts[i])
	}
}

// overheadPct is the traced slices' CPU per request over the untraced
// slices', as a percentage increase.
func (tr *tracer) overheadPct() float64 {
	var per [2]float64
	for i := range per {
		if tr.sliceReqs[i] == 0 {
			return 0
		}
		per[i] = float64(tr.sliceCPU[i]) / float64(tr.sliceReqs[i])
	}
	return 100 * (per[1] - per[0]) / per[0]
}
