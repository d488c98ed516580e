package engine

// Tests for trace-span emission (span.go): the Submit and sharded span
// tree shapes, fault status tags, the stats bit-identity invariant,
// and the zero-cost guarantee when no span collector is attached.

import (
	"reflect"
	"strings"
	"testing"

	"parlist/internal/list"
	"parlist/internal/obs"
	"parlist/internal/pram"
)

// spanPool builds a pool observed by a real collector with a span
// recorder attached — the production tracing wiring.
func spanPool(t *testing.T, cfg PoolConfig) (*EnginePool, *obs.SpanRecorder) {
	t.Helper()
	c := obs.NewCollector(obs.NewRegistry())
	rec := obs.NewSpanRecorder(obs.NewTraceSource(7), 1)
	c.AttachSpans(rec)
	cfg.Observer = c
	pool := NewPool(cfg)
	t.Cleanup(func() { pool.Close() })
	return pool, rec
}

// spansOf returns the kept spans belonging to tc's trace.
func spansOf(rec *obs.SpanRecorder, tc obs.TraceContext) []obs.Span {
	var out []obs.Span
	for _, s := range rec.Spans() {
		if s.TraceHi == tc.TraceHi && s.TraceLo == tc.TraceLo {
			out = append(out, s)
		}
	}
	return out
}

// TestShardedSpanTree pins the span tree a sharded request emits: one
// "request" root carrying the context's span id, exactly 2K+1 step
// spans (K contracts, 1 solve, K expands) parented onto the root, one
// exchange span, and a queue span per step — a flat tree keyed by one
// trace id, retrievable from the recorder the moment ShardedDo returns.
func TestShardedSpanTree(t *testing.T) {
	pool, rec := spanPool(t, PoolConfig{Engines: 2, QueueDepth: 16, Engine: pooledCfg()})

	l := list.RandomList(2048, 31)
	const k = 4
	tc := rec.Source().NewContext(true)
	if _, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l, Trace: tc}, k); err != nil {
		t.Fatal(err)
	}

	spans := spansOf(rec, tc)
	var roots, steps, queues, exchanges int
	for _, s := range spans {
		if s.ParentID == 0 {
			roots++
			if s.SpanID != tc.SpanID {
				t.Errorf("root span id = %x, want the context's %x", s.SpanID, tc.SpanID)
			}
			if s.Name != "request" || s.Status != "" {
				t.Errorf("root = %q status %q, want \"request\" status \"\"", s.Name, s.Status)
			}
			continue
		}
		if s.ParentID != tc.SpanID {
			t.Errorf("span %q parented to %x, want the root %x", s.Name, s.ParentID, tc.SpanID)
		}
		switch {
		case strings.HasPrefix(s.Name, "step-"):
			steps++
		case s.Name == "queue":
			queues++
		case s.Name == "exchange":
			exchanges++
		default:
			t.Errorf("unexpected span %q in sharded trace", s.Name)
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d, want 1", roots)
	}
	if steps != 2*k+1 {
		t.Errorf("step spans = %d, want 2K+1 = %d", steps, 2*k+1)
	}
	if queues != 2*k+1 {
		t.Errorf("queue spans = %d, want one per step = %d", queues, 2*k+1)
	}
	if exchanges != 1 {
		t.Errorf("exchange spans = %d, want 1", exchanges)
	}
}

// TestShardedSpanTreeFault injects a worker panic into one contract
// step: the request fails, and both the failed step's span and the
// root keep the transient status, so the trace is kept and shows where
// the fault struck.
func TestShardedSpanTreeFault(t *testing.T) {
	pool, rec := spanPool(t, PoolConfig{Engines: 2, QueueDepth: 16, Engine: pooledCfg()})

	l := list.RandomList(2048, 31)
	const k = 4
	tc := rec.Source().NewContext(true)
	faults := &pram.FaultPlan{Seed: 5, PanicAt: []pram.FaultPoint{{Round: 2, Worker: 1}}}
	if _, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l, Trace: tc, Faults: faults}, k); !pram.Transient(err) {
		t.Fatalf("sharded request with a faulted step: err = %v, want a transient failure", err)
	}

	var roots, transient int
	for _, s := range spansOf(rec, tc) {
		switch {
		case s.ParentID == 0:
			roots++
			if s.Status != "transient" {
				t.Errorf("root status = %q, want \"transient\"", s.Status)
			}
		case strings.HasPrefix(s.Name, "step-") && s.Status == "transient":
			transient++
		}
	}
	if roots != 1 {
		t.Errorf("roots = %d, want 1", roots)
	}
	if transient != 1 {
		t.Errorf("transient step spans = %d, want 1 (the faulted contract step)", transient)
	}
}

// TestSubmitSpanTree pins the spans a sampled Submit emits: a
// "request" root carrying the context's span id, with one queue and
// one engine span parented onto it. A faulted request's engine span
// and root carry the transient status.
func TestSubmitSpanTree(t *testing.T) {
	pool, rec := spanPool(t, PoolConfig{Engines: 2, QueueDepth: 16, Engine: pooledCfg()})
	l := list.RandomList(2048, 31)

	type key struct {
		name   string
		status string
	}
	tree := func(faults *pram.FaultPlan) map[key]int {
		tc := rec.Source().NewContext(true)
		if _, err := pool.Do(bg, Request{List: l, Trace: tc, Faults: faults}); (err != nil) != (faults != nil) {
			t.Fatalf("faults %v: err = %v", faults != nil, err)
		}
		got := map[key]int{}
		for _, s := range spansOf(rec, tc) {
			if s.ParentID == 0 && s.SpanID != tc.SpanID {
				t.Errorf("root span id = %x, want the context's %x", s.SpanID, tc.SpanID)
			}
			if s.ParentID != 0 && s.ParentID != tc.SpanID {
				t.Errorf("span %q parented to %x, want the root %x", s.Name, s.ParentID, tc.SpanID)
			}
			got[key{s.Name, s.Status}]++
		}
		return got
	}

	want := map[key]int{{"request", ""}: 1, {"queue", ""}: 1, {"engine", ""}: 1}
	if got := tree(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("fault-free spans = %v, want %v", got, want)
	}
	want = map[key]int{{"request", "transient"}: 1, {"queue", ""}: 1, {"engine", "transient"}: 1}
	if got := tree(panicPlan(7)); !reflect.DeepEqual(got, want) {
		t.Errorf("faulted spans = %v, want %v", got, want)
	}
}

// TestStatsIdenticalWithTracing is the bit-identity invariant: the same
// request sequence yields the same pool statistics and results whether
// every request is traced or none is.
func TestStatsIdenticalWithTracing(t *testing.T) {
	run := func(traced bool) (PoolStats, []int) {
		pool, rec := spanPool(t, PoolConfig{Engines: 2, QueueDepth: 16,
			Engine: Config{Processors: 8},
		})
		l := list.RandomList(1500, 9)
		var lastRanks []int
		for i := 0; i < 12; i++ {
			req := Request{Op: OpRank, List: l}
			if traced {
				req.Trace = rec.Source().NewContext(true)
			}
			res, err := pool.Do(bg, req)
			if err != nil {
				t.Fatal(err)
			}
			lastRanks = res.Ranks
		}
		return pool.Stats(), lastRanks
	}

	offStats, offRanks := run(false)
	onStats, onRanks := run(true)

	type agg struct {
		requests, steps, batches, failures    int64
		rejected, canceled, retries, deadline int64
	}
	reduce := func(st PoolStats) agg {
		return agg{st.Requests, st.Steps, st.Batches, st.Failures,
			st.Rejected, st.Canceled, st.Retries, st.DeadlineExceeded}
	}
	if reduce(offStats) != reduce(onStats) {
		t.Errorf("pool stats diverge under tracing:\n off %+v\n on  %+v",
			reduce(offStats), reduce(onStats))
	}
	for i := range offRanks {
		if offRanks[i] != onRanks[i] {
			t.Fatalf("results diverge under tracing at %d: %d vs %d", i, offRanks[i], onRanks[i])
		}
	}
}

// TestTraceDetachedZeroAlloc is the zero-cost guarantee: with no span
// collector attached, carrying a sampled trace context adds not one
// allocation to the steady-state request path — traced and untraced
// requests cost exactly the same.
func TestTraceDetachedZeroAlloc(t *testing.T) {
	eng := New(Config{Processors: 8})
	defer eng.Close()
	l := list.RandomList(4096, 5)
	tc := obs.NewTraceSource(3).NewContext(true)
	var res Result
	run := func() {
		if err := eng.RunInto(bg, Request{List: l, Trace: tc}, &res); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm free lists, result capacity, stats buffers
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("steady-state allocs/request with sampled trace = %v, want 0", avg)
	}

	// The pool layer likewise: same allocation count per Do with and
	// without a sampled context when the pool has no observer.
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 8, Engine: Config{Processors: 8}})
	defer pool.Close()
	doReq := func(trace obs.TraceContext) func() {
		return func() {
			if _, err := pool.Do(bg, Request{Op: OpRank, List: l, Trace: trace}); err != nil {
				t.Fatal(err)
			}
		}
	}
	plain, traced := doReq(obs.TraceContext{}), doReq(tc)
	plain()
	traced()
	a, b := testing.AllocsPerRun(20, plain), testing.AllocsPerRun(20, traced)
	if a != b {
		t.Errorf("pool Do allocs: untraced %v, traced %v — tracing must be free without a collector", a, b)
	}
}
