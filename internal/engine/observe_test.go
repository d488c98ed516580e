package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/obs"
)

// TestEngineObserverCollectsRequests wires a real obs.Collector into a
// single engine and checks the request-level metrics flow: latency
// histogram per op, request/failure totals, arena churn, and phase
// spans from the machine reaching the attached trace.
func TestEngineObserverCollectsRequests(t *testing.T) {
	reg := obs.NewRegistry()
	c := obs.NewCollector(reg)
	tr := obs.NewTrace()
	c.AttachTrace(tr)
	e := New(Config{Processors: 8, Observer: c})
	defer e.Close()

	l := list.RandomList(2000, 3)
	if _, err := e.Run(bg, Request{Op: OpMatching, List: l}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(bg, Request{Op: OpRank, List: l}); err != nil {
		t.Fatal(err)
	}
	// A validation failure must count as a failed request.
	if _, err := e.Run(bg, Request{Op: OpMatching, List: nil}); err == nil {
		t.Fatal("nil list accepted")
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"parlist_requests_total 3",
		"parlist_request_failures_total 1",
		`parlist_request_latency_ns_count{op="matching"}`,
		`parlist_request_latency_ns_count{op="rank"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if tr.Len() == 0 {
		t.Error("no phase spans reached the trace")
	}
	var s obs.HistSnapshot
	c.RoundWall().Snapshot(&s)
	if s.Count == 0 {
		t.Error("machine rounds did not reach the collector")
	}
}

// TestEngineObserverResultsUnchanged checks a single engine returns
// bit-identical results with and without an observer.
func TestEngineObserverResultsUnchanged(t *testing.T) {
	plain := New(Config{Processors: 8})
	defer plain.Close()
	observed := New(Config{Processors: 8, Observer: obs.NewCollector(obs.NewRegistry())})
	defer observed.Close()

	l := list.RandomList(3000, 9)
	for _, req := range []Request{
		{Op: OpMatching, List: l},
		{Op: OpRank, List: l},
		{Op: OpMatching, List: l, Algorithm: AlgoRandomized, Seed: 5},
	} {
		a, err := plain.Run(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		b, err := observed.Run(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("op %v: results diverge under observation", req.Op)
		}
	}
}

// TestPoolObserverQueueMetrics wires a collector into an EnginePool and
// checks the queue-side hooks: enqueue/dequeue wait and shed on
// overload. The collector doubles as the per-engine observer, so
// request latencies flow from the same wiring.
func TestPoolObserverQueueMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := obs.NewCollector(reg)
	pool := NewPool(PoolConfig{
		Engines: 1, QueueDepth: 1,
		Observer: c,
		Engine:   Config{Processors: 256},
	})
	defer pool.Close()

	// One slow request in service, one queued, then a shed.
	slow, err := pool.Submit(bg, Request{List: list.RandomList(1<<17, 1)})
	if err != nil {
		t.Fatal(err)
	}
	var filler *Future
	for {
		filler, err = pool.Submit(bg, Request{List: list.RandomList(128, 2)})
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		time.Sleep(100 * time.Microsecond)
	}
	for {
		if _, err := pool.Submit(bg, Request{List: list.RandomList(128, 3)}); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := slow.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := filler.Wait(bg); err != nil {
		t.Fatal(err)
	}

	var qw obs.HistSnapshot
	c.QueueWait().Snapshot(&qw)
	if qw.Count < 2 {
		t.Errorf("queue-wait observations = %d, want ≥ 2", qw.Count)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"parlist_queue_shed_total",
		"parlist_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	// The filler loop may itself have been shed a few times before the
	// queue slot opened, so assert ≥ 1 rather than an exact count.
	if strings.Contains(text, "parlist_queue_shed_total 0") {
		t.Error("shed was not observed")
	}
}
