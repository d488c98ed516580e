package engine

import (
	"errors"
	"flag"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/obs"
	"parlist/internal/pram"
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

var updateFamilies = flag.Bool("update", false, "rewrite "+familiesPath)

// familiesPath holds the metric families, with their label keys, that a
// whole stack observed by one Collector exports.
const familiesPath = "testdata/metric_families.golden"

// TestCollectorFamilies drives one pool observed by one Collector
// through every pool and engine event — admission and shed, sampled
// spans, a worker panic, a deadline spent in the queue, a sharded
// request — and
// compares the exported families and their label keys with the
// committed list. Renaming a family or a label, or losing one a hook
// feeds, fails here.
func TestCollectorFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	c := obs.NewCollector(reg)
	rec := obs.NewSpanRecorder(obs.NewTraceSource(11), 1)
	c.AttachSpans(rec)
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 1,
		Engine:   pooledCfg(),
		Observer: c,
	})
	defer pool.Close()

	// Fill both queues until an admission is shed.
	big := list.RandomList(1<<15, 3)
	var futs []*Future
	for shed := false; !shed; {
		f, err := pool.Submit(bg, Request{Op: OpRank, List: big})
		switch {
		case err == nil:
			futs = append(futs, f)
		case errors.Is(err, ErrQueueFull):
			shed = true
		default:
			t.Fatal(err)
		}
	}
	for _, f := range futs {
		if _, err := f.Wait(bg); err != nil {
			t.Fatal(err)
		}
	}

	l := list.RandomList(1024, 13)
	_, err := pool.Do(bg, Request{List: l, Faults: panicPlan(17), Trace: rec.Source().NewContext(true)})
	var wp *pram.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("faulted request: err = %v, want a *pram.WorkerPanic", err)
	}
	if _, err := pool.Do(bg, Request{List: l, Deadline: time.Nanosecond}); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("deadline request: %v", err)
	}
	if _, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l, Trace: rec.Source().NewContext(true)}, 2); err != nil {
		t.Fatalf("sharded request: %v", err)
	}
	if rec.Stats().Spans == 0 {
		t.Error("no spans recorded")
	}

	got := strings.Join(families(t, reg), "\n") + "\n"
	if *updateFamilies {
		if err := os.WriteFile(familiesPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(familiesPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("metric families changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// families lists reg's exported families as sorted "name{keys}" lines,
// the keys sorted and a histogram's le left out.
func families(t *testing.T, reg *obs.Registry) []string {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	keys := map[string]map[string]bool{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			kinds[f[2]] = f[3]
			keys[f[2]] = map[string]bool{}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, _ := strings.Cut(line[:strings.LastIndexByte(line, ' ')], "{")
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suf); kinds[base] == "histogram" {
				name = base
			}
		}
		labels = strings.TrimSuffix(labels, "}")
		for labels != "" {
			k, rest, _ := strings.Cut(labels, `="`)
			j := 0
			for ; rest[j] != '"'; j++ {
				if rest[j] == '\\' {
					j++
				}
			}
			if k != "le" {
				keys[name][k] = true
			}
			labels = strings.TrimPrefix(rest[j+1:], ",")
		}
	}
	var out []string
	for name, ks := range keys {
		var list []string
		for k := range ks {
			list = append(list, k)
		}
		sort.Strings(list)
		out = append(out, name+"{"+strings.Join(list, ",")+"}")
	}
	sort.Strings(out)
	return out
}

// TestTracerSharedAcrossPool attaches one Tracer to a two-engine pooled
// pool served by concurrent callers: both machines record into it, and
// barrier waits reach it from their workers, so under -race this pins
// its locking. Every request is the same, so the log must hold exactly
// one single-engine request's rounds per request served.
func TestTracerSharedAcrossPool(t *testing.T) {
	l := list.RandomList(512, 5)
	req := Request{Op: OpMatching, List: l}
	var one pram.Tracer
	e := New(Config{Processors: 8, Observer: &one})
	defer e.Close()
	if _, err := e.Run(bg, req); err != nil {
		t.Fatal(err)
	}

	var tr pram.Tracer
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8, Engine: pooledCfg(), Observer: &tr})
	defer pool.Close()
	const callers, each = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := pool.Do(bg, req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(one.Entries()) == 0 {
		t.Fatal("single-engine tracer recorded nothing")
	}
	if got, want := len(tr.Entries()), callers*each*len(one.Entries()); got != want {
		t.Errorf("shared tracer holds %d entries, want %d", got, want)
	}
}
