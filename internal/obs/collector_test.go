package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCollectorFeedsRegistry(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)
	tr := NewTrace()
	c.AttachTrace(tr)

	start := time.Now()
	for _, e := range []Event{
		{Kind: KindParFor, Dur: 5 * time.Microsecond, N: 100},
		{Kind: KindBarrierWait, Index: 0, Dur: time.Microsecond},
		{Kind: KindBarrierWait, Index: 3, Dur: 2 * time.Microsecond},
		{Kind: KindPhase, Name: "partition", Start: start, Dur: 10 * time.Microsecond},
		{Kind: KindPhase, Name: "column-sort", Start: start, Dur: 20 * time.Microsecond},
		{Kind: KindRequest, Name: "matching", Dur: time.Millisecond, Bytes: 4096},
		{Kind: KindRequest, Name: "rank", Dur: 2 * time.Millisecond, Failed: true},
		{Kind: KindEnqueue, N: 3},
		{Kind: KindDequeue, Dur: 50 * time.Microsecond, N: 2},
		{Kind: KindShed},
	} {
		c.Observe(e)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"parlist_rounds_total 1",
		`parlist_barrier_worker_wait_ns_total{worker="3"} 2000`,
		`parlist_phase_wall_ns_total{phase="partition"} 10000`,
		`parlist_request_latency_ns_count{op="matching"} 1`,
		"parlist_requests_total 2",
		"parlist_request_failures_total 1",
		"parlist_arena_bytes_total 4096",
		"parlist_queue_depth 2",
		"parlist_queue_shed_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if tr.Len() != 2 {
		t.Errorf("trace spans = %d, want 2", tr.Len())
	}
	ww := c.WorkerWaitNs()
	if len(ww) != 4 || ww[0] != 1000 || ww[3] != 2000 {
		t.Errorf("WorkerWaitNs = %v", ww)
	}
}

func TestCollectorShardedMetrics(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg)

	c.Observe(Event{Kind: KindShardStep, Name: "step-contract", Index: 0, Dur: 4 * time.Microsecond, Wait: time.Microsecond})
	c.Observe(Event{Kind: KindShardStep, Name: "step-contract", Index: 1, Dur: 5 * time.Microsecond})
	c.Observe(Event{Kind: KindShardStep, Name: "step-solve", Index: 0, Dur: 2 * time.Microsecond})
	c.Observe(Event{Kind: KindShardedRequest, Index: 2, N: 3, Bytes: 96, Permille: 1250})

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"parlist_sharded_requests_total 1",
		"parlist_shard_segments_total 3",
		"parlist_exchange_bytes_total 96",
		"parlist_shard_imbalance_permille_count 1",
		`parlist_shard_step_wall_ns_count{kind="step-contract"} 2`,
		`parlist_shard_step_wall_ns_count{kind="step-solve"} 1`,
		"parlist_shard_steps_total 3",
		"parlist_shard_barrier_wait_ns_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if got := c.ExchangeBytesTotal(); got != 96 {
		t.Errorf("ExchangeBytesTotal = %d, want 96", got)
	}
}

// TestCollectorConcurrent exercises every hook from many goroutines so
// the -race CI job proves the collector is data-race free.
func TestCollectorConcurrent(t *testing.T) {
	c := NewCollector(NewRegistry())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Observe(Event{Kind: KindParFor, Dur: time.Duration(i), N: i})
				c.Observe(Event{Kind: KindBarrierWait, Index: w, Dur: time.Duration(i)})
				c.Observe(Event{Kind: KindRequest, Name: "matching", Dur: time.Duration(i), Failed: i%7 == 0, Bytes: int64(i)})
				c.Observe(Event{Kind: KindDequeue, Dur: time.Duration(i), N: i % 4})
				c.Observe(Event{Kind: KindShardStep, Name: "step-contract", Index: w, Dur: time.Duration(i), Wait: time.Duration(i)})
				c.Observe(Event{Kind: KindShardedRequest, Index: 4, N: i, Bytes: int64(32 * i), Permille: 1000})
			}
		}(w)
	}
	wg.Wait()
	var s HistSnapshot
	c.RoundWall().Snapshot(&s)
	if s.Count != 8*500 {
		t.Errorf("rounds = %d, want %d", s.Count, 8*500)
	}
}

// TestCollectorFirstCallRace races four goroutines into the first
// observation of one worker and one engine on a fresh collector, many
// times over. Each lazily created series pair must be complete the
// moment any caller can see it: a caller that finds the pair published
// must never find one half of it missing.
func TestCollectorFirstCallRace(t *testing.T) {
	const callers = 4
	for round := 0; round < 500; round++ {
		reg := NewRegistry()
		c := NewCollector(reg)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c.Observe(Event{Kind: KindBarrierWait, Index: 1, Dur: time.Microsecond})
				c.Observe(Event{Kind: KindBreaker, Index: 1, N: 1})
			}()
		}
		close(start)
		wg.Wait()
		waits := reg.Counter("parlist_barrier_worker_waits_total", "", "worker", "1").Value()
		waitNs := reg.Counter("parlist_barrier_worker_wait_ns_total", "", "worker", "1").Value()
		trips := reg.Counter("parlist_breaker_trips_total", "", "engine", "1").Value()
		if waits != callers || waitNs != callers*1000 || trips != callers {
			t.Fatalf("round %d: waits %d, wait ns %d, trips %d; want %d, %d, %d",
				round, waits, waitNs, trips, callers, callers*1000, callers)
		}
	}
}

func TestHandlerServesMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up", "liveness").Inc()
	srv := httptest.NewServer(Mux(reg))
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b strings.Builder
	if _, err := readAll(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "up 1") {
		t.Errorf("metrics payload:\n%s", b.String())
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	// The pprof index must be mounted on the same mux.
	pr, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != 200 {
		t.Errorf("pprof index status %d", pr.StatusCode)
	}
}

func TestTraceJSONShape(t *testing.T) {
	tr := NewTrace()
	base := time.Now()
	tr.Span("partition", "phase", 1, base, 5*time.Millisecond)
	tr.Span("column-sort", "phase", 1, base.Add(5*time.Millisecond), 3*time.Millisecond)
	tr.Span("walkdown1", "phase", 1, base.Add(8*time.Millisecond), time.Millisecond)

	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d, want 3", len(doc.TraceEvents))
	}
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event ph = %q, want X", e.Ph)
		}
		if e.Dur < 0 || e.TS <= 0 {
			t.Errorf("bad ts/dur: %+v", e)
		}
		names[e.Name] = true
	}
	if len(names) < 3 {
		t.Errorf("distinct span names = %d, want ≥ 3", len(names))
	}
}

// readAll copies r into b (tiny local io helper to keep imports lean).
func readAll(b *strings.Builder, r interface{ Read([]byte) (int, error) }) (int64, error) {
	buf := make([]byte, 4096)
	var n int64
	for {
		k, err := r.Read(buf)
		b.Write(buf[:k])
		n += int64(k)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}
