package engine

// Tests of failure handling (DESIGN.md "Failure handling"): a worker
// panic fails its request with the typed error and the engine rebuilds,
// deadlines abort queued or running requests, and every error lands in
// the typed taxonomy.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// panicPlan returns a fault plan that panics one worker mid-run —
// the canonical transient failure.
func panicPlan(seed int64) *pram.FaultPlan {
	return &pram.FaultPlan{Seed: seed, PanicAt: []pram.FaultPoint{{Round: 3, Worker: 1}}}
}

// pooledCfg is the engine configuration the fault tests use: a real
// worker pool, so fault plans have workers to kill.
func pooledCfg() Config {
	return Config{Processors: 8, Exec: pram.Pooled, Workers: 4}
}

// TestBatchFaultedItemFailsAlone pins fault isolation on the batch
// path: a batch item whose run dies to a worker panic fails alone with
// the typed error, its batchmates are served bit-identically to a
// fault-free run on the machine the engine rebuilds, and the caller's
// slice is left as it was.
func TestBatchFaultedItemFailsAlone(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8, Engine: pooledCfg()})
	defer pool.Close()
	eng := New(pooledCfg())
	defer eng.Close()

	l := list.RandomList(2048, 31)
	reqs := []Request{{List: l, Seed: 5}, {List: l, Seed: 7}, {Op: OpRank, List: l}}
	items := make([]*BatchItem, len(reqs))
	want := make([]*Result, len(reqs))
	for i, req := range reqs {
		var err error
		if want[i], err = eng.Run(bg, req); err != nil {
			t.Fatal(err)
		}
		items[i] = &BatchItem{Req: req}
	}
	items[1].Req.Faults = panicPlan(7)
	batch := append([]*BatchItem(nil), items...)

	served := runBatch(t, pool, bg, batch)
	for i, it := range items {
		if batch[i] != it {
			t.Errorf("batch slot %d rewritten", i)
		}
		if i == 1 {
			var wp *pram.WorkerPanic
			if !errors.As(it.Err, &wp) {
				t.Errorf("faulted item: err = %v, want a *pram.WorkerPanic", it.Err)
			}
			continue
		}
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if !reflect.DeepEqual(&it.Res, want[i]) {
			t.Errorf("item %d: result diverges from a fault-free run", i)
		}
	}
	st := pool.Stats()
	if st.Requests != 3 || st.Batches != 1 || st.Failures != 1 {
		t.Errorf("Requests/Batches/Failures = %d/%d/%d, want 3/1/1", st.Requests, st.Batches, st.Failures)
	}
	if got := st.PerEngine[served].Stats.Rebuilds; got != 1 {
		t.Errorf("serving engine Rebuilds = %d, want 1 (the item after the fault)", got)
	}
}

// TestPoolDeadlineQueued proves a request whose budget expires while
// queued fails with ErrDeadlineExceeded — distinct from ErrQueueFull
// sheds and from context cancellation — without touching an engine,
// and lands in the pool's counter and the collector's series.
func TestPoolDeadlineQueued(t *testing.T) {
	reg := obs.NewRegistry()
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 4, Engine: Config{Processors: 8},
		Observer: obs.NewCollector(reg)})
	defer pool.Close()

	f, err := pool.Submit(bg, Request{List: list.RandomList(256, 1), Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Wait(bg)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrQueueFull) || errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("deadline error aliases another class: %v", err)
	}
	st := pool.Stats()
	if st.DeadlineExceeded != 1 {
		t.Errorf("Stats.DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
	if st.Rejected != 0 {
		t.Errorf("Stats.Rejected = %d, want 0 (deadline is not a shed)", st.Rejected)
	}
	if st.Requests != 0 {
		t.Errorf("Stats.Requests = %d, want 0 (no engine touched)", st.Requests)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "parlist_deadline_exceeded_total 1") {
		t.Errorf("exposition lacks parlist_deadline_exceeded_total 1:\n%s", b.String())
	}
}

// TestPoolResilienceMetrics wires a real obs.Collector and checks the
// failure-handling series land: a worker panic counts one request and
// one request failure (it is not retried), and the rebuilt engine then
// serves the next request, which counts as a request and not a failure.
func TestPoolResilienceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 8, Engine: pooledCfg(),
		Observer: obs.NewCollector(reg)})
	defer pool.Close()

	l := list.RandomList(1024, 13)
	var wp *pram.WorkerPanic
	if _, err := pool.Do(bg, Request{List: l, Faults: panicPlan(17)}); !errors.As(err, &wp) {
		t.Fatalf("faulted request: err = %v, want a *pram.WorkerPanic", err)
	}
	if _, err := pool.Do(bg, Request{List: l}); err != nil {
		t.Fatalf("request after the fault: %v", err)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"parlist_requests_total 2",
		"parlist_request_failures_total 1",
		"parlist_deadline_exceeded_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestEngineDeadlineMidService proves the watchdog seam: a budget that
// expires while the machine is running aborts between rounds, surfaces
// as ErrDeadlineExceeded, and — unlike a fault — costs no rebuild: the
// machine stays healthy and the next request is served bit-identically.
func TestEngineDeadlineMidService(t *testing.T) {
	eng := New(pooledCfg())
	defer eng.Close()
	big := list.RandomList(1<<17, 9)

	// Warm run: machine built, arena populated, and the expected result.
	want, err := eng.Run(bg, Request{List: big})
	if err != nil {
		t.Fatal(err)
	}
	rebuildsBefore := eng.Stats().Rebuilds

	_, err = eng.Run(bg, Request{List: big, Deadline: 500 * time.Microsecond})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "aborted before round") {
		t.Errorf("deadline did not abort mid-service: %v", err)
	}

	got, err := eng.Run(bg, Request{List: big})
	if err != nil {
		t.Fatalf("post-abort request: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("post-abort result diverges")
	}
	if after := eng.Stats().Rebuilds; after != rebuildsBefore {
		t.Errorf("deadline abort cost a machine rebuild (%d → %d); must stay warm", rebuildsBefore, after)
	}
}

// TestFutureWaitCancelledContext is the regression for the Wait race: a
// context that is already done must return its error immediately — even
// when the result is simultaneously ready (the naked select picked at
// random) and even when the future will never resolve soon (a queued
// request behind a slow one). No goroutine may leak.
func TestFutureWaitCancelledContext(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 4, Engine: Config{Processors: 256}})

	cancelled, cancel := context.WithCancel(bg)
	cancel()

	// Resolved future + done context: the context error must win
	// deterministically.
	f, err := pool.Submit(bg, Request{List: list.RandomList(256, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(bg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := f.Wait(cancelled); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait with done ctx on resolved future: err = %v, want context.Canceled", err)
		}
	}

	// Unresolved future (queued behind a slow request) + done context:
	// Wait must return immediately rather than block.
	slow, err := pool.Submit(bg, Request{List: list.RandomList(1<<17, 2)})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := pool.Submit(bg, Request{List: list.RandomList(256, 3)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := queued.Wait(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait with done ctx on pending future: err = %v", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("Wait blocked %v with a done context", waited)
	}
	if _, err := slow.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutinesPool(t, before)
}

// TestPoolSubmitRacingClose hammers the shutdown edge: four callers
// submit while Close runs, every fifth request faulted. Run under
// -race. Every admitted future must resolve exactly once (Wait
// returns; a double resolve panics on the closed channel), a request
// with no fault plan must succeed, and no goroutine may outlive the
// pool.
func TestPoolSubmitRacingClose(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 16, Engine: pooledCfg()})

	l := list.RandomList(1024, 5)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				req := Request{List: l}
				if i%5 == 0 {
					req.Faults = panicPlan(int64(g*100 + i))
				}
				f, err := pool.Submit(bg, req)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrPoolClosed) {
						t.Errorf("Submit: %v", err)
					}
					continue
				}
				// Wait must return for every admitted future, whatever
				// the pool is doing; an unresolved future hangs here
				// and fails the test by timeout.
				res, err := f.Wait(bg)
				switch {
				case err == nil:
					if err := verify.MaximalMatching(l, res.In); err != nil {
						t.Errorf("resolved result invalid: %v", err)
					}
				case req.Faults == nil:
					t.Errorf("request with no fault plan failed: %v", err)
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutinesPool(t, before)
}

// TestPoolErrorTaxonomy pins the typed-error contract end to end:
// errors.Is finds the sentinel through every layer of wrapping the
// admission, validation and deadline paths apply.
func TestPoolErrorTaxonomy(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 1, Engine: Config{Processors: 4}})
	defer pool.Close()
	l := list.RandomList(64, 1)

	cases := []struct {
		name string
		err  func() error
		want error
	}{
		{"nil list", func() error {
			_, err := pool.Do(bg, Request{})
			return err
		}, ErrNilList},
		{"bad processors", func() error {
			_, err := pool.Do(bg, Request{List: l, Processors: -1})
			return err
		}, ErrBadProcessors},
		{"unknown op", func() error {
			_, err := pool.Do(bg, Request{List: l, Op: Op(99)})
			return err
		}, ErrUnknownOp},
		{"malformed list", func() error {
			_, err := pool.Do(bg, Request{List: list.New([]int{1, list.Nil, 3, 2}, 0)})
			return err
		}, ErrInvalidList},
		{"queued past deadline", func() error {
			f, err := pool.Submit(bg, Request{List: l, Deadline: time.Nanosecond})
			if err != nil {
				return err
			}
			_, err = f.Wait(bg)
			return err
		}, ErrDeadlineExceeded},
		// Sharded requests fold into the same taxonomy: validation
		// failures keep their sentinels, per-step deadline aborts
		// surface as the usual ErrDeadlineExceeded.
		{"sharded zero shards", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l}, 0)
			return err
		}, ErrBadShards},
		{"sharded nil list", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank}, 2)
			return err
		}, ErrNilList},
		{"sharded malformed list", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: list.New([]int{1, list.Nil, 3, 2}, 0)}, 2)
			return err
		}, ErrInvalidList},
		{"sharded unsupported op", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpMatching, List: l}, 2)
			return err
		}, ErrShardUnsupported},
		{"sharded past deadline", func() error {
			big := list.RandomList(1<<15, 2)
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: big, Deadline: time.Nanosecond}, 2)
			return err
		}, ErrDeadlineExceeded},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", tc.name, err, tc.want)
		}
	}

	pool.Close()
	if _, err := pool.Do(bg, Request{List: l}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("closed pool: err = %v, want ErrPoolClosed", err)
	}
}
