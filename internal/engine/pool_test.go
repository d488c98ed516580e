package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// waitGoroutinesPool polls until the process goroutine count drops back
// to at most want (dispatchers and pool workers exit asynchronously
// after Close).
func waitGoroutinesPool(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), want, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolMatchesSingleEngine is the pool's compatibility contract:
// for every op, a pooled request is bit-identical to the same request
// served by a plain single Engine with the same (seed, n, p).
func TestPoolMatchesSingleEngine(t *testing.T) {
	cfg := Config{Processors: 8}
	pool := NewPool(PoolConfig{Engines: 3, Engine: cfg})
	defer pool.Close()
	eng := New(cfg)
	defer eng.Close()

	l := list.RandomList(1500, 11)
	n := l.Len()
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i % 5
	}
	m := pram.New(8)
	lab, k := matching.PartitionIterated(m, l, nil, 3)
	m.Close()

	reqs := []Request{
		{Op: OpMatching, List: l, Seed: 9},
		{Op: OpMatching, List: l, Algorithm: AlgoRandomized, Seed: 9},
		{Op: OpPartition, List: l, Iters: 2},
		{Op: OpThreeColor, List: l},
		{Op: OpMIS, List: l},
		{Op: OpRank, List: l, Rank: RankWyllie},
		{Op: OpPrefix, List: l, Values: vals},
		{Op: OpSchedule, List: l, Labels: lab, K: k},
	}
	for _, req := range reqs {
		want, err := eng.Run(bg, req)
		if err != nil {
			t.Fatalf("%v: engine: %v", req.Op, err)
		}
		got, err := pool.Do(bg, req)
		if err != nil {
			t.Fatalf("%v: pool: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: pool result diverges from single engine", req.Op)
		}
	}
	if st := pool.Stats(); st.Requests != int64(len(reqs)) || st.Failures != 0 {
		t.Errorf("Requests/Failures = %d/%d, want %d/0", st.Requests, st.Failures, len(reqs))
	}
}

// TestPoolSubmitAfterClose covers shutdown semantics: queued work
// drains, later Submits fail with ErrPoolClosed, Close is idempotent,
// and no goroutine outlives the pool.
func TestPoolSubmitAfterClose(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(PoolConfig{Engines: 2, Engine: Config{Processors: 4}})
	l := list.RandomList(400, 1)

	f, err := pool.Submit(bg, Request{List: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	// The request admitted before Close must still have been served.
	res, err := f.Wait(bg)
	if err != nil {
		t.Fatalf("pre-close request: %v", err)
	}
	if err := verify.MaximalMatching(l, res.In); err != nil {
		t.Errorf("pre-close result: %v", err)
	}

	if _, err := pool.Submit(bg, Request{List: l}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Submit after Close: err = %v, want ErrPoolClosed", err)
	}
	if _, err := pool.Do(bg, Request{List: l}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Do after Close: err = %v, want ErrPoolClosed", err)
	}
	if err := pool.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	waitGoroutinesPool(t, before)
}

// TestPoolCtxCancelledWhileQueued proves a queued request whose context
// expires is resolved with the context error without occupying an
// engine, and is counted as Canceled rather than a Failure.
func TestPoolCtxCancelledWhileQueued(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 4, Engine: Config{Processors: 256}})
	defer pool.Close()

	// A slow request occupies the single engine for long enough that
	// the victim is still queued when its context is cancelled.
	slow, err := pool.Submit(bg, Request{List: list.RandomList(1<<17, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	victim, err := pool.Submit(ctx, Request{List: list.RandomList(256, 2)})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := victim.Wait(bg); !errors.Is(err, context.Canceled) {
		t.Errorf("queued-then-cancelled: err = %v, want context.Canceled", err)
	}
	if _, err := slow.Wait(bg); err != nil {
		t.Fatalf("slow request: %v", err)
	}
	st := pool.Stats()
	if st.Canceled != 1 {
		t.Errorf("Canceled = %d, want 1", st.Canceled)
	}
	if st.Failures != 0 {
		t.Errorf("Failures = %d, want 0 (cancellation is not a service failure)", st.Failures)
	}

	// A context that is already done fails at admission with ctx.Err().
	done, cancel2 := context.WithCancel(bg)
	cancel2()
	if _, err := pool.Submit(done, Request{List: list.RandomList(256, 3)}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Submit: err = %v, want context.Canceled", err)
	}
}

// TestPoolQueueFullFastPath covers the overload fast path: with the
// engine busy and the one-slot queue occupied, Submit fails immediately
// with ErrQueueFull and the rejection is counted.
func TestPoolQueueFullFastPath(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 1, Engine: Config{Processors: 256}})
	defer pool.Close()

	slow, err := pool.Submit(bg, Request{List: list.RandomList(1<<17, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Fill the single queue slot once the slow request is in service.
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
	// Engine busy + queue full: the next Submit must be shed. The
	// assertion is only meaningful while the slow request still occupies
	// the engine — on a loaded host this goroutine can be descheduled
	// past that window, which is a lost race, not a fast-path failure.
	if _, err := pool.Submit(bg, Request{List: list.RandomList(128, 3)}); !errors.Is(err, ErrQueueFull) {
		select {
		case <-slow.Done():
			t.Skipf("slow request finished before overload could be observed (err = %v)", err)
		default:
			t.Fatalf("overload Submit: err = %v, want ErrQueueFull", err)
		}
	}
	if st := pool.Stats(); st.Rejected < 1 {
		t.Errorf("Rejected = %d, want ≥ 1", st.Rejected)
	}
	if _, err := slow.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := filler.Wait(bg); err != nil {
		t.Fatal(err)
	}
}

// TestPoolConcurrentStats hammers Stats() while a batch of requests is
// in flight: no data race (run under -race), and the final snapshot
// accounts for every request.
func TestPoolConcurrentStats(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 16, Engine: Config{Processors: 8}})
	defer pool.Close()

	const goroutines = 4
	const perG = 6
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				st := pool.Stats()
				if st.Requests < 0 || len(st.PerEngine) != 2 {
					panic("malformed snapshot")
				}
			}
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := list.RandomList(300+50*g, int64(g))
			for k := 0; k < perG; k++ {
				res, err := pool.Do(bg, Request{List: l})
				if err != nil {
					errc <- fmt.Errorf("g%d/%d: %w", g, k, err)
					return
				}
				if err := verify.MaximalMatching(l, res.In); err != nil {
					errc <- fmt.Errorf("g%d/%d: %w", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := pool.Stats()
	if st.Requests != goroutines*perG {
		t.Errorf("Requests = %d, want %d", st.Requests, goroutines*perG)
	}
	var perEngine int64
	for _, e := range st.PerEngine {
		perEngine += e.Served
	}
	if perEngine != st.Requests {
		t.Errorf("per-engine served %d != total %d", perEngine, st.Requests)
	}
}

// TestPoolFaultIsolation mirrors TestEngineFaultReseed at the pool
// level: an injected worker panic degrades exactly one engine, that
// engine is rebuilt on its next request, and the sibling engine is
// never poisoned — its results and rebuild count are untouched.
func TestPoolFaultIsolation(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8,
		Engine: Config{Processors: 8, Exec: pram.Pooled, Workers: 4}})
	defer pool.Close()

	// Two size classes pin to the two engines (affinity starts spread
	// round-robin and serial idle-engine requests never migrate).
	lA := list.RandomList(4096, 21) // size class 12 → engine 0
	lB := list.RandomList(300, 7)   // size class 9 → engine 1

	do := func(req Request) (*Result, RequestMetrics, error) {
		f, err := pool.Submit(bg, req)
		if err != nil {
			return nil, RequestMetrics{}, err
		}
		res, err := f.Wait(bg)
		return res, f.Metrics(), err
	}

	firstA, mA, err := do(Request{List: lA})
	if err != nil {
		t.Fatal(err)
	}
	firstB, mB, err := do(Request{List: lB})
	if err != nil {
		t.Fatal(err)
	}
	if mA.Engine == mB.Engine {
		t.Fatalf("size classes not sharded: both on engine %d", mA.Engine)
	}

	// Fault the engine serving lA's size class.
	plan := &pram.FaultPlan{Seed: 7, PanicAt: []pram.FaultPoint{{Round: 3, Worker: 1}}}
	_, mFault, err := do(Request{List: lA, Faults: plan})
	if err == nil {
		t.Fatal("faulted request succeeded")
	}
	var wp *pram.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("error is %v, want a *pram.WorkerPanic", err)
	}
	if mFault.Engine != mA.Engine {
		t.Fatalf("fault served by engine %d, want %d", mFault.Engine, mA.Engine)
	}

	// The faulted engine rebuilds and serves bit-identical results; the
	// sibling never rebuilt and its results are unchanged.
	againA, m2A, err := do(Request{List: lA})
	if err != nil {
		t.Fatalf("post-fault request: %v", err)
	}
	if m2A.Engine != mA.Engine {
		t.Fatalf("post-fault request moved to engine %d", m2A.Engine)
	}
	if !reflect.DeepEqual(againA, firstA) {
		t.Error("post-fault rebuild diverged from the clean run")
	}
	againB, m2B, err := do(Request{List: lB})
	if err != nil {
		t.Fatal(err)
	}
	if m2B.Engine != mB.Engine {
		t.Fatalf("sibling request moved to engine %d", m2B.Engine)
	}
	if !reflect.DeepEqual(againB, firstB) {
		t.Error("sibling engine's results changed after a fault elsewhere")
	}

	st := pool.Stats()
	if st.Failures != 1 {
		t.Errorf("Failures = %d, want 1", st.Failures)
	}
	if got := st.PerEngine[mA.Engine].Stats.Rebuilds; got != 1 {
		t.Errorf("faulted engine Rebuilds = %d, want 1", got)
	}
	if got := st.PerEngine[mB.Engine].Stats.Rebuilds; got != 0 {
		t.Errorf("sibling engine Rebuilds = %d, want 0 (poisoned?)", got)
	}
}

// TestPoolAffinity pins the arena-reuse property: serial same-size
// requests stay on one engine, so from the second request on the
// workspace serves every buffer from its free lists.
func TestPoolAffinity(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 4, Engine: Config{Processors: 8}})
	defer pool.Close()
	l := list.RandomList(2048, 5)

	var engineID = -1
	for k := 0; k < 5; k++ {
		f, err := pool.Submit(bg, Request{List: l})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Wait(bg); err != nil {
			t.Fatal(err)
		}
		if id := f.Metrics().Engine; engineID == -1 {
			engineID = id
		} else if id != engineID {
			t.Fatalf("request %d served by engine %d, want pinned engine %d", k, id, engineID)
		}
	}
	st := pool.Stats().PerEngine[engineID].Stats
	if st.Arena.Misses == 0 || st.Arena.Hits == 0 {
		t.Fatalf("arena counters implausible: %+v", st.Arena)
	}
	// Steady state: the last requests must be pure free-list hits.
	if st.Arena.Gets-st.Arena.Hits != st.Arena.Misses {
		t.Errorf("arena accounting inconsistent: %+v", st.Arena)
	}
}

// TestPoolSpreadsUnderLoad proves the scaling half of the dispatch
// policy: a request whose preferred engine is busy spills to an idle
// sibling instead of queueing behind the backlog.
func TestPoolSpreadsUnderLoad(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8, Engine: Config{Processors: 256}})
	defer pool.Close()

	// Size classes 18 (n = 2^18) and 10 (n = 600) both start pinned to
	// engine 0, so with engine 0 occupied by the slow request the small
	// one must spill to engine 1.
	slow, err := pool.Submit(bg, Request{List: list.RandomList(1<<18, 1)})
	if err != nil {
		t.Fatal(err)
	}
	spill, err := pool.Submit(bg, Request{List: list.RandomList(600, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spill.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Wait(bg); err != nil {
		t.Fatal(err)
	}
	if se, pe := slow.Metrics().Engine, spill.Metrics().Engine; se == pe {
		t.Fatalf("small request queued behind the busy engine %d instead of spilling", se)
	}
	st := pool.Stats()
	for i, e := range st.PerEngine {
		if e.Served != 1 {
			t.Errorf("engine %d served %d requests, want 1: %+v", i, e.Served, st.PerEngine)
		}
	}
}

// parkObserver is a pool observer that holds the first n dequeue
// events until released, so a test can keep engines busy for as long
// as it needs to.
type parkObserver struct {
	mu      sync.Mutex
	left    int
	parked  chan struct{}
	release chan struct{}
}

func newParkObserver(n int) *parkObserver {
	return &parkObserver{left: n, parked: make(chan struct{}, n), release: make(chan struct{}, n)}
}

func (o *parkObserver) Observe(e obs.Event) {
	if e.Kind != obs.KindDequeue {
		return
	}
	o.mu.Lock()
	park := o.left > 0
	if park {
		o.left--
	}
	o.mu.Unlock()
	if park {
		o.parked <- struct{}{}
		<-o.release
	}
}

// TestPoolIdle pins the signal the serving batcher flushes on: the
// pool is idle while some engine with a closed breaker has no admitted,
// unfinished request, and busy once every engine holds one or is
// quarantined. An engine reads idle again before its request's future
// resolves, so a waiter that checks Idle after Wait sees the freed
// engine.
func TestPoolIdle(t *testing.T) {
	park := newParkObserver(2)
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 4, Engine: Config{Processors: 8}, Observer: park})
	defer pool.Close()
	if !pool.Idle() {
		t.Fatal("fresh pool reads busy")
	}
	l := list.RandomList(64, 1)
	futures := make([]*Future, 2)
	for i := range futures {
		f, err := pool.Submit(bg, Request{Op: OpRank, List: l})
		if err != nil {
			t.Fatal(err)
		}
		futures[i] = f
		if i == 0 && !pool.Idle() {
			t.Error("pool with one busy engine of two reads busy")
		}
	}
	for range futures {
		<-park.parked
	}
	if pool.Idle() {
		t.Error("pool with every engine holding a request reads idle")
	}
	park.release <- struct{}{}
	select {
	case <-futures[0].Done():
	case <-futures[1].Done():
	case <-time.After(5 * time.Second):
		t.Fatal("released request never resolved")
	}
	if !pool.Idle() {
		t.Error("pool reads busy after a request resolved")
	}
	park.release <- struct{}{}
	for _, f := range futures {
		if _, err := f.Wait(bg); err != nil {
			t.Fatal(err)
		}
	}

	// A quarantined engine is not idle even with no load.
	one := NewPool(PoolConfig{Engines: 1, QueueDepth: 4, Engine: pooledCfg(),
		Breaker: BreakerPolicy{Threshold: 1, Cooldown: time.Hour}})
	defer one.Close()
	f, err := one.Submit(bg, Request{List: list.RandomList(4096, 2), Faults: panicPlan(3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Wait(bg); err == nil {
		t.Fatal("faulted request succeeded")
	}
	if one.Breaker(0) == BreakerClosed {
		t.Fatal("breaker still closed after a fault at threshold 1")
	}
	if one.Idle() {
		t.Error("pool whose only engine is quarantined reads idle")
	}
}

// TestPoolSplitsCPUs pins the pool's worker default: E engines under
// GOMAXPROCS P run max(1, P/E) parties each, an explicit Engine.Workers
// is used as given, and a P=2, E=2 pool — one party per engine — serves
// without starting a single pram worker goroutine.
func TestPoolSplitsCPUs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	l := list.RandomList(256, 1)
	// serveAll runs one request on every engine, building its machine,
	// and returns each engine's party count.
	serveAll := func(pool *EnginePool) []int {
		parties := make([]int, pool.Engines())
		for i, s := range pool.shards {
			if err := s.eng.RunInto(bg, Request{Op: OpRank, List: l}, new(Result)); err != nil {
				t.Fatal(err)
			}
			parties[i] = s.eng.m.NativeParties()
		}
		return parties
	}
	for _, tc := range []struct{ procs, engines, workers, want int }{
		{1, 1, 0, 1},
		{2, 1, 0, 2},
		{2, 2, 0, 1},
		{2, 3, 0, 1},
		{4, 2, 0, 2},
		{8, 3, 0, 2},
		{2, 2, 2, 2}, // explicit worker cap wins
		{8, 2, 1, 1},
	} {
		runtime.GOMAXPROCS(tc.procs)
		pool := NewPool(PoolConfig{Engines: tc.engines,
			Engine: Config{Processors: 8, Exec: pram.Native, Workers: tc.workers}})
		for i, got := range serveAll(pool) {
			if got != tc.want {
				t.Errorf("P=%d E=%d workers=%d: engine %d runs %d parties, want %d",
					tc.procs, tc.engines, tc.workers, i, got, tc.want)
			}
		}
		pool.Close()
	}

	runtime.GOMAXPROCS(2)
	pool := NewPool(PoolConfig{Engines: 2, Engine: Config{Processors: 8, Exec: pram.Native}})
	defer pool.Close()
	before := runtime.NumGoroutine()
	serveAll(pool)
	if _, err := pool.Do(bg, Request{Op: OpPrefix, List: l, Values: make([]int, l.Len())}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew %d → %d serving on a one-party-per-engine pool", before, after)
	}
}
