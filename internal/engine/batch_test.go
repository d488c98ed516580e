package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/pram"
)

// batchTestRequests returns one request per op (plus algorithm
// variants), the same coverage TestPoolMatchesSingleEngine pins.
func batchTestRequests(t *testing.T, l *list.List) []Request {
	t.Helper()
	n := l.Len()
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i%7 - 3
	}
	m := pram.New(8)
	lab, k := matching.PartitionIterated(m, l, nil, 3)
	m.Close()
	return []Request{
		{Op: OpMatching, List: l, Seed: 9},
		{Op: OpMatching, List: l, Algorithm: AlgoRandomized, Seed: 9},
		{Op: OpPartition, List: l, Iters: 2},
		{Op: OpThreeColor, List: l},
		{Op: OpMIS, List: l},
		{Op: OpRank, List: l},
		{Op: OpRank, List: l, Rank: RankWyllie},
		{Op: OpPrefix, List: l, Values: vals},
		{Op: OpSchedule, List: l, Labels: lab, K: k},
	}
}

// TestBatchBitIdenticalAllOps is the coalescing contract: a fused batch
// submitted through SubmitBatch produces, for every op, results
// bit-identical to the same requests served one at a time by Do on an
// identically configured pool.
func TestBatchBitIdenticalAllOps(t *testing.T) {
	cfg := Config{Processors: 8}
	ctx := context.Background()
	l := list.RandomList(900, 17)
	reqs := batchTestRequests(t, l)

	// Per-request control.
	control := NewPool(PoolConfig{Engines: 2, Engine: cfg})
	defer control.Close()
	want := make([]*Result, len(reqs))
	for i, req := range reqs {
		r, err := control.Do(ctx, req)
		if err != nil {
			t.Fatalf("control %v: %v", req.Op, err)
		}
		want[i] = r
	}

	// The same requests as one fused batch.
	pool := NewPool(PoolConfig{Engines: 2, Engine: cfg})
	defer pool.Close()
	items := make([]*BatchItem, len(reqs))
	for i, req := range reqs {
		items[i] = &BatchItem{Req: req}
	}
	runBatch(t, pool, ctx, items)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d (%v): %v", i, it.Req.Op, it.Err)
		}
		if !reflect.DeepEqual(&it.Res, want[i]) {
			t.Errorf("item %d (%v): batched result differs from per-request Do", i, it.Req.Op)
		}
		if it.Start.IsZero() || it.End.Before(it.Start) {
			t.Errorf("item %d: bad service interval [%v, %v]", i, it.Start, it.End)
		}
	}
}

// TestSubmitIsBatchOfOne pins the one request path: a Submit is served
// as a batch of one, so it yields the same result as a one-item
// SubmitBatch and moves PoolStats the same way — one request and one
// machine acquisition each.
func TestSubmitIsBatchOfOne(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 1, Engine: Config{Processors: 8}})
	defer pool.Close()
	l := list.RandomList(700, 19)
	delta := func(a, b PoolStats) [2]int64 {
		return [2]int64{b.Requests - a.Requests, b.Batches - a.Batches}
	}
	for _, req := range batchTestRequests(t, l) {
		before := pool.Stats()
		f, err := pool.Submit(bg, req)
		if err != nil {
			t.Fatalf("%v: Submit: %v", req.Op, err)
		}
		got, err := f.Wait(bg)
		if err != nil {
			t.Fatalf("%v: Submit: %v", req.Op, err)
		}
		mid := pool.Stats()
		it := &BatchItem{Req: req}
		if runBatch(t, pool, bg, []*BatchItem{it}); it.Err != nil {
			t.Fatalf("%v: SubmitBatch: %v", req.Op, it.Err)
		}
		after := pool.Stats()
		if !reflect.DeepEqual(got, &it.Res) {
			t.Errorf("%v: Submit result differs from a one-item batch", req.Op)
		}
		want := [2]int64{1, 1}
		if d := delta(before, mid); d != want {
			t.Errorf("%v: Submit moved Requests/Batches by %v, want %v", req.Op, d, want)
		}
		if d := delta(mid, after); d != want {
			t.Errorf("%v: one-item batch moved Requests/Batches by %v, want %v", req.Op, d, want)
		}
	}
}

// TestBatchRepeatedIdentical re-runs the same batch twice on one warm
// pool: the second pass must be bit-identical to the first (warm arenas
// and cached runners change nothing).
func TestBatchRepeatedIdentical(t *testing.T) {
	ctx := context.Background()
	l := list.RandomList(600, 3)
	pool := NewPool(PoolConfig{Engines: 1, Engine: Config{Processors: 4}})
	defer pool.Close()

	run := func() []*BatchItem {
		items := []*BatchItem{
			{Req: Request{Op: OpRank, List: l}},
			{Req: Request{Op: OpRank, List: l}},
			{Req: Request{Op: OpMatching, List: l}},
		}
		runBatch(t, pool, ctx, items)
		return items
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil {
			t.Fatalf("item %d errs: %v / %v", i, a[i].Err, b[i].Err)
		}
		if !reflect.DeepEqual(a[i].Res, b[i].Res) {
			t.Errorf("item %d: second pass differs from first", i)
		}
	}
}

// TestBatchItemCancel: an item whose own context is cancelled while the
// batch is queued fails with that context's error; its batchmates are
// unaffected.
func TestBatchItemCancel(t *testing.T) {
	ctx := context.Background()
	l := list.RandomList(400, 5)
	pool := NewPool(PoolConfig{Engines: 1, Engine: Config{Processors: 4}})
	defer pool.Close()

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	items := []*BatchItem{
		{Req: Request{Op: OpRank, List: l}},
		{Ctx: cctx, Req: Request{Op: OpRank, List: l}},
		{Req: Request{Op: OpRank, List: l}},
	}
	runBatch(t, pool, ctx, items)
	if items[0].Err != nil || items[2].Err != nil {
		t.Fatalf("healthy items failed: %v / %v", items[0].Err, items[2].Err)
	}
	if !errors.Is(items[1].Err, context.Canceled) {
		t.Fatalf("cancelled item: err = %v, want context.Canceled", items[1].Err)
	}
	if len(items[1].Res.Ranks) != 0 {
		t.Fatalf("cancelled item produced output")
	}
}

// TestBatchItemDeadline: a per-item deadline is armed at admission, so
// an already-blown budget fails that item (ErrDeadlineExceeded) without
// touching its batchmates.
func TestBatchItemDeadline(t *testing.T) {
	ctx := context.Background()
	l := list.RandomList(400, 5)
	pool := NewPool(PoolConfig{Engines: 1, Engine: Config{Processors: 4}})
	defer pool.Close()

	items := []*BatchItem{
		{Req: Request{Op: OpRank, List: l}},
		{Req: Request{Op: OpRank, List: l, Deadline: time.Nanosecond}},
	}
	runBatch(t, pool, ctx, items)
	if items[0].Err != nil {
		t.Fatalf("healthy item failed: %v", items[0].Err)
	}
	if !errors.Is(items[1].Err, ErrDeadlineExceeded) {
		t.Fatalf("deadlined item: err = %v, want ErrDeadlineExceeded", items[1].Err)
	}
	st := pool.Stats()
	if st.DeadlineExceeded != 1 {
		t.Errorf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

// TestBatchCounts: pool and engine counters see each batched item as a
// request, and Batches counts machine acquisitions.
func TestBatchCounts(t *testing.T) {
	ctx := context.Background()
	l := list.RandomList(300, 1)
	pool := NewPool(PoolConfig{Engines: 1, Engine: Config{Processors: 4}})
	defer pool.Close()

	for b := 0; b < 2; b++ {
		items := []*BatchItem{
			{Req: Request{Op: OpRank, List: l}},
			{Req: Request{Op: OpRank, List: l}},
			{Req: Request{Op: OpRank, List: l}},
		}
		runBatch(t, pool, ctx, items)
	}
	st := pool.Stats()
	if st.Requests != 6 || st.Batches != 2 {
		t.Errorf("Requests = %d, Batches = %d, want 6, 2", st.Requests, st.Batches)
	}
	if st.PerEngine[0].Stats.Requests != 6 {
		t.Errorf("engine Requests = %d, want 6", st.PerEngine[0].Stats.Requests)
	}
}

// TestSubmitBatchValidation: empty batches, sheds and closed pools
// fail with typed errors and never run the completion, and no
// goroutines leak through the batch path.
func TestSubmitBatchValidation(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	l := list.RandomList(200, 1)
	park := newParkObserver(1)
	pool := NewPool(PoolConfig{Engines: 1, QueueDepth: 1, Engine: Config{Processors: 2}, Observer: park})
	refused := func(eng int) { t.Errorf("a refused batch completed on engine %d", eng) }
	if err := pool.SubmitBatch(ctx, nil, refused); err == nil {
		t.Fatal("empty batch admitted")
	}
	// The first batch parks on the engine and the second fills the
	// one-slot queue, so the third is shed.
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		items := []*BatchItem{{Req: Request{Op: OpRank, List: l}}}
		if err := pool.SubmitBatch(ctx, items, func(eng int) { done <- eng }); err != nil {
			t.Fatalf("SubmitBatch %d: %v", i, err)
		}
		if i == 0 {
			<-park.parked
		}
	}
	items := []*BatchItem{{Req: Request{Op: OpRank, List: l}}}
	if err := pool.SubmitBatch(ctx, items, refused); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: err = %v, want ErrQueueFull", err)
	}
	park.release <- struct{}{}
	for i := 0; i < 2; i++ {
		if eng := <-done; eng != 0 {
			t.Errorf("batch %d completed on engine %d, want 0", i, eng)
		}
	}
	runBatch(t, pool, ctx, items)
	if items[0].Err != nil {
		t.Fatalf("batch after the shed: %v", items[0].Err)
	}
	pool.Close()
	if err := pool.SubmitBatch(ctx, items, refused); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("closed pool: err = %v, want ErrPoolClosed", err)
	}
	waitGoroutinesPool(t, base)
}

// runBatch submits items as one batch, waits for its completion and
// returns the engine that served it.
func runBatch(t *testing.T, p *EnginePool, ctx context.Context, items []*BatchItem) int {
	t.Helper()
	done := make(chan int, 1)
	if err := p.SubmitBatch(ctx, items, func(eng int) { done <- eng }); err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	select {
	case eng := <-done:
		return eng
	case <-time.After(30 * time.Second):
		t.Fatal("batch never completed")
		return -1
	}
}
