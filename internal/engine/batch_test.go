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
	f, err := pool.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if _, err := f.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
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
		bf, err := pool.SubmitBatch(bg, []*BatchItem{it})
		if err != nil {
			t.Fatalf("%v: SubmitBatch: %v", req.Op, err)
		}
		if _, err := bf.Wait(bg); err != nil || it.Err != nil {
			t.Fatalf("%v: SubmitBatch: %v / %v", req.Op, err, it.Err)
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
		f, err := pool.SubmitBatch(ctx, items)
		if err != nil {
			t.Fatalf("SubmitBatch: %v", err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("Wait: %v", err)
		}
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
	f, err := pool.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if _, err := f.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
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
	f, err := pool.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if _, err := f.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
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
		f, err := pool.SubmitBatch(ctx, items)
		if err != nil {
			t.Fatalf("SubmitBatch: %v", err)
		}
		if _, err := f.Wait(ctx); err != nil {
			t.Fatalf("Wait: %v", err)
		}
	}
	st := pool.Stats()
	if st.Requests != 6 || st.Batches != 2 {
		t.Errorf("Requests = %d, Batches = %d, want 6, 2", st.Requests, st.Batches)
	}
	if st.PerEngine[0].Stats.Requests != 6 {
		t.Errorf("engine Requests = %d, want 6", st.PerEngine[0].Stats.Requests)
	}
}

// TestSubmitBatchValidation: empty batches and closed pools fail with
// typed errors, and no goroutines leak through the batch path.
func TestSubmitBatchValidation(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := context.Background()
	l := list.RandomList(200, 1)
	pool := NewPool(PoolConfig{Engines: 1, Engine: Config{Processors: 2}})
	if _, err := pool.SubmitBatch(ctx, nil); err == nil {
		t.Fatal("empty batch admitted")
	}
	items := []*BatchItem{{Req: Request{Op: OpRank, List: l}}}
	f, err := pool.SubmitBatch(ctx, items)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if _, err := f.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	pool.Close()
	if _, err := pool.SubmitBatch(ctx, items); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("closed pool: err = %v, want ErrPoolClosed", err)
	}
	waitGoroutinesPool(t, base)
}
