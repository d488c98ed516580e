// Serving: drive an EnginePool with asynchronous traffic — Submit
// futures from several producers, handle overload with ErrQueueFull,
// watch live PoolStats, and shut the pool down gracefully so every
// admitted request still completes.
//
//	go run ./examples/serving
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"parlist"
)

func main() {
	// Four warm engines behind shallow admission queues: small queues
	// make the backpressure path visible in a tiny example.
	pool := parlist.NewEnginePool(parlist.PoolConfig{
		Engines:    4,
		QueueDepth: 4,
		Engine:     parlist.EngineConfig{Processors: 256},
	})

	// A small workload mix: three list sizes, so requests spread across
	// engines by size class (same-size requests share one warm arena).
	sizes := []int{1 << 12, 1 << 10, 300}
	lists := make([]*parlist.List, len(sizes))
	for i, n := range sizes {
		lists[i] = parlist.RandomList(n, int64(i+1))
	}

	ctx := context.Background()
	const producers, perProducer = 3, 8

	var wg sync.WaitGroup
	var mu sync.Mutex
	served, dropped := 0, 0

	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				req := parlist.EngineRequest{List: lists[(p+i)%len(lists)]}
				f, err := pool.Submit(ctx, req)
				if errors.Is(err, parlist.ErrQueueFull) {
					// Overload policy is the caller's: this one sheds
					// load and moves on; Do would retry with backoff.
					mu.Lock()
					dropped++
					mu.Unlock()
					time.Sleep(200 * time.Microsecond)
					continue
				}
				if err != nil {
					log.Fatal(err)
				}
				res, err := f.Wait(ctx)
				if err != nil {
					log.Fatal(err)
				}
				if err := parlist.Verify(req.List, res.In); err != nil {
					log.Fatalf("producer %d: bad matching: %v", p, err)
				}
				mu.Lock()
				served++
				mu.Unlock()
			}
		}(p)
	}
	wg.Wait()

	// Graceful shutdown: Close stops admission (ErrPoolClosed from here
	// on) but drains everything already queued before releasing the
	// engines, so no admitted request is abandoned.
	if err := pool.Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := pool.Do(ctx, parlist.EngineRequest{List: lists[0]}); !errors.Is(err, parlist.ErrPoolClosed) {
		log.Fatalf("expected ErrPoolClosed after Close, got %v", err)
	}

	st := pool.Stats()
	fmt.Printf("served %d requests (%d verified by producers), dropped %d on overload\n",
		st.Requests, served, dropped)
	fmt.Printf("rejected: %d, canceled: %d\n", st.Rejected, st.Canceled)
	if st.Requests > 0 {
		fmt.Printf("avg queue wait %v, avg service %v\n",
			st.QueueWait/time.Duration(st.Requests),
			st.Service/time.Duration(st.Requests))
	}
	for i, e := range st.PerEngine {
		fmt.Printf("engine %d: served %d, arena %d/%d buffer hits\n",
			i, e.Served, e.Stats.Arena.Hits, e.Stats.Arena.Gets)
	}
	fmt.Println("pool closed cleanly; submissions after Close fail with ErrPoolClosed")
}
