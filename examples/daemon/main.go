// Daemon: run parlistd's serving core in-process, dial it over the
// binary framing, and pipeline a burst of rank requests. The
// coalescing batcher is work-conserving: the first requests find an
// idle engine each and flush alone, and the rest, arriving while both
// engines are busy, fuse into one machine run that flushes the moment
// an engine frees. Each response carries its enqueue → flush → service
// → respond timestamps; the fused batch size shows up as batched=N on
// every rider.
//
//	go run ./examples/daemon
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/server"
)

func main() {
	// Two warm engines behind a serving core that holds a coalescing
	// group only while both engines are busy, flushing it when an
	// engine frees, at 8 riders, or after 50ms, whichever comes first.
	pool := engine.NewPool(engine.PoolConfig{
		Engines: 2, QueueDepth: 64,
		Engine: engine.Config{Processors: 64},
	})
	srv, err := server.New(server.Config{
		Pool:      pool,
		BatchSize: 8,
		MaxWait:   50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.ServeBinary(ln)

	client, err := server.Dial(ln.Addr().String(), "example")
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Pipeline 8 rank requests of one size class: the first two take an
	// idle engine each, and the rest gather in one group behind them
	// and fuse into a single engine run (one queue trip, one semaphore
	// handshake, one warm arena) whose results fan back out.
	l := list.RandomList(4096, 1)
	const riders = 8
	pendings := make([]<-chan *server.Response, riders)
	for i := range pendings {
		ch, err := client.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			log.Fatal(err)
		}
		pendings[i] = ch
	}
	for i, ch := range pendings {
		r := <-ch
		if r == nil || r.Status != server.StatusOK {
			log.Fatalf("request %d failed: %+v", i, r)
		}
		t := r.Timing
		fmt.Printf("req %d: batched=%d wait=%s service=%s total=%s\n",
			i, r.Batched,
			t.Flush.Sub(t.Enqueue).Round(time.Microsecond),
			t.Respond.Sub(t.Service).Round(time.Microsecond),
			t.Respond.Sub(t.Enqueue).Round(time.Microsecond))
	}

	// Graceful drain: stop admitting, flush pending groups, serve
	// in-flight batches to completion, close the pool.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("drained")
}
