package harness

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// runE21 measures the serving daemon's request coalescing over the
// wire: an open-loop client drives parlistd's binary framing at a
// target QPS while the batcher's flush size and wait bound sweep. Every
// request is a rank request of one size class, so all coalescing
// happens in a single (op, class) group — the batcher's best case and
// the configuration the daemon is tuned for.
//
// Signals per cell:
//
//   - achieved/s: served requests over wall time. At offered rates the
//     per-request path cannot sustain, batchSize ≥ 8 lifts capacity —
//     one shard-queue trip, one dispatcher wakeup and one engine
//     semaphore handshake are paid per fused batch instead of per
//     request (the engine work itself is identical: a coalesced batch
//     is bit-identical to per-request Do, pinned by test).
//   - mean-batch: the achieved coalescing factor. 1.00 at batch=1 by
//     construction. The batcher holds a group only while both engines
//     are busy, so below the configured size means groups flushed the
//     moment an engine freed (or on the maxWait cap) before they
//     filled.
//   - shed: requests refused at admission (batcher inbox or engine
//     queue full) — the open loop does not retry them.
//   - p50/p99: client-observed latency, from the request's due time to
//     its response: its scheduled send time on paced rows (or its send,
//     if the pacer runs ahead of schedule), the cell's start on flat-out
//     rows, where every request is due at once. So a request counts the
//     pacer's lateness and any wait in Submit at the connection's frame
//     cap. On a small host client, server and engines time-slice the
//     same cores, so absolute latency is pessimistic; the batch=1 vs
//     batch≥8 ordering at equal offered QPS is the host-independent
//     signal.
//
// The offered rates span the batcher's regimes: 400/s is light load
// (engines mostly idle, so every setting should flush at once and
// batch size and maxWait should not matter), 5000/s is near the
// per-request path's capacity, and qps=max rows submit flat-out
// (pipelined, no pacing): equal offered load for every batch setting,
// bounded by the shared connection.
func runE21(cfg Config) ([]*Table, error) {
	n := 4096
	requests := 2000
	batches := []int{1, 8, 32}
	waits := []time.Duration{200 * time.Microsecond, 2 * time.Millisecond}
	rates := []float64{400, 5000, 0} // 0 = unpaced (flat-out)
	if cfg.Quick {
		n = 512
		requests = 150
		batches = []int{1, 8}
		waits = []time.Duration{time.Millisecond}
		rates = []float64{400, 0}
	}
	l := list.RandomList(n, cfg.Seed)

	t := &Table{
		Title: fmt.Sprintf("E21 — wire-path coalescing: batch size × maxWait × offered QPS, rank n=%d, 2 engines, GOMAXPROCS = %d",
			n, runtime.GOMAXPROCS(0)),
		Note: "open-loop rank requests over parlistd's binary framing; mean-batch is the achieved coalescing " +
			"factor and achieved/s the served throughput — groups are held only while both engines are busy, so " +
			"light load flushes at once whatever the settings, and at offered rates the per-request path (batch=1) " +
			"cannot sustain, fused batches lift capacity by paying dispatch once per batch instead of per request",
		Header: []string{"batch", "maxWait", "offered qps", "requests", "served", "shed", "achieved/s", "mean-batch", "p50", "p99"},
	}
	for _, b := range batches {
		for _, w := range waits {
			for _, r := range rates {
				row, err := e21Cell(cfg, l, b, w, r, requests)
				if err != nil {
					return nil, fmt.Errorf("E21 batch=%d maxWait=%v qps=%.0f: %w", b, w, r, err)
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return []*Table{t}, nil
}

// e21Cell runs one configuration end to end: fresh pool, fresh server,
// real listener, open-loop client, graceful drain.
func e21Cell(cfg Config, l *list.List, batch int, maxWait time.Duration, qps float64, requests int) ([]string, error) {
	pool := engine.NewPool(engine.PoolConfig{
		Engines:    2,
		QueueDepth: 256,
		Engine:     engine.Config{Processors: 256, Exec: cfg.exec(pram.Native)},
	})
	srv, err := server.New(server.Config{Pool: pool, BatchSize: batch, MaxWait: maxWait})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.ServeBinary(ln)
	drain := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}

	c, err := server.Dial(ln.Addr().String(), "E21")
	if err != nil {
		drain()
		return nil, err
	}
	defer c.Close()

	var mu sync.Mutex
	var lat []time.Duration
	var served, shed, failed, batchedSum int
	var wg sync.WaitGroup
	var interval time.Duration
	if qps > 0 {
		interval = time.Duration(float64(time.Second) / qps)
	}
	start := time.Now()
	next := start
	for i := 0; i < requests; i++ {
		due := start
		if interval > 0 {
			// Sleep only when meaningfully ahead: on a 1-CPU host the
			// timer granularity would otherwise under-offer the target.
			if d := time.Until(next); d > 500*time.Microsecond {
				time.Sleep(d)
			}
			due = next
			if now := time.Now(); now.Before(due) {
				due = now // the pacer ran ahead of schedule
			}
			next = next.Add(interval)
		}
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			drain()
			return nil, fmt.Errorf("submit %d: %w", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, ok := <-ch
			mu.Lock()
			defer mu.Unlock()
			switch {
			case !ok:
				failed++
			case r.Status == server.StatusOK:
				if len(r.Result.Ranks) != l.Len() {
					failed++
					return
				}
				served++
				batchedSum += r.Batched
				lat = append(lat, time.Since(due))
			case r.Status == server.StatusShed || r.Status == server.StatusOverLimit:
				shed++
			default:
				failed++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := drain(); err != nil {
		return nil, err
	}
	if failed > 0 {
		return nil, fmt.Errorf("%d of %d requests failed", failed, requests)
	}
	if served == 0 {
		return nil, fmt.Errorf("no requests served (all %d shed)", shed)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	offered := "max"
	if qps > 0 {
		offered = fmt.Sprintf("%.0f", qps)
	}
	return []string{
		fmt.Sprintf("%d", batch),
		maxWait.String(),
		offered,
		fmt.Sprintf("%d", requests),
		fmt.Sprintf("%d", served),
		fmt.Sprintf("%d", shed),
		fmt.Sprintf("%.0f", float64(served)/elapsed.Seconds()),
		fmt.Sprintf("%.2f", float64(batchedSum)/float64(served)),
		lat[len(lat)/2].Round(time.Microsecond).String(),
		lat[len(lat)*99/100].Round(time.Microsecond).String(),
	}, nil
}
