package harness

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/load"
	"parlist/internal/obs"
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
//     its response: its scheduled send time on paced rows, the cell's
//     start on flat-out rows, where every request is due at once. So a
//     request counts the pacer's lateness and any wait in Submit at
//     the connection's frame cap. On a small host client, server and
//     engines time-slice the same cores, so absolute latency is
//     pessimistic; the batch=1 vs batch≥8 ordering at equal offered
//     QPS is the host-independent signal.
//   - late-p50: how late the pacer sent the median request, the part
//     of p50 that is the client's own.
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
		Header: []string{"batch", "maxWait", "offered qps", "requests", "served", "shed", "achieved/s", "mean-batch", "p50", "p99", "late-p50"},
	}
	for _, b := range batches {
		for _, w := range waits {
			for _, r := range rates {
				s, meanBatch, err := wireCell(cfg, l, server.Config{BatchSize: b, MaxWait: w}, nil, load.Even(requests, r))
				if err != nil {
					return nil, fmt.Errorf("E21 batch=%d maxWait=%v qps=%.0f: %w", b, w, r, err)
				}
				offered := "max"
				if r > 0 {
					offered = fmt.Sprintf("%.0f", r)
				}
				t.Add(b, w, offered, requests, s.Served, s.Shed, fmt.Sprintf("%.0f", s.Rate), fmt.Sprintf("%.2f", meanBatch),
					s.P50.Round(time.Microsecond), s.P99.Round(time.Microsecond), s.LateP50.Round(time.Microsecond))
			}
		}
	}
	return []*Table{t}, nil
}

// wireCell runs one wire configuration end to end: a fresh two-engine
// pool (observed by o when it is non-nil), a server configured by sc
// on a loopback listener, and one pipelined client sending rank
// requests over l on the open-loop schedule due; then it drains the
// server. A daemon shed (queue full, over limit) counts as shed; any
// other non-OK response, a short result, or an untraced response from
// a tracing server fails the cell. It also returns the mean fused
// batch size of the served requests.
func wireCell(cfg Config, l *list.List, sc server.Config, o obs.Observer, due []time.Duration) (load.Summary, float64, error) {
	sc.Pool = engine.NewPool(engine.PoolConfig{
		Engines:    2,
		QueueDepth: 256,
		Observer:   o,
		Engine:     engine.Config{Processors: 256, Exec: cfg.exec(pram.Native)},
	})
	srv, err := server.New(sc)
	if err != nil {
		sc.Pool.Close()
		return load.Summary{}, 0, err
	}
	drain := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		drain()
		return load.Summary{}, 0, err
	}
	go srv.ServeBinary(ln)
	c, err := server.Dial(ln.Addr().String(), "harness")
	if err != nil {
		drain()
		return load.Summary{}, 0, err
	}
	defer c.Close()

	var batched atomic.Int64
	recs := load.Open(due, func(int) func() error {
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			return func() error { return err }
		}
		return func() error {
			r, ok := <-ch
			switch {
			case !ok:
				return errors.New("connection lost")
			case r.Status == server.StatusShed || r.Status == server.StatusOverLimit:
				return fmt.Errorf("%w: %s", load.ErrShed, r.Message)
			case r.Status != server.StatusOK:
				return fmt.Errorf("status %d: %s", r.Status, r.Message)
			case len(r.Result.Ranks) != l.Len():
				return fmt.Errorf("short result: %d ranks for n=%d", len(r.Result.Ranks), l.Len())
			case sc.Trace != nil && !r.Trace.Valid():
				return errors.New("a traced server's response carries no trace")
			}
			batched.Add(int64(r.Batched))
			return nil
		}
	})
	if err := drain(); err != nil {
		return load.Summary{}, 0, err
	}
	s := load.Summarize(recs)
	if s.Err != nil {
		return s, 0, fmt.Errorf("%d of %d requests failed, first: %w", s.Failed, len(due), s.Err)
	}
	if s.Served == 0 {
		return s, 0, fmt.Errorf("no requests served (all %d shed)", s.Shed)
	}
	return s, float64(batched.Load()) / float64(s.Served), nil
}
