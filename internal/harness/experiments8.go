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
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// runE22 measures end-to-end request tracing on the serving path: the
// wire-path workload of E21 (flat-out rank requests through the
// coalescing batcher, batch=8) repeated across tracing configurations,
// from tracing disabled through head-sampling every request at tail
// keep rates 1.0 down to 0.01.
//
// Signals per cell:
//
//   - achieved/s and overhead: the throughput cost of the span path.
//     The acceptance bound is ≤ 3% ns/op over the untraced control at
//     full head sampling — on a 1-CPU host the run-to-run noise of
//     identical configs is of the same order, so the recorded overhead
//     is a noise-floor measurement, not a precise tax (the
//     deterministic guard — tracing adds zero allocations with no
//     collector attached — is pinned by TestTraceDetachedZeroAlloc).
//   - roots/kept: the tail-sampling funnel. Every trace completes a
//     root (roots ≈ served requests); the kept count follows the keep
//     rate plus the always-keep rules (cold-start, errors, slow tail),
//     and the ring bound caps what /debug/traces can return.
//   - ring spans: memory actually held — bounded by 16 stripes × 32
//     traces regardless of traffic, the no-unbounded-growth guarantee.
//   - p50/p99: client-observed latency from the cell's start, when
//     every request is due, to the response; a request that waits in
//     Submit at the connection's frame cap counts that wait.
func runE22(cfg Config) ([]*Table, error) {
	n := 4096
	requests := 2000
	keeps := []float64{1, 0.1, 0.01}
	if cfg.Quick {
		n = 512
		requests = 150
		keeps = []float64{1, 0.1}
	}
	l := list.RandomList(n, cfg.Seed)

	t := &Table{
		Title: fmt.Sprintf("E22 — end-to-end tracing: overhead and tail-sampling funnel, rank n=%d, batch=8, 2 engines, GOMAXPROCS = %d",
			n, runtime.GOMAXPROCS(0)),
		Note: "flat-out rank requests over the binary framing; trace cells head-sample every request and " +
			"record the full inbox→batch→queue→engine span tree into the tail-sampling recorder — " +
			"overhead is ns/op versus the untraced control (≤ 3% acceptance bound, host noise is the same " +
			"order on 1 CPU), kept/roots is the tail-sampling funnel, ring spans the bounded memory held",
		Header: []string{"tracing", "keep", "served", "achieved/s", "ns/op", "overhead", "roots", "kept", "ring spans", "p50", "p99"},
	}

	base, _, err := e22Cell(cfg, l, requests, false, 0)
	if err != nil {
		return nil, fmt.Errorf("E22 untraced: %w", err)
	}
	baseNs := base.nsPerOp
	t.Rows = append(t.Rows, base.row("off", "-", "-"))
	for _, keep := range keeps {
		cell, rec, err := e22Cell(cfg, l, requests, true, keep)
		if err != nil {
			return nil, fmt.Errorf("E22 keep=%g: %w", keep, err)
		}
		st := rec.Stats()
		overhead := fmt.Sprintf("%+.1f%%", 100*(cell.nsPerOp-baseNs)/baseNs)
		row := cell.row("on", fmt.Sprintf("%.2f", keep), overhead)
		row[6] = fmt.Sprintf("%d", st.Roots)
		row[7] = fmt.Sprintf("%d", st.Kept)
		row[8] = fmt.Sprintf("%d", st.Spans)
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// e22Result is one cell's client-side measurement.
type e22Result struct {
	served   int
	achieved float64
	nsPerOp  float64
	p50, p99 time.Duration
}

func (r *e22Result) row(tracing, keep, overhead string) []string {
	return []string{
		tracing, keep,
		fmt.Sprintf("%d", r.served),
		fmt.Sprintf("%.0f", r.achieved),
		fmt.Sprintf("%.0f", r.nsPerOp),
		overhead,
		"-", "-", "-",
		r.p50.Round(time.Microsecond).String(),
		r.p99.Round(time.Microsecond).String(),
	}
}

// e22Cell drives one tracing configuration end to end: fresh pool and
// server, real listener, one pipelined client submitting flat-out,
// graceful drain. With traced set the server head-samples every
// request (TraceSample 1) and the pool's collector feeds the same
// recorder, so each request's full span tree is assembled.
func e22Cell(cfg Config, l *list.List, requests int, traced bool, keep float64) (*e22Result, *obs.SpanRecorder, error) {
	var rec *obs.SpanRecorder
	poolCfg := engine.PoolConfig{
		Engines:    2,
		QueueDepth: 256,
		Engine:     engine.Config{Processors: 256, Exec: cfg.exec(pram.Native)},
	}
	if traced {
		rec = obs.NewSpanRecorder(obs.NewTraceSource(cfg.Seed), keep)
		c := obs.NewCollector(obs.NewRegistry())
		c.AttachSpans(rec)
		poolCfg.Observer = c
	}
	pool := engine.NewPool(poolCfg)
	srv, err := server.New(server.Config{Pool: pool, BatchSize: 8,
		MaxWait: 500 * time.Microsecond, Trace: rec, TraceSample: 1})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	go srv.ServeBinary(ln)
	drain := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}

	c, err := server.Dial(ln.Addr().String(), "E22")
	if err != nil {
		drain()
		return nil, nil, err
	}
	defer c.Close()

	var mu sync.Mutex
	var lat []time.Duration
	var served, failed, batched int
	var wg sync.WaitGroup
	start := time.Now() // every request is due at once
	for i := 0; i < requests; i++ {
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			drain()
			return nil, nil, fmt.Errorf("submit %d: %w", i, err)
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
				if traced && !r.Trace.Valid() {
					failed++
					return
				}
				served++
				batched += r.Batched
				lat = append(lat, time.Since(start))
			default:
				failed++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := drain(); err != nil {
		return nil, nil, err
	}
	if failed > 0 {
		return nil, nil, fmt.Errorf("%d of %d requests failed", failed, requests)
	}
	if served == 0 {
		return nil, nil, fmt.Errorf("no requests served")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return &e22Result{
		served:   served,
		achieved: float64(served) / elapsed.Seconds(),
		nsPerOp:  float64(elapsed.Nanoseconds()) / float64(served),
		p50:      lat[len(lat)/2],
		p99:      lat[len(lat)*99/100],
	}, rec, nil
}
