package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// drainWait bounds how long a block waits for its last responses before
// failing them by closing the connections.
const drainWait = 30 * time.Second

// wireStack is internal/server hosted in this process the way
// cmd/parlistd wires it, plus two pipelined binary clients.
type wireStack struct {
	reg     *obs.Registry
	rec     *obs.SpanRecorder
	pool    *engine.EnginePool
	srv     *server.Server
	ln      net.Listener
	served  chan error
	clients []*server.Client
}

// upWire brings the daemon stack up with parlistd's defaults and
// -exec native: 2 engines, queue 64, p 256, batch 16, maxwait 500µs, no
// rate limit, no result cache, one registry, and a collector whose span
// recorder (keep 0.1) the server shares at TraceSample 1. It returns
// once every (op, n) class of the corpus has been answered and
// verified; the warm-up requests go out pipelined, so set-up is not a
// series of batch timers.
func upWire(c *corpus, seed int64) (stack, int, []error, error) {
	reg := obs.NewRegistry()
	col := newCollector(reg)
	rec := obs.NewSpanRecorder(obs.NewTraceSource(seed), 0.1)
	col.AttachSpans(rec)
	pool := engine.NewPool(engine.PoolConfig{
		Engines:    2,
		QueueDepth: 64,
		Observer:   col,
		Engine:     engine.Config{Processors: processors, Exec: pram.Native},
	})
	srv, err := server.New(server.Config{
		Pool:        pool,
		BatchSize:   16,
		MaxWait:     500 * time.Microsecond,
		Registry:    reg,
		Trace:       rec,
		TraceSample: 1,
	})
	if err != nil {
		pool.Close()
		return nil, 0, nil, err
	}
	s := &wireStack{reg: reg, rec: rec, pool: pool, srv: srv, served: make(chan error, 1)}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		srv.Shutdown(context.Background())
		return nil, 0, nil, err
	}
	go func() { s.served <- srv.ServeBinary(s.ln) }()
	for i := 0; i < 2; i++ {
		cl, err := server.Dial(s.ln.Addr().String(), "")
		if err != nil {
			s.close()
			return nil, 0, nil, err
		}
		s.clients = append(s.clients, cl)
	}
	items := make([]warmItem, len(c.classes))
	for i, e := range c.classes {
		items[i] = warmItem{e: e}
	}
	sent, fails, err := warmUp(items, s.warmRound)
	if err != nil {
		s.close()
		return nil, sent, fails, err
	}
	return s, sent, fails, nil
}

// warmRound pipelines one request per item over both connections and
// verifies every response.
func (s *wireStack) warmRound(items []warmItem) []error {
	errs := make([]error, len(items))
	chs := make([]<-chan *server.Response, len(items))
	for i, it := range items {
		chs[i], errs[i] = s.clients[i%2].Submit(it.e.req)
	}
	deadline := time.Now().Add(drainWait)
	for i, it := range items {
		if errs[i] != nil {
			continue
		}
		select {
		case resp, ok := <-chs[i]:
			now := time.Now()
			r := rec{e: it.e, due: now}
			r.received(resp, ok, now, now)
			errs[i] = r.err
		case <-time.After(time.Until(deadline)):
			errs[i] = errors.New("no response")
		}
	}
	return errs
}

// close closes the clients, drains the server (which closes the pool)
// and waits for the accept loop to return.
func (s *wireStack) close() error {
	for _, cl := range s.clients {
		cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainWait)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.ln.Close() // no-op unless Shutdown ran before ServeBinary tracked it
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// drive runs one open-loop block: seeded Poisson arrivals at rate per
// second for d, alternating between the two connections. Each request
// is timed from its intended send time, so a late generator or a stall
// is charged to every request it delays.
func (s *wireStack) drive(c *corpus, rate float64, d time.Duration, seed int64, tr *tracer) []rec {
	rng := rand.New(rand.NewSource(seed))
	var at []time.Duration
	var es []*entry
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= d {
			break
		}
		at = append(at, t)
		es = append(es, c.pick(rng))
	}
	recs := make([]rec, len(at))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range at {
		r := &recs[i]
		r.e, r.due, r.lane = es[i], start.Add(at[i]), i%len(s.clients)
		if wait := time.Until(r.due); wait > 0 {
			time.Sleep(wait)
		}
		call := time.Now()
		ch, err := s.clients[r.lane].Submit(r.e.req)
		if err != nil {
			r.status, r.err, r.lat = server.StatusInternal, err, time.Since(r.due)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, ok := <-ch
			r.received(resp, ok, call, time.Now())
			if r.ok() && tr.on(r.due) {
				tr.spans(r)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainWait):
		// Closing the connections fails every request still pending.
		for _, cl := range s.clients {
			cl.Close()
		}
		<-done
	}
	return recs
}

// received completes a wire record from its response. The layer parts
// are differences of consecutive wall-clock stamps, so they tile the
// root exactly.
func (r *rec) received(resp *server.Response, ok bool, call, recv time.Time) {
	r.lat = recv.Sub(r.due)
	switch {
	case !ok:
		r.status, r.err = server.StatusInternal, errors.New("connection lost")
		return
	case resp.Status != server.StatusOK:
		r.status, r.err = resp.Status, fmt.Errorf("status %d: %s", resp.Status, resp.Message)
		return
	}
	if r.err = r.e.check(&resp.Result); r.err != nil {
		return
	}
	t := resp.Timing
	stamps := [...]time.Time{r.due.Round(0), call.Round(0), t.Enqueue, t.Flush, t.Service, t.Respond, recv.Round(0)}
	for i := range r.parts {
		r.parts[i] = stamps[i+1].Sub(stamps[i])
	}
	r.root = stamps[len(stamps)-1].Sub(stamps[0])
	r.class = classWire
}

// snap reads the stack's cumulative counters.
func (s *wireStack) snap() snapshot {
	sn := baseSnap(s.pool, s.reg)
	for _, cause := range []string{"size", "timer", "drain"} {
		n := float64(s.reg.Counter("parlistd_batch_flush_total", "", "cause", cause).Value())
		sn["flushes"] += n
		sn["flushes."+cause] = n
	}
	var h obs.HistSnapshot
	s.reg.Histogram("parlistd_batch_size", "").Snapshot(&h)
	sn["batch_size.n"], sn["batch_size.sum"] = float64(h.Count), float64(h.Sum)
	sn.addHist("batch_wait", s.reg.Histogram("parlistd_batch_wait_ns", ""))
	sn.addHist("service", s.reg.Histogram("parlistd_service_ns", ""))
	sn.addHist("respond", s.reg.Histogram("parlistd_respond_ns", ""))
	st := s.rec.Stats()
	sn["spans.roots"], sn["spans.kept"] = float64(st.Roots), float64(st.Kept)
	return sn
}
