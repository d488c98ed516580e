package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/ws"
)

// item is one request on its way through the server. It has one owner
// at a time: the framing that decoded it, then the batcher and the
// pool, then Server.finish, then the receiver of its out queue (a
// binary connection's writer or the HTTP handler), which writes the
// response and hands the item to Server.release. Items are recycled
// through the server's itemPool (see reuse.go).
type item struct {
	// id is the binary request id, echoed on the response.
	id     uint64
	tenant string
	// bi carries the request in and the result/service timestamps out.
	// bi.Ctx, when set, is the caller's context: an item whose context
	// dies while it sits in a pending group is dropped at flush time
	// without running.
	bi engine.BatchItem
	// enq and flush are the admission and group-flush timestamps; with
	// bi.Start/End and the writer's respond stamp they make up the
	// enqueue → flush → service → respond life cycle.
	enq, flush time.Time
	// batched is the fused batch size this item rode in.
	batched int
	status  byte
	err     error
	// out receives the item from finish once its outcome is settled.
	out chan<- *item
	// slots is how many of its connection's in-flight slots a binary
	// frame took (frameSlots); the writer frees as many.
	slots int
	// admitted is set once the batcher has taken the item: it then
	// counts towards the server's in-flight requests until release.
	admitted bool

	// wsp holds the decoded request arrays and list their header; the
	// batcher and the engine read both through bi.Req. frame holds the
	// encoded response.
	wsp   *ws.Workspace
	list  list.List
	frame []byte
}

// batchKey groups coalescable requests: same op, same size class —
// exactly the affinity key the pool routes by, so a flushed batch lands
// on an engine whose arena already fits every item.
type batchKey struct {
	op    engine.Op
	class int
}

// group is one pending coalescing group. deadline is the oldest item's
// admission time plus MaxWait: the cap on how long the group can be
// held while every engine is busy.
type group struct {
	items    []*item
	deadline time.Time
}

// batcher is the coalescing collector: a single goroutine owns the
// pending groups, so grouping needs no locks. It is work-conserving: a
// group is held only while every engine is busy, so coalescing happens
// exactly when there is a backlog to fuse and an idle pool never pays a
// wait. Admission sends items into in (non-blocking — a full inbox is a
// shed); Shutdown closes in, and the collector flushes every pending
// group (cause "drain") before exiting.
type batcher struct {
	srv *Server
	in  chan *item
	// wake carries completion wake-ups: a flush waiter whose batch has
	// just freed its engine sends (without blocking) when items are
	// held, so the collector re-checks the pool instead of waiting for
	// the next arrival or the MaxWait timer.
	wake chan struct{}
	// wg tracks the flush-waiter goroutines (one per in-flight fused
	// batch); after close(in) and <-exited, wg.Wait means every
	// admitted item has finished.
	wg     sync.WaitGroup
	exited chan struct{}

	// groups and queued mirror the collector's pending state for
	// /statusz: open coalescing groups and items waiting in them. The
	// collector goroutine writes them after every event; readers get a
	// live (slightly racy, as all gauges are) occupancy picture. queued
	// is also half of the wake-up handshake: the collector counts an
	// item here before it checks the pool for an idle engine, and a
	// waiter reads it after its engine's load has dropped, so one of the
	// two always sees the other (Go atomics are sequentially consistent).
	groups atomic.Int64
	queued atomic.Int64
}

func newBatcher(s *Server) *batcher {
	depth := 16 * s.cfg.BatchSize
	if depth < 256 {
		// A small BatchSize must not starve admission: the inbox is
		// the server-wide staging area, not a per-group buffer.
		depth = 256
	}
	b := &batcher{
		srv:    s,
		in:     make(chan *item, depth),
		wake:   make(chan struct{}, 1),
		exited: make(chan struct{}),
	}
	go b.run()
	return b
}

// run is the collector loop. Each turn waits for one event — an
// arrival, the MaxWait timer, or a completion wake-up — applies that
// event's own trigger (size on an arrival, deadline on the timer), and
// then flushes pending groups oldest first for as long as the pool has
// an idle engine (cause "idle"). A single timer is armed to the oldest
// group's deadline, so it fires only for a group held through a whole
// MaxWait of busy engines.
func (b *batcher) run() {
	defer close(b.exited)
	pending := make(map[batchKey]*group)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	armed := false
	for {
		var tc <-chan time.Time
		if _, g := oldest(pending); g != nil {
			if armed && !timer.Stop() {
				<-timer.C
			}
			timer.Reset(max(time.Until(g.deadline), 0))
			armed = true
			tc = timer.C
		}
		select {
		case it, ok := <-b.in:
			if armed && !timer.Stop() {
				<-timer.C
			}
			armed = false
			if !ok {
				for k := range pending {
					b.take(pending, k, "drain")
				}
				b.groups.Store(0)
				return
			}
			it.admitted = true
			b.srv.inflight.Add(1)
			b.srv.met.inflight.Add(1)
			n := 0
			if it.bi.Req.List != nil {
				n = it.bi.Req.List.Len()
			}
			k := batchKey{op: it.bi.Req.Op, class: engine.SizeClass(n)}
			g := pending[k]
			if g == nil {
				g = &group{deadline: it.enq.Add(b.srv.cfg.MaxWait)}
				pending[k] = g
			}
			g.items = append(g.items, it)
			b.queued.Add(1)
			if len(g.items) >= b.srv.cfg.BatchSize {
				b.take(pending, k, "size")
			}
		case now := <-tc:
			armed = false
			for k, g := range pending {
				if !g.deadline.After(now) {
					b.take(pending, k, "timer")
				}
			}
		case <-b.wake:
		}
		for len(pending) > 0 && b.srv.pool.Idle() {
			k, _ := oldest(pending)
			b.take(pending, k, "idle")
		}
		b.groups.Store(int64(len(pending)))
	}
}

// oldest returns the pending group whose first item arrived first (the
// earliest deadline, since every group's deadline is its first
// admission plus the same MaxWait), or a nil group when none is
// pending.
func oldest(pending map[batchKey]*group) (batchKey, *group) {
	var oldK batchKey
	var oldG *group
	for k, g := range pending {
		if oldG == nil || g.deadline.Before(oldG.deadline) {
			oldK, oldG = k, g
		}
	}
	return oldK, oldG
}

// take removes group k from pending and flushes it for cause.
func (b *batcher) take(pending map[batchKey]*group, k batchKey, cause string) {
	g := pending[k]
	delete(pending, k)
	b.queued.Add(-int64(len(g.items)))
	b.flush(g.items, cause)
}

// flush turns one group into one SubmitBatch call. Items whose context
// died while batched are dropped here (cancel-while-batched); a shed
// from the engine queue fails the whole group — no item ran, so the
// caller can safely retry. The future is awaited on a tracked
// goroutine so the collector never blocks on engine service time.
func (b *batcher) flush(items []*item, cause string) {
	now := time.Now()
	srv := b.srv
	m := srv.met
	live := make([]*item, 0, len(items))
	bis := make([]*engine.BatchItem, 0, len(items))
	for _, it := range items {
		it.flush = now
		if ctx := it.bi.Ctx; ctx != nil && ctx.Err() != nil {
			srv.finish(it, statusOf(ctx.Err()), ctx.Err())
			continue
		}
		live = append(live, it)
		bis = append(bis, &it.bi)
	}
	if len(live) == 0 {
		return
	}
	// link is one id minted per fused batch and stamped on every
	// member's spans, so a trace of one item names the batch it rode in
	// and /debug/traces can reassemble the whole fusion group.
	var link uint64
	if srv.rec != nil {
		for _, it := range live {
			if tc := it.bi.Req.Trace; tc.Sampled {
				if link == 0 {
					link = srv.rec.Source().SpanID()
				}
				srv.childSpan(tc, link, "inbox", -1, it.enq, now.Sub(it.enq), "")
			}
		}
	}
	m.flushes[cause].Inc()
	m.batchSize.Observe(int64(len(live)))
	for _, it := range live {
		it.batched = len(live)
		m.batchWait.Observe(now.Sub(it.enq).Nanoseconds())
	}
	f, err := srv.pool.SubmitBatch(context.Background(), bis)
	if err != nil {
		st := StatusShed
		cause := "queue_full"
		if errors.Is(err, engine.ErrPoolClosed) {
			st = StatusDraining
			cause = "draining"
		}
		for _, it := range live {
			m.sheds(it.tenant, cause).Inc()
			srv.finish(it, st, err)
		}
		return
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		// The future's ctx is Background: it resolves when every item
		// has been served (or skipped by its own dead ctx).
		_, _ = f.Wait(context.Background())
		// The engine's load dropped before the future resolved, so if
		// items are held the collector may now flush one to it.
		if b.queued.Load() > 0 {
			select {
			case b.wake <- struct{}{}:
			default:
			}
		}
		eng := f.Metrics().Engine
		for _, it := range live {
			// Spans land before finish hands the item on, so a caller
			// that reads /debug/traces right after its response sees
			// the complete tree.
			if tc := it.bi.Req.Trace; tc.Sampled {
				status := ""
				if it.bi.Err != nil {
					status = statusName(statusOf(it.bi.Err))
				}
				if it.bi.Start.IsZero() {
					// Never reached a machine (dead ctx, engine-side
					// failure before service): the queue span carries
					// the failure.
					srv.childSpan(tc, link, "queue", eng, it.flush, time.Since(it.flush), status)
				} else {
					srv.childSpan(tc, link, "queue", eng, it.flush, it.bi.Start.Sub(it.flush), "")
					srv.childSpan(tc, link, "engine", eng, it.bi.Start, it.bi.End.Sub(it.bi.Start), status)
				}
			}
			srv.finish(it, statusOf(it.bi.Err), it.bi.Err)
		}
	}()
}
