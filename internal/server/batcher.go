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

// group is one pending coalescing group, filed in pending under key.
// deadline is the first item's admission time plus MaxWait: the cap on
// how long the group can be held while every engine is busy.
type group struct {
	key      batchKey
	items    []*item
	deadline time.Time
}

// batcher is the coalescing batcher: pending groups behind one mutex,
// with no goroutine of its own. It is work-conserving: a group is held
// only while every engine is busy, so coalescing happens exactly when
// there is a backlog to fuse and an idle pool never pays a wait. The
// goroutine admitting an item (add), the engine dispatcher completing a
// batch (complete) and the MaxWait timer (expire) each apply their own
// trigger under mu, then flush groups oldest first while the pool has
// an idle engine (cause "idle"). No wake-up is lost: add counts an item
// as held before it reads pool.Idle, and a dispatcher drops its
// engine's load before complete takes mu to flush again.
type batcher struct {
	srv   *Server
	limit int // held items past which admission sheds ("inbox_full")

	mu      sync.Mutex
	pending map[batchKey]*group
	// timer is armed to the oldest group's deadline, due (zero while
	// stopped), so it fires only for a group held through a whole
	// MaxWait of busy engines.
	timer *time.Timer
	due   time.Time
	// queued counts the items in pending: written under mu, and atomic
	// so that it may be polled without mu.
	queued atomic.Int64
}

func newBatcher(s *Server) *batcher {
	// A small BatchSize must not starve admission: the bound is
	// server-wide, not per group.
	b := &batcher{srv: s, limit: max(16*s.cfg.BatchSize, 256), pending: make(map[batchKey]*group)}
	b.timer = time.AfterFunc(time.Hour, b.expire)
	b.timer.Stop()
	return b
}

// add takes an admitted item into its (op, size class) group, which
// flushes at BatchSize (cause "size"), and reports whether it was held:
// past limit held items it is not. Once add returns true the item
// belongs to the batcher.
func (b *batcher) add(it *item) bool {
	srv := b.srv
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.queued.Load() >= int64(b.limit) {
		return false
	}
	it.admitted = true
	srv.inflight.Add(1)
	srv.met.inflight.Add(1)
	k := batchKey{op: it.bi.Req.Op, class: engine.SizeClass(it.bi.Req.List.Len())}
	g := b.pending[k]
	if g == nil {
		g = &group{key: k, deadline: it.enq.Add(srv.cfg.MaxWait)}
		b.pending[k] = g
	}
	g.items = append(g.items, it)
	b.queued.Add(1)
	if len(g.items) >= srv.cfg.BatchSize {
		b.take(g, "size")
	}
	b.flushIdle()
	return true
}

// expire is the timer's callback: it flushes every group past its
// deadline (cause "timer"). A stale firing finds none.
func (b *batcher) expire() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.due = time.Time{}
	now := time.Now()
	for _, g := range b.pending {
		if !g.deadline.After(now) {
			b.take(g, "timer")
		}
	}
	b.flushIdle()
}

// drain flushes every pending group (cause "drain") and stops the
// timer. Shutdown calls it once admission has stopped.
func (b *batcher) drain() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, g := range b.pending {
		b.take(g, "drain")
	}
	b.arm()
}

// flushIdle flushes pending groups oldest first while an engine is
// idle (cause "idle"), then re-arms the timer. Called under mu.
func (b *batcher) flushIdle() {
	for len(b.pending) > 0 && b.srv.pool.Idle() {
		b.take(b.oldest(), "idle")
	}
	b.arm()
}

// arm points the timer at the oldest pending group's deadline, or
// stops it when no group is pending. Called under mu.
func (b *batcher) arm() {
	switch g := b.oldest(); {
	case g == nil && !b.due.IsZero():
		b.timer.Stop()
		b.due = time.Time{}
	case g != nil && !g.deadline.Equal(b.due):
		b.due = g.deadline
		b.timer.Reset(time.Until(g.deadline))
	}
}

// oldest returns the pending group whose first item arrived first (the
// earliest deadline, since every group's deadline is its first
// admission plus the same MaxWait), or nil when none is pending.
func (b *batcher) oldest() *group {
	var old *group
	for _, g := range b.pending {
		if old == nil || g.deadline.Before(old.deadline) {
			old = g
		}
	}
	return old
}

// take removes g from pending and flushes it for cause. Called under
// mu.
func (b *batcher) take(g *group, cause string) {
	delete(b.pending, g.key)
	b.queued.Add(-int64(len(g.items)))
	b.flush(g.items, cause)
}

// flush turns one group into one SubmitBatch call. Items whose context
// died while batched are dropped here (cancel-while-batched); a shed
// from the engine queue fails the whole group — no item ran, so the
// caller can safely retry. The serving engine's dispatcher completes
// the batch. Called under mu.
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
	// From a successful SubmitBatch on, the batch may complete on the
	// dispatcher at any moment: nothing here touches an item again.
	err := srv.pool.SubmitBatch(context.Background(), bis, func(eng int) { b.complete(live, link, eng) })
	if err != nil {
		st, cause := StatusShed, "queue_full"
		if errors.Is(err, engine.ErrPoolClosed) {
			st, cause = StatusDraining, "draining"
		}
		for _, it := range live {
			m.sheds(it.tenant, cause).Inc()
			srv.finish(it, st, err)
		}
	}
}

// complete settles a served batch on the dispatcher of engine eng:
// each item's spans, then finish, then — the engine's load having
// dropped before complete runs — the idle flush of held groups.
func (b *batcher) complete(live []*item, link uint64, eng int) {
	srv := b.srv
	for _, it := range live {
		// Spans land before finish hands the item on, so a caller that
		// reads /debug/traces right after its response sees the
		// complete tree.
		if tc := it.bi.Req.Trace; tc.Sampled {
			status := ""
			if it.bi.Err != nil {
				status = statusName(statusOf(it.bi.Err))
			}
			if it.bi.Start.IsZero() {
				// Never reached a machine (dead ctx, engine-side failure
				// before service): the queue span carries the failure.
				srv.childSpan(tc, link, "queue", eng, it.flush, time.Since(it.flush), status)
			} else {
				srv.childSpan(tc, link, "queue", eng, it.flush, it.bi.Start.Sub(it.flush), "")
				srv.childSpan(tc, link, "engine", eng, it.bi.Start, it.bi.End.Sub(it.bi.Start), status)
			}
		}
		srv.finish(it, statusOf(it.bi.Err), it.bi.Err)
	}
	b.mu.Lock()
	b.flushIdle()
	b.mu.Unlock()
}
