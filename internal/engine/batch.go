package engine

// This file is batch-aware submission: the serving daemon's coalescing
// batcher (internal/server) fuses many small concurrent same-op,
// same-size-class requests into ONE pool submission, and the fused
// batch runs as ONE machine acquisition — one trip through the shard
// queue, one dispatcher wakeup, one engine-semaphore handshake, shared
// across every item. Each item is then served back-to-back through the
// exact serveOne path Engine.RunInto takes, on a machine whose arena
// already holds the right size-class buffers, so a coalesced batch's
// results are bit-identical to per-request Do (pinned by
// TestBatchBitIdenticalAllOps) while the per-request dispatch overhead
// is paid once per batch instead of once per item. The pool serves
// Submit the same way, as a batch of one.

import (
	"context"
	"errors"
	"time"
)

// BatchItem is one request of a fused batch. The caller owns the item:
// Req and Ctx are read by the engine, Res/Err/Start/End are written by
// it. Once RunBatch returns, or SubmitBatch's completion runs, Err
// holds the item's outcome and Res its output; Start and End bound the
// item's service interval on the machine — the service-stage
// timestamps the daemon surfaces to clients.
type BatchItem struct {
	// Ctx is the item's own cancellation context (nil = the batch
	// context). An item whose context is done by the time the machine
	// reaches it fails with that context's error without running.
	Ctx context.Context
	// Req is the item's request. All items of one batch should share an
	// op and size class — the batcher guarantees it — but the engine
	// serves mixed batches correctly too; mixing merely forfeits the
	// arena-affinity payoff.
	Req Request
	// Res receives the item's output (slice capacity is reused across
	// batches, like RunInto's caller-owned Result).
	Res Result
	// Err is the item's outcome: nil on success, or the same typed error
	// the request would have produced through Do.
	Err error
	// Start and End bound the item's service interval on the machine.
	Start, End time.Time
}

// RunBatch serves the items back-to-back under ONE semaphore
// acquisition: the machine is claimed once, each item runs through the
// same serve path as a solo RunInto (validation, deadline arming, fault
// re-seeding, observer hook, stats), and the semaphore is released when
// the last item finishes. Per-item failures land in the item's Err and
// never abort the batch — a transient fault degrades the machine and
// the NEXT item's serve rebuilds it, so one poisoned item cannot take
// its batchmates down. The returned error is reserved for whole-batch
// failures: a ctx that expires before the machine is acquired.
//
// Engine Stats count each item as one request, exactly as if it had
// arrived alone.
func (e *Engine) RunBatch(ctx context.Context, items []*BatchItem) error {
	if len(items) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-e.sem }()
	for _, it := range items {
		ictx := it.Ctx
		if ictx == nil {
			ictx = ctx
		}
		if err := ctx.Err(); err != nil {
			it.Err = err
			continue
		}
		if err := ictx.Err(); err != nil {
			it.Err = err
			continue
		}
		at := effectiveDeadline(ictx, &it.Req)
		it.Start = time.Now()
		it.Err = e.serveOne(it.Req, &it.Res, at)
		it.End = time.Now()
	}
	return nil
}

// SizeClass reports the pool's affinity bucket for an input of n nodes
// — the power-of-two class shared with the workspace arena. The
// serving batcher keys coalescing groups by (op, SizeClass) so every
// fused batch lands on an engine whose arena is already warm for that
// class.
func SizeClass(n int) int { return sizeClass(n) }

// SubmitBatch admits a fused batch as one queue entry. Admission is
// Submit's: it never blocks, a full queue sheds the whole batch with
// ErrQueueFull (no item ran — the caller can re-split or shed), and a
// closed pool fails with ErrPoolClosed; a refused batch never calls
// done. The shard is chosen by the first item's size class, so a
// batcher that keys batches by (op, size class) lands every batch on
// the engine whose arena is already warm for that class.
//
// The serving engine's dispatcher calls done once, with the engine's
// index, when every item holds its outcome (a whole-batch failure,
// such as a ctx that died before service, lands in every item's Err)
// and the engine's load has dropped, before it takes its next batch.
// done therefore must not block: what it hands an item to must have
// room waiting, and what it submits must shed rather than wait.
// Per-item deadlines (Req.Deadline) are armed at admission, so queue
// time and time behind earlier batchmates spend the same budget as
// service. An item that fails, a worker panic included, fails alone:
// its batchmates are served as if it had not been there.
func (p *EnginePool) SubmitBatch(ctx context.Context, items []*BatchItem, done func(engine int)) error {
	if len(items) == 0 {
		return errors.New("engine pool: empty batch")
	}
	return p.admit(ctx, &Future{then: done}, items)
}
