package engine

// This file is the engine side of sharded execution: one plan step —
// a shard-local contraction, the reduced solve, or a shard-local
// expansion — served on a warm engine exactly the way a whole request
// is. runStep mirrors RunInto (semaphore, deadline, the request
// prologue, observer) so a step inherits the entire serving discipline
// for free: a step that panics on an injected fault fails its request
// with the transient class, a step that outlives its budget aborts
// between rounds with ErrDeadlineExceeded, and a step on a degraded
// machine pays the same rebuild a request would. The kernels live in
// internal/rank; the cross-step state they share is the
// coordinator-owned rank.ShardState, never this engine's workspace, so
// resetting the arena here cannot invalidate another shard's step.

import (
	"context"
	"fmt"
	"time"

	"parlist/internal/obs"
	"parlist/internal/plan"
	"parlist/internal/pram"
	"parlist/internal/rank"
)

// stepSpec describes one sharded plan step bound to its request's
// shared state. The pool's coordinator (ShardedDo) owns the spec; the
// serving engine fills stats on success. faults carries the request's
// fault plan on the step it targets.
type stepSpec struct {
	kind  plan.Kind
	shard int
	st    *rank.ShardState
	// procs overrides the engine's simulated processor count (0 =
	// engine default), mirroring Request.Processors.
	procs      int
	faults     *pram.FaultPlan
	deadlineAt time.Time
	// trace is the owning sharded request's trace context: step spans
	// ("queue", "step-*") parent onto its root span, which the
	// coordinator emits when the plan resolves.
	trace obs.TraceContext
	// stats is the step's simulated accounting, valid after a
	// successful run.
	stats pram.Stats
}

// stepLabel is the observer label for a step kind — precomputed
// constants so the observation path does not allocate.
func stepLabel(k plan.Kind) string {
	switch k {
	case plan.KindLocalContract:
		return "step-contract"
	case plan.KindReducedSolve:
		return "step-solve"
	case plan.KindLocalExpand:
		return "step-expand"
	}
	return "step"
}

// runStep serves one plan step on this engine, blocking until the
// machine is free or ctx is done. It is RunInto for sub-requests: same
// admission, same deadline arithmetic, same accounting — steps count in
// Stats.Steps rather than Stats.Requests.
func (e *Engine) runStep(ctx context.Context, spec *stepSpec) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	at := spec.deadlineAt
	if d, ok := ctx.Deadline(); ok && (at.IsZero() || d.Before(at)) {
		at = d
	}
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-e.sem }()

	var t0 time.Time
	var arena0 uint64
	if e.cfg.Observer != nil {
		t0 = time.Now()
		arena0 = e.wsp.Stats().BytesAllocated
	}

	err := e.serveStep(spec, at)

	if o := e.cfg.Observer; o != nil {
		o.Observe(obs.Event{Kind: obs.KindRequest, Name: stepLabel(spec.kind), Dur: time.Since(t0),
			Failed: err != nil, Bytes: int64(e.wsp.Stats().BytesAllocated - arena0)})
		if e.m != nil {
			e.m.FlushSpans()
		}
	}

	st := <-e.statsCh
	st.Steps++
	if err != nil {
		st.Failures++
	} else {
		st.SimTime += spec.stats.Time
		st.SimWork += spec.stats.Work
	}
	st.Arena = e.wsp.Stats()
	e.statsCh <- st
	return err
}

// serveStep runs one step under the semaphore — the step analogue of
// serve, minus request validation (the coordinator validated the list
// once for the whole plan).
func (e *Engine) serveStep(spec *stepSpec, at time.Time) error {
	if e.closed {
		return fmt.Errorf("engine: %w", ErrClosed)
	}
	p, err := e.procs(spec.procs)
	if err != nil {
		return err
	}
	if !at.IsZero() {
		if now := time.Now(); now.After(at) {
			return fmt.Errorf("engine: deadline passed %v before step dispatch: %w", now.Sub(at), ErrDeadlineExceeded)
		}
	}
	e.prologue(p, spec.faults, at)
	return e.dispatchStep(spec)
}

// dispatchStep executes the step kernel on the prepared machine,
// translating recovered executor failures through the same taxonomy as
// whole-request dispatch.
func (e *Engine) dispatchStep(spec *stepSpec) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(r)
		}
	}()
	switch spec.kind {
	case plan.KindLocalContract:
		rank.ContractShard(e.m, spec.st, spec.shard)
	case plan.KindReducedSolve:
		if e.nativeWalk == nil {
			e.nativeWalk = rank.NewNativeWalker(e.m)
		}
		rank.SolveReduced(e.m, e.nativeWalk, spec.st)
	case plan.KindLocalExpand:
		rank.ExpandShard(e.m, spec.st, spec.shard)
	default:
		return fmt.Errorf("engine: step kind %v: %w", spec.kind, ErrUnknownOp)
	}
	e.m.SnapshotInto(&spec.stats)
	return nil
}

// recoveredError maps a recovered executor failure into the engine
// error taxonomy — shared by whole-request and step dispatch. Worker
// panics and barrier stalls are transient (the machine is degraded and
// rebuilt next use); a deadline abort leaves the machine healthy.
// Anything else is re-raised.
func recoveredError(r any) error {
	switch f := r.(type) {
	case *pram.WorkerPanic:
		return fmt.Errorf("engine: request failed: %w", f)
	case *pram.BarrierStall:
		return fmt.Errorf("engine: request failed: %w", f)
	case *pram.DeadlineExceeded:
		return fmt.Errorf("engine: aborted before round %d (%v over budget): %w", f.Round, f.Over, ErrDeadlineExceeded)
	default:
		panic(r)
	}
}
