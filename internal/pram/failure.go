package pram

import (
	"errors"
	"fmt"
	"time"
)

// This file defines the executor's failure-semantics contract (see
// DESIGN.md "Failure semantics").
//
// A panic inside a parallel round body is recovered on the real worker
// that hit it, recorded as a WorkerPanic, and re-raised on the
// coordinating goroutine once the round's synchronization has drained —
// so the remaining workers park cleanly and no goroutine is leaked. The
// machine itself survives: after the re-panic it has degraded to inline
// execution (the pool is shut down), all accounting is preserved, and
// Close remains idempotent.
//
// A fused-round barrier that stalls past the (default-off) watchdog
// deadline is reported as a BarrierStall naming the workers that never
// arrived, instead of spinning silently forever.

// WorkerPanic is the value the coordinator re-panics with after a panic
// inside a parallel round body was recovered on a real worker. Value
// holds the original panic value and Stack the panicking goroutine's
// stack at recovery time, so the failure is attributable even though it
// crossed goroutines.
//
// Worker identifies the real executor that panicked: participant 0 is
// the coordinating goroutine and participant q ≥ 1 is background worker
// q. Round is the pool's dispatch-round counter when the panic
// occurred.
type WorkerPanic struct {
	Value  any
	Worker int
	Round  uint64
	Stack  []byte
}

// Error formats the failure with the captured worker stack.
func (e *WorkerPanic) Error() string {
	return fmt.Sprintf("pram: panic in parallel round %d on worker %d: %v\nworker stack:\n%s",
		e.Round, e.Worker, e.Value, e.Stack)
}

// Unwrap exposes the original panic value when it was an error.
func (e *WorkerPanic) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// BarrierStall reports a fused-round barrier that the watchdog declared
// stalled: the coordinator waited longer than the configured deadline
// for the workers listed in Missing (participant ids, q ≥ 1) to arrive.
// The pool is abandoned when this is raised — a wedged worker cannot be
// killed, only diagnosed — and the machine degrades to inline
// execution.
type BarrierStall struct {
	Round   uint64
	Waited  time.Duration
	Missing []int
}

// Error names the workers that never reached the barrier.
func (e *BarrierStall) Error() string {
	return fmt.Sprintf("pram: fused-round barrier stalled %v in round %d; workers not arrived: %v",
		e.Waited, e.Round, e.Missing)
}

// DeadlineExceeded is the value a machine primitive panics with when
// the deadline armed by SetDeadline has passed. The abort fires on the
// coordinating goroutine between synchronous rounds — never inside a
// round body — so the worker pool stays healthy: an open Batch is
// unwound through its normal release path, the workers re-park, and
// the machine serves the next request without a rebuild. This is the
// mid-service half of a serving deadline (the same watchdog seam that
// bounds barrier waits bounds whole requests); the session layer
// translates it into engine.ErrDeadlineExceeded.
type DeadlineExceeded struct {
	// Round is the simulated round counter when the abort fired.
	Round int64
	// Over is how far past the deadline the aborting check ran — round
	// granularity, so one round's wall time bounds the overshoot.
	Over time.Duration
}

// Error formats the abort with its overshoot.
func (e *DeadlineExceeded) Error() string {
	return fmt.Sprintf("pram: deadline exceeded %v before round %d", e.Over, e.Round)
}

// Transient reports whether err (or anything it wraps) is a
// fault-class executor failure: a recovered WorkerPanic or a
// watchdog-declared BarrierStall. Both leave the failing machine
// degraded, and an engine rebuilds it before its next request.
// Deadline aborts and validation errors are not transient: they leave
// the machine healthy.
func Transient(err error) bool {
	var wp *WorkerPanic
	var bs *BarrierStall
	return errors.As(err, &wp) || errors.As(err, &bs)
}

// WithWatchdog arms the fused-round barrier watchdog: when the
// coordinator waits longer than d at a batch barrier it raises a
// BarrierStall naming the missing workers instead of spinning forever.
// Default off (d = 0). Only the coordinator's waits are monitored —
// background workers legitimately wait unboundedly while host code runs
// between fused rounds.
func WithWatchdog(d time.Duration) Option {
	return func(m *Machine) { m.watchdog = d }
}

// WithFaults installs a deterministic fault-injection plan on the
// pooled executor (no-op on the others). Used by tests to prove that
// outputs and accounting are schedule-independent and that the panic
// recovery paths work; see FaultPlan.
func WithFaults(plan *FaultPlan) Option {
	return func(m *Machine) { m.faults = plan }
}
