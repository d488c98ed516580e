package engine

// Trace-span emission for the pool. Spans flow to the pool's Observer
// as KindSpan events; every site gates on an observer being attached
// AND the request's TraceContext being sampled, so the untraced
// request path is bit-for-bit the pre-tracing one — the zero-alloc
// steady-state guarantee and Stats bit-identity are preserved by
// construction, not by luck.
//
// Span topology is flat: one root "request" span per trace plus one
// child per stage ("queue", "engine"/"step-*", "exchange"),
// all parented directly onto the root. Children are emitted as their
// stage completes; the root is emitted last, at terminal resolution,
// because the recorder finalizes a trace when its root lands
// (obs.SpanRecorder).

import (
	"context"
	"errors"
	"time"

	"parlist/internal/obs"
	"parlist/internal/pram"
)

// traceOf returns the trace context a future's spans belong to. Step
// futures carry their sharded request's context (shard.go) and Submit
// futures their request's; a SubmitBatch batch is untraced as a unit —
// the serving layer traces each fused item itself.
func traceOf(f *Future) obs.TraceContext {
	switch {
	case f.step != nil:
		return f.step.trace
	case f.solo[0] != nil:
		return f.solo[0].Req.Trace
	}
	return obs.TraceContext{}
}

// childSpan emits one child span of tc's root; the recorder mints the
// span's own id. Callers must have checked p.cfg.Observer != nil &&
// tc.Sampled.
func (p *EnginePool) childSpan(tc obs.TraceContext, name string, shard int, start time.Time, d time.Duration, status string) {
	p.cfg.Observer.Observe(obs.Event{Kind: obs.KindSpan, Span: obs.Span{TraceHi: tc.TraceHi, TraceLo: tc.TraceLo,
		ParentID: tc.SpanID, Name: name, Shard: shard, Start: start, Dur: d, Status: status}})
}

// rootSpan emits tc's root "request" span — the trace's final span.
func (p *EnginePool) rootSpan(tc obs.TraceContext, shard int, start time.Time, d time.Duration, status string) {
	p.cfg.Observer.Observe(obs.Event{Kind: obs.KindSpan, Span: obs.Span{TraceHi: tc.TraceHi, TraceLo: tc.TraceLo,
		SpanID: tc.SpanID, Name: "request", Shard: shard, Start: start, Dur: d, Status: status}})
}

// spanStatus classifies an error as a span status tag ("" = success).
func spanStatus(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, ErrQueueFull):
		return "shed"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case pram.Transient(err):
		return "transient"
	default:
		return "error"
	}
}
