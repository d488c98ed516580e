// Package server is parlistd's wire layer: it parks an [engine.EnginePool]
// behind a network front door and coalesces small concurrent requests
// into fused machine runs.
//
// Two framings share one request path. HTTP/JSON (POST /v1/<op>) is the
// debuggable cold path; a length-prefixed binary framing (see binary.go)
// is the hot path, pipelined over a single connection. Every admitted
// request — whichever framing carried it — becomes an item in the
// coalescing batcher (see batcher.go), which groups items by
// (op, size class) and flushes a group as ONE [engine.EnginePool.SubmitBatch]
// call as soon as an engine is idle, when it reaches BatchSize items,
// or when its oldest item has waited MaxWait with every engine busy.
// Results fan back out per caller stamped with the item's
// enqueue → flush → service → respond timestamps, and the same
// timestamps feed the parlistd_* metric families on /metrics.
//
// Admission control is layered in front of the batcher: a draining
// server refuses new work (StatusDraining), a per-tenant token bucket
// sheds over-limit tenants (StatusOverLimit), and a full batcher or
// engine queue sheds the request (StatusShed). [Server.Shutdown]
// drains in-flight batches to completion before closing the pool,
// reusing EnginePool.Close's exactly-once discipline.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/partition"
)

// Status codes shared by both framings. The binary framing carries them
// verbatim in the response header; HTTP maps them onto status codes via
// httpStatus.
const (
	// StatusOK reports a served request; the response carries a result.
	StatusOK byte = 0
	// StatusInvalid reports a request the server refused to run: a
	// malformed frame, an unknown op/algorithm/scheme, a validation
	// failure, or an input over the configured node cap.
	StatusInvalid byte = 1
	// StatusShed reports overload: the batcher or the chosen
	// engine's admission queue was full. The request did not run;
	// retrying after backoff is safe.
	StatusShed byte = 2
	// StatusOverLimit reports the caller's tenant token bucket was
	// empty. The request did not run.
	StatusOverLimit byte = 3
	// StatusDeadline reports the request's own budget (Deadline or a
	// context deadline) expired while queued, batched, or mid-service.
	StatusDeadline byte = 4
	// StatusInternal reports an engine-side failure (a recovered
	// machine fault, an unexpected error) or a caller that vanished.
	StatusInternal byte = 5
	// StatusDraining reports a server in graceful shutdown; no new
	// work is admitted.
	StatusDraining byte = 6
)

// statusName returns the code's label used on metrics and in docs.
func statusName(st byte) string {
	switch st {
	case StatusOK:
		return "ok"
	case StatusInvalid:
		return "invalid"
	case StatusShed:
		return "shed"
	case StatusOverLimit:
		return "over_limit"
	case StatusDeadline:
		return "deadline"
	case StatusInternal:
		return "internal"
	case StatusDraining:
		return "draining"
	}
	return fmt.Sprintf("status(%d)", st)
}

// httpStatus maps a wire status onto the HTTP status code the JSON
// framing responds with.
func httpStatus(st byte) int {
	switch st {
	case StatusOK:
		return http.StatusOK
	case StatusInvalid:
		return http.StatusBadRequest
	case StatusShed, StatusOverLimit:
		return http.StatusTooManyRequests
	case StatusDeadline:
		return http.StatusGatewayTimeout
	case StatusDraining:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// statusOf classifies a served item's error into a wire status.
func statusOf(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, engine.ErrDeadlineExceeded),
		errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, engine.ErrQueueFull):
		return StatusShed
	case errors.Is(err, engine.ErrPoolClosed), errors.Is(err, engine.ErrClosed):
		return StatusDraining
	case errors.Is(err, engine.ErrNilList),
		errors.Is(err, engine.ErrInvalidList),
		errors.Is(err, engine.ErrBadProcessors),
		errors.Is(err, engine.ErrUnknownAlgorithm),
		errors.Is(err, engine.ErrUnknownRankScheme),
		errors.Is(err, engine.ErrBadValues),
		errors.Is(err, engine.ErrBadIterations),
		errors.Is(err, engine.ErrListTooShort),
		errors.Is(err, engine.ErrBadSchedule),
		errors.Is(err, engine.ErrUnknownOp),
		errors.Is(err, engine.ErrNativeUnsupported):
		return StatusInvalid
	}
	return StatusInternal
}

// opsByName maps URL path segments (and client-facing op names) onto
// engine ops; the seven served operations. Each name is its op's
// String, which names the op on responses and metrics.
var opsByName = map[string]engine.Op{
	"matching":   engine.OpMatching,
	"partition":  engine.OpPartition,
	"threecolor": engine.OpThreeColor,
	"mis":        engine.OpMIS,
	"rank":       engine.OpRank,
	"prefix":     engine.OpPrefix,
	"schedule":   engine.OpSchedule,
}

// jsonRequest is the HTTP/JSON request body for every /v1/<op>
// endpoint; the op itself is the URL path segment. Zero values defer to
// the engine's defaults, mirroring engine.Request.
type jsonRequest struct {
	Next       []int  `json:"next"`
	Head       int    `json:"head"`
	Processors int    `json:"processors,omitempty"`
	Algorithm  string `json:"algorithm,omitempty"`
	I          int    `json:"i,omitempty"`
	UseTable   bool   `json:"use_table,omitempty"`
	CRCW       bool   `json:"crcw,omitempty"`
	Variant    string `json:"variant,omitempty"` // "msb" (default) or "lsb"
	Seed       int64  `json:"seed,omitempty"`
	Iters      int    `json:"iters,omitempty"`
	Rank       string `json:"rank,omitempty"`
	Values     []int  `json:"values,omitempty"`
	Labels     []int  `json:"labels,omitempty"`
	K          int    `json:"k,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
}

// jsonTiming is the per-request life-cycle timestamps (Unix
// nanoseconds): admission into the batcher, batch flush, service start
// on the machine, and response write.
type jsonTiming struct {
	EnqueueNS int64 `json:"enqueue_unix_ns"`
	FlushNS   int64 `json:"flush_unix_ns"`
	ServiceNS int64 `json:"service_unix_ns"`
	RespondNS int64 `json:"respond_unix_ns"`
}

// jsonResponse is the HTTP/JSON success body. Batched is the size of
// the fused batch this request rode in (1 = it ran alone).
type jsonResponse struct {
	Op        string     `json:"op"`
	Algorithm string     `json:"algorithm,omitempty"`
	In        []bool     `json:"in,omitempty"`
	Labels    []int      `json:"labels,omitempty"`
	Ranks     []int      `json:"ranks,omitempty"`
	Size      int        `json:"size"`
	Sets      int        `json:"sets,omitempty"`
	Rounds    int        `json:"rounds,omitempty"`
	TableSize int        `json:"table_size,omitempty"`
	SimTime   int64      `json:"sim_time"`
	SimWork   int64      `json:"sim_work"`
	Batched   int        `json:"batched"`
	TraceID   string     `json:"trace_id,omitempty"`
	Timing    jsonTiming `json:"timing"`
}

// jsonError is the HTTP/JSON failure body; Code is statusName's label
// and TraceID — present when the request was traced — keys
// /debug/traces.
type jsonError struct {
	Error   string `json:"error"`
	Code    string `json:"code"`
	TraceID string `json:"trace_id,omitempty"`
}

// buildRequest converts a decoded JSON body into an engine request.
// Only the string-typed enums are validated here — everything else is
// the engine's own validation, so wire requests fail exactly like
// in-process ones.
func buildRequest(op engine.Op, jr *jsonRequest) (engine.Request, error) {
	req := engine.Request{
		Op:         op,
		Processors: jr.Processors,
		Algorithm:  engine.Algorithm(jr.Algorithm),
		I:          jr.I,
		UseTable:   jr.UseTable,
		CRCW:       jr.CRCW,
		Seed:       jr.Seed,
		Iters:      jr.Iters,
		Rank:       engine.RankScheme(jr.Rank),
		Values:     jr.Values,
		Labels:     jr.Labels,
		K:          jr.K,
		Deadline:   time.Duration(jr.DeadlineMS) * time.Millisecond,
	}
	switch jr.Variant {
	case "", "msb":
		req.Variant = partition.MSB
	case "lsb":
		req.Variant = partition.LSB
	default:
		return req, fmt.Errorf("unknown variant %q", jr.Variant)
	}
	if len(jr.Next) > 0 {
		req.List = &list.List{Next: jr.Next, Head: jr.Head}
	}
	return req, nil
}
