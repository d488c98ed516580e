package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"context"

	"parlist/internal/engine"
	"parlist/internal/obs"
)

// TenantHeader is the HTTP header that names the caller's tenant for
// rate limiting; absent or empty means DefaultTenant. The binary
// framing carries the tenant in the request frame instead.
const TenantHeader = "X-Parlist-Tenant"

// DefaultTenant is the bucket requests without a tenant land in.
const DefaultTenant = "anonymous"

// MaxTenantLen caps a tenant name's length in bytes. A longer name is
// refused as invalid on both framings: names key the rate limiter's
// buckets and the per-tenant shed series.
const MaxTenantLen = 256

// TraceHeader is the HTTP header carrying a request's trace context,
// in obs.TraceContext.Header form (<32 hex trace>-<16 hex span>-<2 hex
// flags>). The server parses it on the way in (garbage is ignored, not
// an error) and echoes the request's — possibly server-minted —
// context on the way out. The binary framing carries the same context
// in its version-2 request header instead.
const TraceHeader = "X-Parlist-Trace"

// Config shapes a Server. Pool is the only required field.
type Config struct {
	// Pool serves the requests. The server owns its lifecycle from
	// here on: Shutdown closes it (exactly once — EnginePool.Close is
	// idempotent).
	Pool *engine.EnginePool
	// BatchSize is the coalescing batcher's flush size (default 16).
	// 1 disables coalescing — every request flushes alone but still
	// rides the batcher, so timestamps mean the same thing.
	BatchSize int
	// MaxWait caps how long the oldest item of a pending group waits
	// before the group flushes regardless of size (default 500µs). The
	// batcher holds a group only while every engine is busy and flushes
	// it the moment one is idle, so MaxWait binds only when every
	// engine stays busy (or every breaker open) for that long.
	MaxWait time.Duration
	// MaxNodes caps a single request's node count (default 1<<24;
	// larger requests are refused with StatusInvalid).
	MaxNodes int
	// MaxFrame caps a binary frame's payload bytes (default
	// DefaultMaxFrame).
	MaxFrame int
	// RatePerSec and Burst configure the per-tenant token bucket
	// (0 rate = unlimited).
	RatePerSec float64
	Burst      float64
	// Registry receives the parlistd_* metric families and backs the
	// /metrics handler (default: a fresh registry).
	Registry *obs.Registry
	// Trace, when non-nil, enables distributed tracing: the server
	// mints a TraceContext for requests that arrive without one,
	// records its own life-cycle spans (request/inbox/queue/engine)
	// into the recorder, and serves the recorder on /debug/traces. To
	// also capture pool-side spans (retries, sharded steps), attach the
	// same recorder to the pool's obs.Collector (AttachSpans). Nil
	// disables tracing entirely — wire contexts still propagate to the
	// engine untouched.
	Trace *obs.SpanRecorder
	// TraceSample is the head-sampling probability for requests that
	// arrive without a wire context (0 defaults to 1 — sample all and
	// let tail sampling decide keeps; negative disables head sampling).
	// Wire-propagated contexts keep their own sampling flag.
	TraceSample float64
}

// Server is the serving daemon's core: admission control (drain state,
// tenant rate limits), the coalescing batcher, and both wire framings.
// Create one with New, expose Handler over HTTP and ServeBinary over a
// raw listener, and stop it with Shutdown.
type Server struct {
	cfg      Config
	pool     *engine.EnginePool
	reg      *obs.Registry
	met      *serverMetrics
	bat      *batcher
	lim      *rateLimiter
	maxFrame int
	// items recycles request items, with their decoded arrays, results
	// and response frames, across both framings.
	items itemPool

	// rec and sampleRate are the tracing knobs resolved from Config
	// (rec nil = tracing off).
	rec        *obs.SpanRecorder
	sampleRate float64

	// mu guards draining and the listener/conn sets. Admission holds
	// it as a reader across the draining check and the batcher send,
	// so once Shutdown flips draining under the write lock there are
	// no in-flight senders and closing the batcher inbox is safe.
	mu        sync.RWMutex
	draining  bool
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}

	// inflight tracks admitted requests up to their response write;
	// connWG tracks binary connections up to their writer's exit.
	inflight sync.WaitGroup
	connWG   sync.WaitGroup

	shutOnce sync.Once
	shutErr  error
}

// New returns a running server around cfg.Pool.
func New(cfg Config) (*Server, error) {
	if cfg.Pool == nil {
		return nil, errors.New("server: Config.Pool is required")
	}
	if cfg.BatchSize < 1 {
		cfg.BatchSize = 16
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 500 * time.Microsecond
	}
	if cfg.MaxNodes < 1 {
		cfg.MaxNodes = 1 << 24
	}
	if cfg.MaxFrame < 1 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	rate := cfg.TraceSample
	switch {
	case rate == 0:
		rate = 1
	case rate < 0:
		rate = 0
	case rate > 1:
		rate = 1
	}
	s := &Server{
		cfg:        cfg,
		pool:       cfg.Pool,
		reg:        cfg.Registry,
		maxFrame:   cfg.MaxFrame,
		lim:        newRateLimiter(cfg.RatePerSec, cfg.Burst),
		rec:        cfg.Trace,
		sampleRate: rate,
		listeners:  make(map[net.Listener]struct{}),
		conns:      make(map[net.Conn]struct{}),
	}
	s.met = newServerMetrics(s.reg)
	s.bat = newBatcher(s)
	return s, nil
}

// Registry returns the registry the server's metrics land in.
func (s *Server) Registry() *obs.Registry { return s.reg }

func (s *Server) isDraining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

func (s *Server) trackListener(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return errors.New("server: draining")
	}
	s.listeners[ln] = struct{}{}
	return nil
}

func (s *Server) trackConn(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// sampleHead makes the head-sampling decision for a request that
// arrived without a wire context.
func (s *Server) sampleHead() bool {
	if s.sampleRate >= 1 {
		return true
	}
	if s.sampleRate <= 0 {
		return false
	}
	h := s.rec.Source().SpanID()
	return float64(h>>11)/float64(1<<53) < s.sampleRate
}

// rootSpan records the trace's root "request" span — the final span of
// a server-side trace, emitted when the request's outcome is known.
func (s *Server) rootSpan(tc obs.TraceContext, start time.Time, st byte) {
	if s.rec == nil || !tc.Sampled {
		return
	}
	status := ""
	if st != StatusOK {
		status = statusName(st)
	}
	s.rec.Record(obs.Span{
		TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, SpanID: tc.SpanID,
		Name: "request", Shard: -1, Start: start, Dur: time.Since(start), Status: status,
	})
}

// childSpan records one child span of tc's root; link ties the spans
// of one fused batch together (0 = none).
func (s *Server) childSpan(tc obs.TraceContext, link uint64, name string, shard int, start time.Time, d time.Duration, status string) {
	if s.rec == nil || !tc.Sampled {
		return
	}
	s.rec.Record(obs.Span{
		TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, ParentID: tc.SpanID, Link: link,
		Name: name, Shard: shard, Start: start, Dur: d, Status: status,
	})
}

// submit admits it without blocking. The framing has drawn it from
// s.items and set its request, tenant and out queue. Every outcome
// reaches finish exactly once: a refusal here, or the batcher's drop
// or batch result later.
func (s *Server) submit(it *item, proto string) {
	req := &it.bi.Req
	s.met.requests(proto, req.Op).Inc()
	it.enq = time.Now()
	if it.tenant == "" {
		it.tenant = DefaultTenant
	}
	if s.rec != nil && !req.Trace.Valid() {
		req.Trace = s.rec.Source().NewContext(s.sampleHead())
	}
	if err := s.refusal(it); err != nil {
		s.finish(it, StatusInvalid, err)
		return
	}

	s.mu.RLock()
	if s.draining {
		s.mu.RUnlock()
		s.finish(it, StatusDraining, errors.New("server: draining"))
		return
	}
	if !s.lim.allow(it.tenant) {
		s.mu.RUnlock()
		s.met.sheds(it.tenant, "over_limit").Inc()
		s.finish(it, StatusOverLimit, fmt.Errorf("server: tenant %q over rate limit", it.tenant))
		return
	}
	select {
	case s.bat.in <- it:
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		s.met.sheds(it.tenant, "inbox_full").Inc()
		s.finish(it, StatusShed, errors.New("server: batcher inbox full"))
	}
}

// refusal returns why the server will not queue it, or nil: a missing
// or oversized list, more processors than the list has nodes (the
// simulated fallback's scratch and time grow with p, not n), or an
// oversized tenant name.
func (s *Server) refusal(it *item) error {
	req := &it.bi.Req
	if req.List == nil {
		return engine.ErrNilList
	}
	n := req.List.Len()
	switch {
	case n > s.cfg.MaxNodes:
		return fmt.Errorf("server: %d nodes exceeds limit %d", n, s.cfg.MaxNodes)
	case req.Processors > n:
		return fmt.Errorf("server: %d processors exceeds the list's %d nodes", req.Processors, n)
	case len(it.tenant) > MaxTenantLen:
		return fmt.Errorf("server: %d-byte tenant name exceeds limit %d", len(it.tenant), MaxTenantLen)
	}
	return nil
}

// finish settles a submitted item with status st: it records the
// outcome on the metrics and the trace's root span, then hands the
// item to its out queue. The send never blocks: an HTTP handler's
// queue has a slot for its one item, and a binary connection's has
// maxConnInflight slots, as many as the items it may hold.
func (s *Server) finish(it *item, st byte, err error) {
	it.status, it.err = st, err
	tc := it.bi.Req.Trace
	if st == StatusOK {
		s.met.serviceNs.Observe(it.bi.End.Sub(it.bi.Start).Nanoseconds())
		if d := time.Since(it.enq).Nanoseconds(); tc.Sampled {
			// Sampled requests stamp their trace id onto the latency
			// histogram as an exemplar — the metrics→traces bridge.
			s.met.respondNs.ObserveExemplar(d, tc.TraceHi, tc.TraceLo)
		} else {
			s.met.respondNs.Observe(d)
		}
	} else {
		s.met.failures(statusName(st)).Inc()
	}
	s.rootSpan(tc, it.enq, st)
	it.out <- it
}

// release retires an item once its response has been written: it
// returns to the item pool, and an admitted item leaves Shutdown's
// drain count.
func (s *Server) release(it *item) {
	admitted := it.admitted
	s.items.put(it)
	if admitted {
		s.met.inflight.Add(-1)
		s.inflight.Done()
	}
}

// Handler returns the HTTP side of the server: the seven /v1/<op>
// JSON endpoints plus /metrics, /healthz, /debug/pprof and — when
// tracing is configured — /debug/traces and /statusz.
func (s *Server) Handler() http.Handler {
	mux := obs.Mux(s.reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.Handle("/debug/traces", obs.TracesHandler(s.rec))
	mux.HandleFunc("/statusz", s.statusz)
	for name, op := range opsByName {
		mux.HandleFunc("/v1/"+name, s.httpOp(op))
	}
	return mux
}

// httpOp builds the JSON handler for one op.
func (s *Server) httpOp(op engine.Op) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		// ~3 decimal digits + separator per int keeps the body bound
		// proportional to the node cap without rejecting valid lists.
		r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxNodes)*32+4096)
		var jr jsonRequest
		if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
			writeJSONError(w, StatusInvalid, obs.TraceContext{}, fmt.Errorf("decode request: %w", err))
			return
		}
		req, err := buildRequest(op, &jr)
		if err != nil {
			writeJSONError(w, StatusInvalid, obs.TraceContext{}, err)
			return
		}
		// A wire-propagated trace context rides in; garbage is treated
		// as absent (the server mints a fresh context instead).
		req.Trace, _ = obs.ParseTraceHeader(r.Header.Get(TraceHeader))
		it := s.items.get()
		defer s.release(it)
		it.bi.Req = req
		it.bi.Ctx = r.Context()
		it.tenant = r.Header.Get(TenantHeader)
		done := make(chan *item, 1)
		it.out = done
		s.submit(it, "http")
		<-done
		tc := it.bi.Req.Trace
		if tc.Valid() {
			w.Header().Set(TraceHeader, tc.Header())
		}
		if it.status != StatusOK {
			writeJSONError(w, it.status, tc, it.err)
			return
		}
		res := &it.bi.Res
		resp := jsonResponse{
			Op:        res.Op.String(),
			Algorithm: res.Algorithm,
			In:        res.In,
			Labels:    res.Labels,
			Ranks:     res.Ranks,
			Size:      res.Size,
			Sets:      res.Sets,
			Rounds:    res.Rounds,
			TableSize: res.TableSize,
			SimTime:   res.Stats.Time,
			SimWork:   res.Stats.Work,
			Batched:   it.batched,
			Timing: jsonTiming{
				EnqueueNS: it.enq.UnixNano(),
				FlushNS:   it.flush.UnixNano(),
				ServiceNS: it.bi.Start.UnixNano(),
				RespondNS: time.Now().UnixNano(),
			},
		}
		if tc.Valid() {
			resp.TraceID = tc.TraceID()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&resp)
	}
}

func writeJSONError(w http.ResponseWriter, st byte, tc obs.TraceContext, err error) {
	msg := statusName(st)
	if err != nil {
		msg = err.Error()
	}
	je := jsonError{Error: msg, Code: statusName(st)}
	if tc.Valid() {
		je.TraceID = tc.TraceID()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatus(st))
	json.NewEncoder(w).Encode(&je)
}

// Shutdown drains the server: stop admitting, flush every pending
// coalescing group, wait for in-flight batches to be served and their
// responses written, then close the engine pool. ctx bounds the wait;
// on expiry the remaining connections are closed anyway and ctx's
// error is returned. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		for ln := range s.listeners {
			ln.Close()
		}
		s.mu.Unlock()

		// No sender can be inside a batcher send now: senders hold the
		// read lock across the draining check and the send.
		close(s.bat.in)
		<-s.bat.exited

		done := make(chan struct{})
		go func() {
			s.bat.wg.Wait()   // every fused batch resolved
			s.inflight.Wait() // every response written
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.shutErr = ctx.Err()
		}

		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.connWG.Wait()
		s.pool.Close()
	})
	return s.shutErr
}
