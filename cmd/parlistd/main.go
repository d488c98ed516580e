// Command parlistd serves all seven list operations over the network,
// backed by a warm EnginePool and internal/server's coalescing
// batcher: while every engine is busy, concurrent same-op,
// same-size-class requests fuse into one machine run and fan back out
// per caller; a request that finds an engine idle flushes at once.
//
// Two listeners: -http serves the JSON framing (POST /v1/{matching,
// partition,threecolor,mis,rank,prefix,schedule}) plus /metrics,
// /healthz, /statusz, /debug/traces and /debug/pprof; -binary serves
// the length-prefixed binary framing that loadgen -connect and
// internal/server.Client speak.
//
// Every admitted request is traced: contexts arrive on the wire
// (X-Parlist-Trace, or the binary frame's trace block) or are minted
// here with probability -trace-sample. Finished traces tail-sample
// into a ring (-trace-keep; errors and slow outliers always kept) and
// export at /debug/traces; /statusz shows the slowest kept traces
// live.
//
// Usage:
//
//	parlistd                              # defaults: :8080 HTTP, :7070 binary, native kernels
//	parlistd -engines 4 -p 256 -exec sequential -batch 32 -maxwait 1ms
//	parlistd -rate 100 -burst 200         # per-tenant token buckets
//	curl -s localhost:8080/v1/rank -d '{"next": [1, 2, -1]}'
//
// SIGTERM or SIGINT starts a graceful drain: listeners close, pending
// coalescing groups flush, in-flight batches run to completion and
// their responses are written, then the pool shuts down. -drain bounds
// the wait.
//
// See OPERATIONS.md for the full runbook: every flag, every exported
// metric family, tuning guidance and a troubleshooting table.
//
// Exit status: 0 on clean shutdown, 1 on a runtime failure, 2 on a
// usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// HTTP connection bounds. A client must send its request headers within
// readHeaderTimeout, and a keep-alive connection idle for idleTimeout
// is closed, so a client that dribbles its headers or goes silent
// cannot hold a connection and its goroutine indefinitely. Request
// bodies get no deadline: a large list legitimately uploads slowly, and
// -max-nodes already bounds its size.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in an http.Server with the connection bounds.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// usageError marks failures caused by bad invocation; they exit 2.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "parlistd: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("parlistd", flag.ContinueOnError)
	httpAddr := fs.String("http", ":8080", "HTTP/JSON listener address (also /metrics, /healthz, /debug/pprof)")
	binAddr := fs.String("binary", ":7070", "binary-framing listener address; empty disables it")
	enginesN := fs.Int("engines", 2, "engines in the pool")
	queueDepth := fs.Int("queue", 64, "per-engine admission queue depth")
	p := fs.Int("p", 256, "simulated PRAM processors per engine")
	execFlag := fs.String("exec", "native", "per-engine executor: native|sequential|pooled (native serves kernels, with sim_time/sim_work 0; sequential restores the model's step counts)")
	workers := fs.Int("workers", 0, "real workers per engine for the parallel executors (0 = GOMAXPROCS ÷ engines, at least 1)")
	batch := fs.Int("batch", 16, "coalescing batch size (1 = per-request dispatch)")
	maxWait := fs.Duration("maxwait", 500*time.Microsecond, "cap on how long a coalescing group is held while every engine is busy (groups flush at once when an engine is idle)")
	rate := fs.Float64("rate", 0, "per-tenant admitted requests/second (0 = unlimited)")
	burst := fs.Float64("burst", 0, "per-tenant token-bucket burst (defaults to rate)")
	maxNodes := fs.Int("max-nodes", 1<<24, "largest accepted input list")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown budget after SIGTERM")
	traceSample := fs.Float64("trace-sample", 1, "head-sampling probability for requests arriving without a trace context (0 disables minting)")
	traceKeep := fs.Float64("trace-keep", 0.1, "tail-sampling keep rate for unremarkable traces (errors and slow outliers are always kept)")
	traceSeed := fs.Int64("trace-seed", 0, "trace-id generator seed (0 = nondeterministic)")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *enginesN < 1 || *queueDepth < 1 || *p < 1 || *batch < 1 {
		return usagef("-engines, -queue, -p and -batch must be >= 1")
	}
	if *p > engine.MaxProcessors {
		return usagef("-p must be <= %d: the engines refuse more", engine.MaxProcessors)
	}
	exec, err := pram.ParseExec(*execFlag)
	if err != nil {
		return usageError{err}
	}
	if *burst == 0 {
		*burst = *rate
	}

	// One registry carries both layers: the pool collector's engine/
	// queue families and the server's parlistd_* families share the
	// /metrics endpoint. One trace source + recorder likewise spans both
	// layers: the pool collector's engine-side spans and the server's
	// request/inbox/queue spans land in the same ring, so /debug/traces
	// shows the whole inbox→batch→queue→engine tree per request.
	reg := obs.NewRegistry()
	collector := obs.NewCollector(reg)
	seed := *traceSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rec := obs.NewSpanRecorder(obs.NewTraceSource(seed), *traceKeep)
	collector.AttachSpans(rec)
	pool := engine.NewPool(engine.PoolConfig{
		Engines:    *enginesN,
		QueueDepth: *queueDepth,
		Observer:   collector,
		Engine:     engine.Config{Processors: *p, Exec: exec, Workers: *workers},
	})
	srv, err := server.New(server.Config{
		Pool:        pool,
		BatchSize:   *batch,
		MaxWait:     *maxWait,
		MaxNodes:    *maxNodes,
		RatePerSec:  *rate,
		Burst:       *burst,
		Registry:    reg,
		Trace:       rec,
		TraceSample: *traceSample,
	})
	if err != nil {
		return err
	}

	httpLn, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *httpAddr, err)
	}
	httpSrv := newHTTPServer(srv.Handler())
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(httpLn) }()
	fmt.Fprintf(out, "parlistd: HTTP/JSON on http://%s\n", httpLn.Addr())

	binErr := make(chan error, 1)
	if *binAddr != "" {
		binLn, err := net.Listen("tcp", *binAddr)
		if err != nil {
			return fmt.Errorf("listen %s: %w", *binAddr, err)
		}
		go func() { binErr <- srv.ServeBinary(binLn) }()
		fmt.Fprintf(out, "parlistd: binary framing on %s\n", binLn.Addr())
	}
	fmt.Fprintf(out, "parlistd: engines=%d queue=%d p=%d exec=%s batch=%d maxwait=%v rate=%.0f/s trace-sample=%.2f\n",
		*enginesN, *queueDepth, *p, exec, *batch, *maxWait, *rate, *traceSample)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(out, "parlistd: %v — draining (budget %v)\n", s, *drain)
	case err := <-httpErr:
		srv.Shutdown(context.Background())
		return fmt.Errorf("http server: %w", err)
	case err := <-binErr:
		if err != nil {
			srv.Shutdown(context.Background())
			return fmt.Errorf("binary server: %w", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// HTTP first (stops new JSON requests and waits for handlers),
	// then the server core (flushes pending groups, serves in-flight
	// batches, closes the pool).
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(out, "parlistd: http drain: %v\n", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintf(out, "parlistd: drained\n")
	return nil
}
