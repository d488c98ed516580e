// Command loadgen drives an EnginePool with synthetic request traffic
// and reports throughput and latency percentiles. Two modes:
//
//   - closed loop (default): -conc callers each issue requests back to
//     back, sweeping the comma-separated concurrency levels and
//     printing req/s and p50/p99 latency per level;
//   - open loop (-qps > 0): one pacer sends requests at the target rate
//     via non-blocking Submit, so overload shows up as shed requests
//     instead of coordinated-omission-masked latency.
//
// Both loops run on internal/load, so a request's latency runs from
// the time it was due: its scheduled send in the open loop, its
// caller's readiness in the closed loop. The open-loop row also prints
// late-p50, how late the pacer sent the median request, the part of
// p50 that is the client's own. In-process rows split each request's
// time in the pool into queue wait and service.
//
// Observability: -listen ADDR serves live Prometheus metrics on
// /metrics (plus net/http/pprof) while the run executes, and keeps
// serving after the sweep until interrupted, so the endpoint can be
// scraped or curl'ed at leisure. -trace FILE writes a Chrome
// trace-event JSON of the algorithm phase spans, viewable in Perfetto.
// -trace-slow DUR logs one structured line (with the request's trace
// id — the /debug/traces lookup key) for every request slower than
// DUR, in both in-process and -connect modes. -smoke additionally
// asserts at least one sampled trace is retrievable: in-process via a
// throwaway local /debug/traces listener, in -connect mode from the
// daemon named by -debug-addr.
//
// Usage:
//
//	loadgen -n 4096 -p 256 -engines 4 -conc 1,2,4,8 -requests 256
//	loadgen -n 4096,300 -engines 2 -qps 500 -requests 1000
//	loadgen -n 65536 -exec native -conc 1,4 -requests 256
//	loadgen -listen :9090 -trace out.json
//	loadgen -smoke                       # tiny CI smoke run
//	loadgen -connect :7070 -qps 2000     # drive a parlistd over the wire
//	loadgen -connect :7070 -smoke        # tiny wire-mode smoke run
//
// In -connect mode loadgen is a network client: requests travel to a
// running parlistd daemon over the binary framing (pipelined on one
// connection) instead of calling the pool in-process. -qps paces an
// open loop against the socket; otherwise the -conc sweep runs closed
// loops of concurrent callers. Rows add the daemon-reported mean fused
// batch size next to the usual latency percentiles. The flags that
// shape the in-process pool and what it exports (-p, -exec, -engines,
// -queue, -listen, -trace) are usage errors with -connect, and
// -debug-addr is one without it.
//
// Exit status: 0 on success, 1 on a runtime failure (including any
// request returning a wrong-shaped result), 2 on a usage error.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/load"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// usageError marks failures caused by bad invocation rather than by the
// computation; they exit with status 2.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s, flagName string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, usagef("-%s wants comma-separated positive integers (got %q)", flagName, s)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	nFlag := fs.String("n", "4096", "list size(s), comma-separated; requests cycle through them")
	p := fs.Int("p", 256, "simulated PRAM processors (in-process only)")
	execFlag := fs.String("exec", "sequential", "per-engine executor: sequential|pooled|native (in-process only)")
	enginesN := fs.Int("engines", 2, "engines in the pool (in-process only)")
	concFlag := fs.String("conc", "1,2,4", "closed-loop concurrency sweep, comma-separated")
	requests := fs.Int("requests", 128, "requests per sweep level (total in -qps mode)")
	qps := fs.Float64("qps", 0, "open-loop target request rate; 0 = closed loop")
	queueDepth := fs.Int("queue", 32, "per-engine admission queue depth (in-process only)")
	seed := fs.Int64("seed", 1, "list generator seed")
	connect := fs.String("connect", "", "drive a running parlistd at this address over the binary framing instead of an in-process pool")
	listen := fs.String("listen", "", "serve /metrics and /debug/pprof on this address; keeps serving after the run until SIGINT (in-process only)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of algorithm phases to this file (in-process only)")
	smoke := fs.Bool("smoke", false, "tiny fixed run for CI smoke tests")
	traceSlow := fs.Duration("trace-slow", 0, "log one line with the trace id for every request slower than this (0 disables)")
	debugAddr := fs.String("debug-addr", "", "with -connect: the daemon's HTTP address, for -smoke's /debug/traces check")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	// Wire mode has no pool, collector or trace of its own: refuse the
	// flags that shape them rather than ignore them. Visit sees only
	// flags set on the command line, not defaults or -smoke's settings.
	var misused error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case *connect != "" && slices.Contains([]string{"p", "exec", "engines", "queue", "listen", "trace"}, f.Name):
			misused = usagef("-%s does not apply with -connect", f.Name)
		case *connect == "" && f.Name == "debug-addr":
			misused = usagef("-debug-addr needs -connect")
		}
	})
	if misused != nil {
		return misused
	}
	if *smoke {
		*nFlag, *concFlag = "1024,300", "1,2"
		*enginesN, *requests, *p, *qps = 2, 16, 64, 0
	}
	sizes, err := parseInts(*nFlag, "n")
	if err != nil {
		return err
	}
	concs, err := parseInts(*concFlag, "conc")
	if err != nil {
		return err
	}
	if *p < 1 {
		return usagef("-p must be >= 1 (got %d)", *p)
	}
	if *enginesN < 1 {
		return usagef("-engines must be >= 1 (got %d)", *enginesN)
	}
	if *requests < 1 {
		return usagef("-requests must be >= 1 (got %d)", *requests)
	}
	// Under native the default matching request runs Match4 through the
	// fast-path kernels; Stats report zero simulated time/work for it.
	// loadgen never attaches fault plans, so no request can hit
	// engine.ErrNativeUnsupported.
	exec, err := pram.ParseExec(*execFlag)
	if err != nil {
		return usageError{err}
	}

	lists := make([]*list.List, len(sizes))
	for i, n := range sizes {
		lists[i] = list.RandomList(n, *seed)
	}

	tr := &tracer{slow: *traceSlow, log: slowLogger()}
	if *connect != "" {
		return wireMode(out, *connect, *debugAddr, lists, *requests, *qps, concs, *smoke, tr)
	}

	// The collector is always wired: its hooks are cheap relative to
	// request service times, and it is what -listen and -trace expose.
	reg := obs.NewRegistry()
	collector := obs.NewCollector(reg)
	var trace *obs.Trace
	if *traceOut != "" {
		trace = obs.NewTrace()
		collector.AttachTrace(trace)
	}
	// Tracing is opt-in for the in-process sweeps (minting contexts puts
	// every request on the span path), switched on by -trace-slow or
	// -smoke — the smoke run asserts traces are actually retrievable.
	if *traceSlow > 0 || *smoke {
		tr.rec = obs.NewSpanRecorder(obs.NewTraceSource(*seed), 1)
		collector.AttachSpans(tr.rec)
	}
	var srvErr chan error
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return fmt.Errorf("listen %s: %w", *listen, err)
		}
		defer ln.Close()
		fmt.Fprintf(out, "serving /metrics and /debug/pprof on http://%s\n", ln.Addr())
		srvErr = make(chan error, 1)
		go func() { srvErr <- http.Serve(ln, obs.Mux(reg)) }()
	}

	pool := engine.NewPool(engine.PoolConfig{
		Engines:    *enginesN,
		QueueDepth: *queueDepth,
		Observer:   collector,
		Engine:     engine.Config{Processors: *p, Exec: exec},
	})
	defer pool.Close()

	fmt.Fprintf(out, "loadgen: engines=%d queue=%d p=%d exec=%s sizes=%v\n",
		*enginesN, *queueDepth, *p, exec, sizes)

	if err := sweep(out, poolTarget(pool, lists, tr), *requests, *qps, concs, tr); err != nil {
		return err
	}
	if *qps == 0 {
		st := pool.Stats()
		fmt.Fprintf(out, "pool totals: requests=%d steps=%d failures=%d rejected=%d\n",
			st.Requests, st.Steps, st.Failures, st.Rejected)
		for _, e := range st.PerEngine {
			fmt.Fprintf(out, "  engine served=%d rebuilds=%d arena %d/%d hits\n",
				e.Served, e.Stats.Rebuilds, e.Stats.Arena.Hits, e.Stats.Arena.Gets)
		}
	}

	if *smoke && tr.rec != nil {
		// Round-trip the smoke traces through a real /debug/traces
		// listener rather than reading the recorder directly — the
		// assertion covers the export path an operator would hit.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("smoke trace listener: %w", err)
		}
		defer ln.Close()
		mux := http.NewServeMux()
		mux.Handle("/debug/traces", obs.TracesHandler(tr.rec))
		go http.Serve(ln, mux)
		if err := assertTraces(out, fmt.Sprintf("http://%s/debug/traces", ln.Addr())); err != nil {
			return err
		}
	}

	if trace != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := trace.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(out, "wrote %d trace spans to %s\n", trace.Len(), *traceOut)
	}

	if srvErr != nil {
		// Keep the metrics endpoint alive after the sweep so it can be
		// scraped; exit on interrupt (or if the server itself fails).
		fmt.Fprintf(out, "run complete; still serving metrics — interrupt to exit\n")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case <-sig:
		case err := <-srvErr:
			return fmt.Errorf("metrics server: %w", err)
		}
	}
	return nil
}

// tracer is loadgen's client-side tracing state: a span recorder for
// in-process runs (nil in wire mode — the daemon records), the
// -trace-slow threshold, and the logger the slow one-liners go to.
type tracer struct {
	rec  *obs.SpanRecorder
	slow time.Duration
	log  *slog.Logger
}

// slowLogger builds the -trace-slow logger: structured one-liners on
// stderr, so sweep rows on stdout stay machine-readable.
func slowLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// mint returns a fresh sampled trace context, or the zero context when
// the tracer has no recorder (wire mode: the daemon mints).
func (t *tracer) mint() obs.TraceContext {
	if t == nil || t.rec == nil {
		return obs.TraceContext{}
	}
	return t.rec.Source().NewContext(true)
}

// slowCheck logs one line naming the trace when a request crossed the
// -trace-slow threshold — the id is the /debug/traces lookup key.
func (t *tracer) slowCheck(tc obs.TraceContext, dur time.Duration) {
	if t == nil || t.slow <= 0 || dur < t.slow || !tc.Valid() {
		return
	}
	t.log.Warn("slow request", "trace", tc.TraceID(), "dur", dur, "threshold", t.slow)
}

// assertTraces fetches a /debug/traces endpoint and fails unless at
// least one sampled trace (a root span and its children) came back.
func assertTraces(out io.Writer, url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("smoke: fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: fetch %s: status %s", url, resp.Status)
	}
	spans, roots := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var rec struct {
			Parent string `json:"parent"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("smoke: bad span line from %s: %w", url, err)
		}
		spans++
		if rec.Parent == "" {
			roots++
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("smoke: read %s: %w", url, err)
	}
	if roots == 0 {
		return fmt.Errorf("smoke: no sampled traces at %s (%d spans)", url, spans)
	}
	fmt.Fprintf(out, "smoke: %d sampled traces (%d spans) retrievable at %s\n", roots, spans, url)
	return nil
}

// wireMode drives a running parlistd over the binary framing: an open
// loop when qps > 0, otherwise the closed-loop -conc sweep. -smoke
// shrinks it to CI size.
func wireMode(out io.Writer, addr, debugAddr string, lists []*list.List, requests int, qps float64, concs []int, smoke bool, tr *tracer) error {
	if smoke {
		requests = 40
		if qps == 0 {
			qps = 400
		}
	}
	c, err := server.Dial(addr, "loadgen")
	if err != nil {
		return fmt.Errorf("connect %s: %w", addr, err)
	}
	defer c.Close()
	if err := sweep(out, wireTarget(c, lists), requests, qps, concs, tr); err != nil {
		return err
	}
	if smoke && debugAddr != "" {
		// The daemon head-samples and tail-keeps (cold start keeps the
		// first 64 roots), so a 40-request smoke must leave traces.
		return assertTraces(out, fmt.Sprintf("http://%s/debug/traces", debugAddr))
	}
	return nil
}

// target is what a sweep drives: the in-process pool or, with
// -connect, a parlistd over the wire. send submits request i without
// waiting for it and returns the wait for its result, which checks the
// result's length and returns the request's trace context; a refusal
// at admission is wrapped in load.ErrShed. columns renders the
// target's own columns for the requests served since its last call.
type target struct {
	prefix  string
	send    func(i int) func() (obs.TraceContext, error)
	columns func() string
}

// poolTarget submits default (matching) requests over lists in turn to
// the in-process pool; a full engine queue sheds. Its columns split
// each served request's time in the pool into queue wait and service.
func poolTarget(pool *engine.EnginePool, lists []*list.List, tr *tracer) *target {
	ctx := context.Background()
	var wait, service *obs.Histogram
	reset := func() { wait, service = new(obs.Histogram), new(obs.Histogram) }
	reset()
	return &target{
		send: func(i int) func() (obs.TraceContext, error) {
			l := lists[i%len(lists)]
			tc := tr.mint()
			f, err := pool.Submit(ctx, engine.Request{List: l, Trace: tc})
			if errors.Is(err, engine.ErrQueueFull) {
				err = fmt.Errorf("%w: %w", load.ErrShed, err)
			}
			return func() (obs.TraceContext, error) {
				if err != nil {
					return tc, err
				}
				res, err := f.Wait(ctx)
				if err != nil {
					return tc, err
				}
				if len(res.In) != l.Len() {
					return tc, fmt.Errorf("short result: %d in-flags for n=%d", len(res.In), l.Len())
				}
				m := f.Metrics()
				wait.Observe(int64(m.QueueWait))
				service.Observe(int64(m.Service))
				return tc, nil
			}
		},
		columns: func() string {
			var w, s obs.HistSnapshot
			wait.Snapshot(&w)
			service.Snapshot(&s)
			reset()
			q := func(h *obs.HistSnapshot, p float64) time.Duration { return time.Duration(h.Quantile(p)) }
			return fmt.Sprintf(" queue-wait p50=%-10v p99=%-10v service p50=%-10v p99=%v",
				q(&w, 0.50), q(&w, 0.99), q(&s, 0.50), q(&s, 0.99))
		},
	}
}

// wireTarget submits rank requests over lists in turn to a parlistd,
// pipelined on one connection; a daemon shed (queue full, over limit)
// sheds. Its column is the daemon-reported mean fused batch size.
func wireTarget(c *server.Client, lists []*list.List) *target {
	var batched, served atomic.Int64
	return &target{
		prefix: "wire ",
		send: func(i int) func() (obs.TraceContext, error) {
			l := lists[i%len(lists)]
			ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
			return func() (obs.TraceContext, error) {
				if err != nil {
					return obs.TraceContext{}, fmt.Errorf("submit: %w", err)
				}
				r, ok := <-ch
				switch {
				case !ok:
					return obs.TraceContext{}, errors.New("connection lost")
				case r.Status == server.StatusShed || r.Status == server.StatusOverLimit:
					return r.Trace, fmt.Errorf("%w: %s", load.ErrShed, r.Message)
				case r.Status != server.StatusOK:
					return r.Trace, fmt.Errorf("status %d: %s", r.Status, r.Message)
				case len(r.Result.Ranks) != l.Len():
					return r.Trace, fmt.Errorf("short result: %d ranks for n=%d", len(r.Result.Ranks), l.Len())
				}
				batched.Add(int64(r.Batched))
				served.Add(1)
				return r.Trace, nil
			}
		},
		columns: func() string {
			mean := 0.0
			if n := served.Swap(0); n > 0 {
				mean = float64(batched.Swap(0)) / float64(n)
			}
			return fmt.Sprintf(" mean-batch=%.2f", mean)
		},
	}
}

// sweep prints the open-loop row when qps > 0, and otherwise one
// closed-loop row per level of concs; each row runs requests requests.
func sweep(out io.Writer, t *target, requests int, qps float64, concs []int, tr *tracer) error {
	if qps > 0 {
		s, err := measure(t, requests, tr, func(send func(int) func() error) []load.Record {
			return load.Open(load.Even(requests, qps), send)
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%sqps-target=%.0f offered=%d served=%d shed=%d achieved=%.1f/s p50=%v p99=%v late-p50=%v%s\n",
			t.prefix, qps, requests, s.Served, s.Shed, s.Rate, s.P50, s.P99, s.LateP50, t.columns())
		return nil
	}
	for _, conc := range concs {
		s, err := measure(t, max(requests, conc), tr, func(send func(int) func() error) []load.Record {
			return load.Closed(requests, conc, func(i int) error { return send(i)() })
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%sconc=%-3d requests=%-5d shed=%-3d req/s=%-9.1f p50=%-10v p99=%-10v%s\n",
			t.prefix, conc, s.Served+s.Shed, s.Shed, s.Rate, s.P50, s.P99, t.columns())
	}
	return nil
}

// measure runs one row of at most size requests on t through drive,
// logs every served request slower than -trace-slow, and summarizes
// the row. Any failed request fails it.
func measure(t *target, size int, tr *tracer, drive func(send func(int) func() error) []load.Record) (load.Summary, error) {
	traces := make([]obs.TraceContext, size)
	recs := drive(func(i int) func() error {
		wait := t.send(i)
		return func() (err error) {
			traces[i], err = wait()
			return err
		}
	})
	for i := range recs {
		if recs[i].Err == nil {
			tr.slowCheck(traces[i], recs[i].Latency())
		}
	}
	s := load.Summarize(recs)
	if s.Err != nil {
		return s, fmt.Errorf("%s%d of %d requests failed, first: %w", t.prefix, s.Failed, len(recs), s.Err)
	}
	return s, nil
}
