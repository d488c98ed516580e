// Command loadgen drives an EnginePool with synthetic request traffic
// and reports throughput and latency percentiles. Two modes:
//
//   - closed loop (default): -conc workers each issue requests
//     back-to-back via Do, sweeping the comma-separated concurrency
//     levels and printing req/s, p50/p99 latency and queue-wait per
//     level;
//   - open loop (-qps > 0): one paced submitter targets the given
//     request rate via non-blocking Submit, so overload shows up as
//     ErrQueueFull drops instead of coordinated-omission-masked
//     latency.
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
//	loadgen -n 65536 -engines 4 -shards 4 -conc 1,2  # sharded rank plans
//	loadgen -listen :9090 -trace out.json
//	loadgen -smoke                       # tiny CI smoke run
//	loadgen -chaos                       # resilience soak: faults, kills, deadlines
//	loadgen -chaos -smoke                # scaled-down soak for CI (run under -race)
//	loadgen -connect :7070 -qps 2000     # drive a parlistd over the wire
//	loadgen -connect :7070 -smoke        # tiny wire-mode smoke run
//
// In -connect mode loadgen is a network client: requests travel to a
// running parlistd daemon over the binary framing (pipelined on one
// connection) instead of calling the pool in-process. -qps paces an
// open loop against the socket; otherwise the -conc sweep runs closed
// loops of concurrent callers. Rows add the daemon-reported mean fused
// batch size next to the usual latency percentiles.
//
// In -chaos mode loadgen hands the run to internal/chaos: thousands of
// requests with injected fault plans, random engine kills and deadline
// pressure, audited for exactly-once Future resolution, bit-identical
// successes, typed failures and zero goroutine leaks. Any violated
// invariant exits 1.
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
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"parlist/internal/chaos"
	"parlist/internal/engine"
	"parlist/internal/list"
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

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	nFlag := fs.String("n", "4096", "list size(s), comma-separated; requests cycle through them")
	p := fs.Int("p", 256, "simulated PRAM processors")
	execFlag := fs.String("exec", "sequential", "per-engine executor: sequential|pooled|native")
	enginesN := fs.Int("engines", 2, "engines in the pool")
	concFlag := fs.String("conc", "1,2,4", "closed-loop concurrency sweep, comma-separated")
	requests := fs.Int("requests", 128, "requests per sweep level (total in -qps mode)")
	qps := fs.Float64("qps", 0, "open-loop target request rate; 0 = closed loop")
	shardsN := fs.Int("shards", 1, "fan each request across K engine shards (closed-loop rank requests via ShardedDo); 1 = whole-request path")
	queueDepth := fs.Int("queue", 32, "per-engine admission queue depth")
	seed := fs.Int64("seed", 1, "list generator seed")
	connect := fs.String("connect", "", "drive a running parlistd at this address over the binary framing instead of an in-process pool")
	listen := fs.String("listen", "", "serve /metrics and /debug/pprof on this address; keeps serving after the run until SIGINT")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of algorithm phases to this file")
	smoke := fs.Bool("smoke", false, "tiny fixed run for CI smoke tests")
	chaosMode := fs.Bool("chaos", false, "run the resilience chaos soak instead of the latency sweep")
	faultRate := fs.Float64("fault-rate", 0.20, "chaos: fraction of requests carrying a panic fault plan")
	traceSlow := fs.Duration("trace-slow", 0, "log one line with the trace id for every request slower than this (0 disables)")
	debugAddr := fs.String("debug-addr", "", "with -connect: the daemon's HTTP address, for -smoke's /debug/traces check")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *chaosMode {
		return runChaos(out, *enginesN, *seed, *faultRate, *smoke)
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
	if *shardsN < 1 {
		return usagef("-shards must be >= 1 (got %d)", *shardsN)
	}
	if *shardsN > 1 && *qps > 0 {
		return usagef("-shards works in the closed loop only (ShardedDo blocks; drop -qps)")
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

	if *connect != "" {
		if *shardsN > 1 {
			return usagef("-shards is an in-process mode (drop -connect)")
		}
		tr := &tracer{slow: *traceSlow, log: slowLogger()}
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
	tr := &tracer{slow: *traceSlow, log: slowLogger()}
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

	if *qps > 0 {
		if err := openLoop(out, pool, lists, *requests, *qps, tr); err != nil {
			return err
		}
	} else {
		for _, conc := range concs {
			if *shardsN > 1 {
				err = closedLoopSharded(out, pool, lists, conc, *requests, *shardsN, tr)
			} else {
				err = closedLoop(out, pool, lists, conc, *requests, tr)
			}
			if err != nil {
				return err
			}
		}
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
func assertTraces(out *os.File, url string) error {
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
// shrinks it to CI size. All requests are rank requests (results are
// length-checked), pipelined on one connection.
func wireMode(out *os.File, addr, debugAddr string, lists []*list.List, requests int, qps float64, concs []int, smoke bool, tr *tracer) error {
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
	if qps > 0 {
		err = wireOpenLoop(out, c, lists, requests, qps, tr)
	} else {
		for _, conc := range concs {
			if err = wireClosedLoop(out, c, lists, conc, requests, tr); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	if smoke && debugAddr != "" {
		// The daemon head-samples and tail-keeps (cold start keeps the
		// first 64 roots), so a 40-request smoke must leave traces.
		return assertTraces(out, fmt.Sprintf("http://%s/debug/traces", debugAddr))
	}
	return nil
}

// wireOpenLoop paces Submit frames at the target rate and collects
// responses as they arrive; daemon sheds (queue-full, over-limit) are
// drops, anything else non-OK fails the run.
func wireOpenLoop(out *os.File, c *server.Client, lists []*list.List, requests int, qps float64, tr *tracer) error {
	interval := time.Duration(float64(time.Second) / qps)
	var mu sync.Mutex
	var lat []time.Duration
	var batchedSum, served, drops, failed int
	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for i := 0; i < requests; i++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		l := lists[i%len(lists)]
		t0 := time.Now()
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, ok := <-ch
			mu.Lock()
			defer mu.Unlock()
			switch {
			case !ok:
				failed++
			case r.Status == server.StatusOK:
				if len(r.Result.Ranks) != l.Len() {
					failed++
					return
				}
				served++
				batchedSum += r.Batched
				tr.slowCheck(r.Trace, time.Since(t0))
				lat = append(lat, time.Since(t0))
			case r.Status == server.StatusShed || r.Status == server.StatusOverLimit:
				drops++
			default:
				failed++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if failed > 0 {
		return fmt.Errorf("wire: %d of %d requests failed", failed, requests)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	meanBatch := 0.0
	if served > 0 {
		meanBatch = float64(batchedSum) / float64(served)
	}
	fmt.Fprintf(out, "wire qps-target=%.0f offered=%d served=%d shed=%d achieved=%.1f/s mean-batch=%.2f p50=%v p99=%v\n",
		qps, requests, served, drops,
		float64(served)/elapsed.Seconds(), meanBatch,
		percentile(lat, 0.50), percentile(lat, 0.99))
	return nil
}

// wireClosedLoop runs conc workers issuing Do back-to-back over the
// shared pipelined connection and prints one sweep row.
func wireClosedLoop(out *os.File, c *server.Client, lists []*list.List, conc, requests int, tr *tracer) error {
	ctx := context.Background()
	per := requests / conc
	if per < 1 {
		per = 1
	}
	total := per * conc
	lat := make([][]time.Duration, conc)
	batched := make([]int, conc)
	errs := make([]error, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat[w] = make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				l := lists[(w*per+i)%len(lists)]
				t0 := time.Now()
				r, err := c.Do(ctx, engine.Request{Op: engine.OpRank, List: l})
				if err != nil {
					errs[w] = err
					return
				}
				if len(r.Result.Ranks) != l.Len() {
					errs[w] = fmt.Errorf("short result: %d ranks for n=%d", len(r.Result.Ranks), l.Len())
					return
				}
				tr.slowCheck(r.Trace, time.Since(t0))
				lat[w] = append(lat[w], time.Since(t0))
				batched[w] += r.Batched
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var all []time.Duration
	batchedSum := 0
	for w := range lat {
		all = append(all, lat[w]...)
		batchedSum += batched[w]
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	fmt.Fprintf(out, "wire conc=%-3d requests=%-5d req/s=%-9.1f mean-batch=%-6.2f p50=%-10v p99=%v\n",
		conc, total, float64(total)/elapsed.Seconds(),
		float64(batchedSum)/float64(len(all)),
		percentile(all, 0.50), percentile(all, 0.99))
	return nil
}

// runChaos hands the run to the chaos soak harness and renders its
// report. -smoke scales the soak to CI size (it still injects faults,
// kills and deadline pressure — only the request count shrinks).
func runChaos(out *os.File, engines int, seed int64, faultRate float64, smoke bool) error {
	cfg := chaos.Config{Engines: engines, Seed: seed, FaultRate: faultRate}
	if cfg.Seed == 1 {
		cfg.Seed = 42
	}
	if smoke {
		cfg.Requests = 500
		cfg.KillEvery = 100
	}
	fmt.Fprintf(out, "chaos: engines=%d seed=%d fault-rate=%.0f%% smoke=%v\n",
		engines, cfg.Seed, faultRate*100, smoke)
	rep, err := chaos.Soak(cfg)
	if rep != nil {
		fmt.Fprintf(out, "chaos: %d requests in %v: %d succeeded (%.2f%%), %d transient, %d deadline, %d shed\n",
			rep.Requests, rep.Elapsed.Round(time.Millisecond), rep.Succeeded,
			100*rep.SuccessRate(), rep.TransientFailures, rep.DeadlineFailures, rep.Shed)
		fmt.Fprintf(out, "chaos: %d retries, %d breaker trips, %d engine kills, %d deadline-exceeded\n",
			rep.Retries, rep.Trips, rep.Kills, rep.DeadlineExceeded)
		fmt.Fprintf(out, "chaos: lost=%d mismatches=%d unexpected=%d leaked=%d\n",
			rep.Lost, rep.Mismatches, rep.Unexpected, rep.LeakedGoroutines)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos: all invariants held\n")
	return nil
}

// doMetrics issues one request through the Submit path (retrying
// ErrQueueFull with a short backoff, preserving closed-loop semantics)
// and returns its per-request metrics, which split total latency into
// queue wait and service time — the two components the sweep rows
// report separately.
func doMetrics(ctx context.Context, pool *engine.EnginePool, l *list.List, tr *tracer) (engine.RequestMetrics, error) {
	tc := tr.mint()
	t0 := time.Now()
	for {
		f, err := pool.Submit(ctx, engine.Request{List: l, Trace: tc})
		if errors.Is(err, engine.ErrQueueFull) {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		if err != nil {
			return engine.RequestMetrics{}, err
		}
		res, err := f.Wait(ctx)
		if err != nil {
			return engine.RequestMetrics{}, err
		}
		if len(res.In) != l.Len() {
			return engine.RequestMetrics{}, fmt.Errorf("short result: %d in-flags for n=%d", len(res.In), l.Len())
		}
		tr.slowCheck(tc, time.Since(t0))
		return f.Metrics(), nil
	}
}

// closedLoop runs conc workers issuing requests back-to-back and prints
// one sweep row with queue-wait and service-time percentiles broken out
// (a fast engine behind a deep queue and a slow engine behind an empty
// one have the same total latency; the split tells them apart).
func closedLoop(out *os.File, pool *engine.EnginePool, lists []*list.List, conc, requests int, tr *tracer) error {
	ctx := context.Background()
	per := requests / conc
	if per < 1 {
		per = 1
	}
	total := per * conc
	type sample struct{ wait, service time.Duration }
	samples := make([][]sample, conc)
	errs := make([]error, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samples[w] = make([]sample, 0, per)
			for i := 0; i < per; i++ {
				l := lists[(w*per+i)%len(lists)]
				m, err := doMetrics(ctx, pool, l, tr)
				if err != nil {
					errs[w] = err
					return
				}
				samples[w] = append(samples[w], sample{m.QueueWait, m.Service})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var lat, wait, svc []time.Duration
	for _, ws := range samples {
		for _, s := range ws {
			lat = append(lat, s.wait+s.service)
			wait = append(wait, s.wait)
			svc = append(svc, s.service)
		}
	}
	for _, sl := range [][]time.Duration{lat, wait, svc} {
		sort.Slice(sl, func(i, j int) bool { return sl[i] < sl[j] })
	}
	fmt.Fprintf(out, "conc=%-3d requests=%-5d req/s=%-9.1f p50=%-10v p99=%-10v queue-wait p50=%-10v p99=%-10v service p50=%-10v p99=%v\n",
		conc, total, float64(total)/elapsed.Seconds(),
		percentile(lat, 0.50), percentile(lat, 0.99),
		percentile(wait, 0.50), percentile(wait, 0.99),
		percentile(svc, 0.50), percentile(svc, 0.99))
	return nil
}

// closedLoopSharded is the closed loop over ShardedDo: conc workers
// each fan rank requests across shards engine shards back-to-back. The
// row adds the sharded plan's data-movement accounting — per-request
// exchange volume and the mean contract-stage imbalance — next to the
// usual latency percentiles.
func closedLoopSharded(out *os.File, pool *engine.EnginePool, lists []*list.List, conc, requests, shards int, tr *tracer) error {
	ctx := context.Background()
	per := requests / conc
	if per < 1 {
		per = 1
	}
	total := per * conc
	lat := make([][]time.Duration, conc)
	errs := make([]error, conc)
	var mu sync.Mutex
	var exchange int64
	var imbalance float64
	var retries int
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat[w] = make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				l := lists[(w*per+i)%len(lists)]
				tc := tr.mint()
				t0 := time.Now()
				res, err := pool.ShardedDo(ctx, engine.Request{Op: engine.OpRank, List: l, Trace: tc}, shards)
				if err != nil {
					errs[w] = err
					return
				}
				if len(res.Ranks) != l.Len() {
					errs[w] = fmt.Errorf("short result: %d ranks for n=%d", len(res.Ranks), l.Len())
					return
				}
				tr.slowCheck(tc, time.Since(t0))
				lat[w] = append(lat[w], time.Since(t0))
				mu.Lock()
				exchange += res.Sharding.ExchangeBytes
				imbalance += res.Sharding.Imbalance
				retries += res.Sharding.StepRetries
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var all []time.Duration
	for _, ws := range lat {
		all = append(all, ws...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	fmt.Fprintf(out, "conc=%-3d requests=%-5d shards=%-2d req/s=%-9.1f p50=%-10v p99=%-10v exchange/req=%-8d B imbalance=%.3f step-retries=%d\n",
		conc, total, shards, float64(total)/elapsed.Seconds(),
		percentile(all, 0.50), percentile(all, 0.99),
		exchange/int64(len(all)), imbalance/float64(len(all)), retries)
	return nil
}

// openLoop paces Submit at the target rate; overload surfaces as
// ErrQueueFull drops rather than queueing delay.
func openLoop(out *os.File, pool *engine.EnginePool, lists []*list.List, requests int, qps float64, tr *tracer) error {
	ctx := context.Background()
	interval := time.Duration(float64(time.Second) / qps)
	futures := make([]*engine.Future, 0, requests)
	traces := make([]obs.TraceContext, 0, requests)
	drops := 0
	start := time.Now()
	next := start
	for i := 0; i < requests; i++ {
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		next = next.Add(interval)
		tc := tr.mint()
		f, err := pool.Submit(ctx, engine.Request{List: lists[i%len(lists)], Trace: tc})
		switch {
		case errors.Is(err, engine.ErrQueueFull):
			drops++
		case err != nil:
			return err
		default:
			futures = append(futures, f)
			traces = append(traces, tc)
		}
	}
	lat := make([]time.Duration, 0, len(futures))
	for i, f := range futures {
		if _, err := f.Wait(ctx); err != nil {
			return err
		}
		m := f.Metrics()
		tr.slowCheck(traces[i], m.QueueWait+m.Service)
		lat = append(lat, m.QueueWait+m.Service)
	}
	elapsed := time.Since(start)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	fmt.Fprintf(out, "qps-target=%.0f offered=%d served=%d dropped=%d achieved=%.1f/s p50=%v p99=%v\n",
		qps, requests, len(futures), drops,
		float64(len(futures))/elapsed.Seconds(),
		percentile(lat, 0.50), percentile(lat, 0.99))
	return nil
}
