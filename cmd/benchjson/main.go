// Command benchjson runs the repository's core benchmarks and emits a
// machine-readable BENCH_<date>.json, so the performance trajectory
// (wall-clock, simulated PRAM steps, work, efficiency, allocations) can
// be compared across PRs without scraping `go test -bench` output.
//
// Usage:
//
//	go run ./cmd/benchjson            # full run, writes BENCH_<date>.json
//	go run ./cmd/benchjson -quick     # smaller inputs (smoke / CI)
//	go run ./cmd/benchjson -out x.json
//
// Each entry reports ns/op and allocs/op from testing.Benchmark plus the
// simulated accounting of the final iteration. For the executor-overhead
// entries the sequential row is the inline baseline; the non-sequential
// rows additionally record dispatch_overhead_ns = ns/op − baseline, the
// pure cost of waking real workers for one synchronous round (on few-core
// hosts raw wall-clock is dominated by the shared body loop, so the
// overhead delta is the executor-sensitive number to track).
//
// The engine-reuse entries measure the session layer at fixed n: the
// "result=reused" row is the zero-alloc request path (one warm engine,
// outputs recycled — allocs/op must stay 0), the "result=fresh" row is
// the public façade on the same engine, and the "machine=cold" row is
// the old one-machine-per-call pattern for contrast. These rows also
// report requests/sec. The "exec=pooled"/"exec=native" pair repeats the
// reused-result measurement under each executor: the native row must
// hold 0 allocs/op with ns/op no worse than pooled (CI-adjacent guard;
// E18 sweeps the same comparison across ops).
//
// The pool-throughput entries drive an EnginePool closed-loop at fixed n
// with GOMAXPROCS submitters and report requests_per_sec and p99_ns for
// pool_engines = 1, 2, 4. On a multi-core host requests_per_sec scales
// with the engine count; on the 1-CPU bench host allocs/op and queue
// wait are the stable metrics (see CHANGES.md PR 1 note).
//
// The pool-resilience entries run audited chaos soaks (internal/chaos)
// at fault_rate = 0 and 5% with retries enabled, reporting success_rate
// (availability; the 5% row must stay ≥ 99.9%), retries_per_request,
// and end-to-end p99_ns — the tail cost of riding out the faults.
//
// Exit status: 0 on success, 1 on a runtime failure, 2 on a usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"parlist/internal/chaos"
	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/server"
)

// Entry is one benchmark result.
type Entry struct {
	Name             string  `json:"name"`
	N                int     `json:"n"`
	P                int     `json:"p"`
	Iters            int     `json:"iters"`
	NsPerOp          float64 `json:"ns_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	BytesPerOp       int64   `json:"bytes_per_op"`
	PramSteps        int64   `json:"pram_steps,omitempty"`
	Work             int64   `json:"work,omitempty"`
	Efficiency       float64 `json:"efficiency,omitempty"`
	DispatchOverhead float64 `json:"dispatch_overhead_ns,omitempty"`
	RequestsPerSec   float64 `json:"requests_per_sec,omitempty"`
	P99Ns            float64 `json:"p99_ns,omitempty"`
	// Histogram-derived split of pool latency (from an attached
	// obs.Collector): time spent queued vs time in service. The p99_ns
	// column above is end-to-end; these locate where it comes from.
	QueueWaitP50Ns float64 `json:"queue_wait_p50_ns,omitempty"`
	QueueWaitP99Ns float64 `json:"queue_wait_p99_ns,omitempty"`
	ServiceP50Ns   float64 `json:"service_p50_ns,omitempty"`
	ServiceP99Ns   float64 `json:"service_p99_ns,omitempty"`
	// Resilience rows (pool-resilience/*): availability over admitted
	// requests and the retry layer's work rate at the entry's injected
	// fault rate.
	FaultRate         float64 `json:"fault_rate,omitempty"`
	SuccessRate       float64 `json:"success_rate,omitempty"`
	RetriesPerRequest float64 `json:"retries_per_request,omitempty"`
	// Sharded rows (rank-sharded/*): the plan's boundary-exchange
	// volume in bytes (PEM-style, per request), the reduced list's
	// segment count it derives from, and the contract-stage imbalance
	// (slowest shard over mean, 1.0 = balanced).
	ExchangeBytes int64   `json:"exchange_bytes,omitempty"`
	Segments      int     `json:"segments,omitempty"`
	Imbalance     float64 `json:"imbalance,omitempty"`
	// Wire rows (wire-path/*): the achieved coalescing factor — served
	// requests per fused machine run (1.0 on the per-request control).
	MeanBatch float64 `json:"mean_batch,omitempty"`
	// Tracing rows (wire-path/trace=on): traces tail-kept by the
	// recorder during the run, and the ns/op cost relative to the
	// trace=off control (the E22 / CI acceptance bound is ≤ 3%).
	KeptTraces       int64   `json:"kept_traces,omitempty"`
	TraceOverheadPct float64 `json:"trace_overhead_pct,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Schema     string  `json:"schema"`
	Date       string  `json:"date"`
	GoVersion  string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Quick      bool    `json:"quick,omitempty"`
	Benches    []Entry `json:"benches"`
}

const seed = 1

// usageError marks failures caused by bad invocation rather than by the
// computation; they exit with status 2.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }

func measure(out *os.File, name string, n, p int, fn func() pram.Stats) Entry {
	var st pram.Stats
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st = fn()
		}
	})
	e := Entry{
		Name:        name,
		N:           n,
		P:           p,
		Iters:       r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		PramSteps:   st.Time,
		Work:        st.Work,
	}
	if st.Time > 0 {
		e.Efficiency = st.Efficiency(int64(n))
	}
	fmt.Fprintf(out, "%-40s %12.0f ns/op %8d allocs/op", name, e.NsPerOp, e.AllocsPerOp)
	if st.Time > 0 {
		fmt.Fprintf(out, " %12d pram-steps", st.Time)
	}
	fmt.Fprintln(out)
	return e
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		var ue usageError
		if errors.As(err, &ue) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout *os.File) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	out := fs.String("out", "", "output path (default BENCH_<date>.json)")
	quick := fs.Bool("quick", false, "small inputs for a fast smoke run")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}

	nMatch, nRank, nWall, nEng := 1<<18, 1<<16, 1<<20, 1<<16
	if *quick {
		nMatch, nRank, nWall, nEng = 1<<14, 1<<12, 1<<16, 1<<12
	}

	rep := Report{
		Schema:     "parlist-bench/v1",
		Date:       time.Now().Format("2006-01-02"),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}

	// Matching algorithms: simulated accounting at p = 256.
	lm := list.RandomList(nMatch, seed)
	algos := []struct {
		name string
		run  func(m *pram.Machine) (*matching.Result, error)
	}{
		{"match1", func(m *pram.Machine) (*matching.Result, error) { return matching.Match1(m, lm, nil), nil }},
		{"match2", func(m *pram.Machine) (*matching.Result, error) { return matching.Match2(m, lm, nil), nil }},
		{"match3", func(m *pram.Machine) (*matching.Result, error) {
			return matching.Match3(m, lm, nil, matching.Match3Config{CRCWBuild: true})
		}},
		{"match4/i=3", func(m *pram.Machine) (*matching.Result, error) {
			return matching.Match4(m, lm, nil, matching.Match4Config{I: 3})
		}},
	}
	var runErr error
	for _, a := range algos {
		rep.Benches = append(rep.Benches, measure(stdout, a.name, nMatch, 256, func() pram.Stats {
			m := pram.New(256)
			r, err := a.run(m)
			if err != nil {
				runErr = fmt.Errorf("%s: %w", a.name, err)
				return pram.Stats{}
			}
			return r.Stats
		}))
		if runErr != nil {
			return runErr
		}
	}

	// List ranking.
	lr := list.RandomList(nRank, seed)
	rep.Benches = append(rep.Benches, measure(stdout, "rank/contraction", nRank, 256, func() pram.Stats {
		m := pram.New(256)
		if _, _, err := rank.Rank(m, lr, nil); err != nil {
			runErr = fmt.Errorf("rank: %w", err)
		}
		return m.Snapshot()
	}))
	if runErr != nil {
		return runErr
	}
	rep.Benches = append(rep.Benches, measure(stdout, "rank/wyllie", nRank, 256, func() pram.Stats {
		m := pram.New(256)
		rank.WyllieRank(m, lr)
		return m.Snapshot()
	}))

	// Engine reuse: the session layer at fixed n. The reused row is the
	// headline — one warm engine, recycled Result, 0 allocs/op steady
	// state. The cold row rebuilds a machine per request (the pre-engine
	// pattern) so the arena + pool payoff is visible in the same report.
	le := list.RandomList(nEng, seed)
	ctx := context.Background()
	{
		eng := engine.New(engine.Config{Processors: 512})
		req := engine.Request{List: le}
		var res engine.Result
		if err := eng.RunInto(ctx, req, &res); err != nil {
			eng.Close()
			return fmt.Errorf("engine warm-up: %w", err)
		}
		e := measure(stdout, "engine-reuse/result=reused", nEng, 512, func() pram.Stats {
			if err := eng.RunInto(ctx, req, &res); err != nil {
				runErr = fmt.Errorf("engine-reuse: %w", err)
			}
			return res.Stats
		})
		e.RequestsPerSec = 1e9 / e.NsPerOp
		rep.Benches = append(rep.Benches, e)

		e = measure(stdout, "engine-reuse/result=fresh", nEng, 512, func() pram.Stats {
			r, err := eng.Run(ctx, req)
			if err != nil {
				runErr = fmt.Errorf("engine-reuse: %w", err)
				return pram.Stats{}
			}
			return r.Stats
		})
		e.RequestsPerSec = 1e9 / e.NsPerOp
		rep.Benches = append(rep.Benches, e)
		eng.Close()
		if runErr != nil {
			return runErr
		}
	}
	// Executor family on the same warm-engine path: the pooled executor
	// (fused simulated rounds) vs the native fast path, workers pinned
	// to 4 as in executor-overhead. Both rows are the result=reused
	// zero-alloc path; the native row must hold allocs/op = 0 and ns/op
	// no worse than pooled at this n (the Issue 6 acceptance bar).
	for _, ex := range []pram.Exec{pram.Pooled, pram.Native} {
		eng := engine.New(engine.Config{Processors: 512, Exec: ex, Workers: 4})
		req := engine.Request{List: le}
		var res engine.Result
		for i := 0; i < 2; i++ { // warm the arena and kernel caches
			if err := eng.RunInto(ctx, req, &res); err != nil {
				eng.Close()
				return fmt.Errorf("engine-reuse/exec=%s warm-up: %w", ex, err)
			}
		}
		e := measure(stdout, fmt.Sprintf("engine-reuse/exec=%s", ex), nEng, 512, func() pram.Stats {
			if err := eng.RunInto(ctx, req, &res); err != nil {
				runErr = fmt.Errorf("engine-reuse/exec=%s: %w", ex, err)
			}
			return res.Stats
		})
		e.RequestsPerSec = 1e9 / e.NsPerOp
		rep.Benches = append(rep.Benches, e)
		eng.Close()
		if runErr != nil {
			return runErr
		}
	}
	{
		e := measure(stdout, "engine-reuse/machine=cold", nEng, 512, func() pram.Stats {
			m := pram.New(512)
			r, err := matching.Match4(m, le, nil, matching.Match4Config{I: 3})
			if err != nil {
				runErr = fmt.Errorf("cold match4: %w", err)
				return pram.Stats{}
			}
			return r.Stats
		})
		e.RequestsPerSec = 1e9 / e.NsPerOp
		rep.Benches = append(rep.Benches, e)
		if runErr != nil {
			return runErr
		}
	}

	// Pool throughput: an EnginePool under closed-loop load at fixed n.
	// GOMAXPROCS submitters issue Do back-to-back; per-request wall
	// latency feeds the p99 column. Same-size traffic means every
	// request shares one size class, so the affinity/spill path — not
	// the hash spread — is what scales here.
	lp := list.RandomList(nEng, seed)
	for _, ne := range []int{1, 2, 4} {
		collector := obs.NewCollector(obs.NewRegistry())
		pool := engine.NewPool(engine.PoolConfig{
			Engines:    ne,
			QueueDepth: 64,
			Observer:   collector,
			Engine:     engine.Config{Processors: 512},
		})
		preq := engine.Request{List: lp}
		if _, err := pool.Do(ctx, preq); err != nil {
			pool.Close()
			return fmt.Errorf("pool warm-up: %w", err)
		}
		var mu sync.Mutex
		var lats []time.Duration
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				local := make([]time.Duration, 0, 64)
				for pb.Next() {
					t0 := time.Now()
					if _, err := pool.Do(ctx, preq); err != nil {
						runErr = fmt.Errorf("pool-throughput: %w", err)
						return
					}
					local = append(local, time.Since(t0))
				}
				mu.Lock()
				lats = append(lats, local...)
				mu.Unlock()
			})
		})
		pool.Close()
		if runErr != nil {
			return runErr
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		e := Entry{
			Name:        fmt.Sprintf("pool-throughput/pool_engines=%d", ne),
			N:           nEng,
			P:           512,
			Iters:       r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		e.RequestsPerSec = 1e9 / e.NsPerOp
		if len(lats) > 0 {
			e.P99Ns = float64(lats[int(0.99*float64(len(lats)-1))].Nanoseconds())
		}
		// Split the end-to-end latency with the collector's histograms:
		// queue wait from the pool's dequeue hook, service time from the
		// engine's request hook.
		var qw, svc obs.HistSnapshot
		collector.QueueWait().Snapshot(&qw)
		collector.RequestLatency("matching").Snapshot(&svc)
		if qw.Count > 0 {
			e.QueueWaitP50Ns = float64(qw.Quantile(0.50))
			e.QueueWaitP99Ns = float64(qw.Quantile(0.99))
		}
		if svc.Count > 0 {
			e.ServiceP50Ns = float64(svc.Quantile(0.50))
			e.ServiceP99Ns = float64(svc.Quantile(0.99))
		}
		fmt.Fprintf(stdout, "%-40s %12.0f ns/op %8d allocs/op %12.0f req/s %10.0f p99-ns (queue p99 %0.f ns, service p99 %0.f ns)\n",
			e.Name, e.NsPerOp, e.AllocsPerOp, e.RequestsPerSec, e.P99Ns, e.QueueWaitP99Ns, e.ServiceP99Ns)
		rep.Benches = append(rep.Benches, e)
	}

	// Sharded execution: one rank request fanned out across K engine
	// shards on a warm 4-engine pool. shards=1 is the whole-request
	// control (same pool, same list). On the 1-CPU bench host the
	// shards never overlap in wall time, so ns/op mostly tracks the
	// stage bookkeeping; the stable sharded metrics are allocs/op (the
	// plan's flat budget), exchange_bytes (the data-movement cost the
	// PEM model bounds) and imbalance. E20 sweeps the same axes.
	{
		spool := engine.NewPool(engine.PoolConfig{
			Engines:    4,
			QueueDepth: 8,
			Engine:     engine.Config{Processors: 512},
		})
		sreq := engine.Request{Op: engine.OpRank, List: lp}
		for _, ks := range []int{1, 2, 4} {
			var last *engine.Result
			for i := 0; i < 2; i++ { // warm the plan cache and scratch pool
				r, err := spool.ShardedDo(ctx, sreq, ks)
				if err != nil {
					spool.Close()
					return fmt.Errorf("rank-sharded warm-up: %w", err)
				}
				last = r
			}
			e := measure(stdout, fmt.Sprintf("rank-sharded/shards=%d", ks), nEng, 512, func() pram.Stats {
				r, err := spool.ShardedDo(ctx, sreq, ks)
				if err != nil {
					runErr = fmt.Errorf("rank-sharded/shards=%d: %w", ks, err)
					return pram.Stats{}
				}
				last = r
				return r.Stats
			})
			if runErr != nil {
				spool.Close()
				return runErr
			}
			e.RequestsPerSec = 1e9 / e.NsPerOp
			e.ExchangeBytes = last.Sharding.ExchangeBytes
			e.Segments = last.Sharding.Segments
			e.Imbalance = last.Sharding.Imbalance
			fmt.Fprintf(stdout, "%-40s exchange=%d B segments=%d imbalance=%.3f\n",
				e.Name, e.ExchangeBytes, e.Segments, e.Imbalance)
			rep.Benches = append(rep.Benches, e)
		}
		spool.Close()
	}

	// Wire path: the serving daemon's binary framing over loopback, the
	// coalescing batcher on (batch=8) vs per-request dispatch (batch=1).
	// One pipelined client submits rank requests flat-out — equal offered
	// load for both rows — so requests_per_sec is served capacity and
	// mean_batch the achieved coalescing factor. The batch=8 row must
	// beat batch=1 on requests_per_sec: fused batches pay the queue trip,
	// dispatcher wakeup and engine-semaphore handshake once per batch.
	// Results are bit-identical either way (pinned in internal/server).
	{
		nWire, reqWire := 4096, 2000
		if *quick {
			nWire, reqWire = 512, 300
		}
		lwire := list.RandomList(nWire, seed)
		for _, bsz := range []int{1, 8} {
			e, err := wirePath(lwire, bsz, reqWire, false, fmt.Sprintf("wire-path/batch=%d", bsz))
			if err != nil {
				return fmt.Errorf("wire-path/batch=%d: %w", bsz, err)
			}
			fmt.Fprintf(stdout, "%-40s %12.0f ns/op %21.0f req/s %10.0f p99-ns mean-batch=%.2f\n",
				e.Name, e.NsPerOp, e.RequestsPerSec, e.P99Ns, e.MeanBatch)
			rep.Benches = append(rep.Benches, e)
		}

		// Tracing overhead A/B at the coalescing batch size: the trace=on
		// row head-samples every request, records the full span tree into
		// the tail-sampling recorder, and must cost no more than 3% ns/op
		// over the trace=off control (the E22 / CI acceptance bound; rows
		// only record here).
		off, err := wirePath(lwire, 8, reqWire, false, "wire-path/trace=off")
		if err != nil {
			return fmt.Errorf("wire-path/trace=off: %w", err)
		}
		on, err := wirePath(lwire, 8, reqWire, true, "wire-path/trace=on")
		if err != nil {
			return fmt.Errorf("wire-path/trace=on: %w", err)
		}
		on.TraceOverheadPct = 100 * (on.NsPerOp - off.NsPerOp) / off.NsPerOp
		for _, e := range []Entry{off, on} {
			fmt.Fprintf(stdout, "%-40s %12.0f ns/op %21.0f req/s %10.0f p99-ns mean-batch=%.2f kept=%d overhead=%.1f%%\n",
				e.Name, e.NsPerOp, e.RequestsPerSec, e.P99Ns, e.MeanBatch, e.KeptTraces, e.TraceOverheadPct)
			rep.Benches = append(rep.Benches, e)
		}
	}

	// Pool resilience: audited chaos soaks (internal/chaos) at fault
	// rate 0 vs 5%, retries on, kills and deadline pressure off so the
	// fault-rate axis is the only variable. success_rate is the
	// availability headline (the 5% row must stay ≥ 99.9% — the E19 /
	// CI acceptance floor), retries_per_request is its price, and the
	// p99_ns gap between the rows is what a retried request's failed
	// first attempt plus backoff costs the tail.
	for _, fr := range []float64{0, 0.05} {
		nSoak := 2000
		if *quick {
			nSoak = 300
		}
		sc := chaos.Config{Requests: nSoak, Seed: seed, FaultRate: fr, DeadlineRate: -1, KillEvery: -1}
		if fr == 0 {
			sc.FaultRate = -1
		}
		crep, err := chaos.Soak(sc)
		if err != nil {
			return fmt.Errorf("pool-resilience fault_rate=%g: %w", fr, err)
		}
		e := Entry{
			Name:              fmt.Sprintf("pool-resilience/fault_rate=%g", fr),
			N:                 2048, // the soak's dominant size class
			P:                 64,
			Iters:             int(crep.Admitted),
			NsPerOp:           float64(crep.Elapsed.Nanoseconds()) / float64(crep.Admitted),
			P99Ns:             float64(crep.P99.Nanoseconds()),
			FaultRate:         fr,
			SuccessRate:       crep.SuccessRate(),
			RetriesPerRequest: float64(crep.Retries) / float64(crep.Admitted),
		}
		e.RequestsPerSec = 1e9 / e.NsPerOp
		fmt.Fprintf(stdout, "%-40s %12.0f ns/op  success=%.4f retries/req=%.3f p99-ns=%.0f\n",
			e.Name, e.NsPerOp, e.SuccessRate, e.RetriesPerRequest, e.P99Ns)
		rep.Benches = append(rep.Benches, e)
	}

	// Executor dispatch overhead: an empty round, machine reused across
	// iterations (steady state), workers pinned to 4 so the parallel
	// dispatch path runs even on few-core hosts. n is small enough that
	// the dispatch cost dominates the body loop — at large n the shared
	// body loop swamps the µs-scale dispatch signal in host noise.
	nOver := 1 << 10
	baseline := make(map[int]float64)
	// Native appears here too: a plain ParFor on a Native machine takes
	// the simulated fallback dispatch, so its overhead row measures the
	// fallback path (expected ≈ pooled), not the team kernels.
	for _, exec := range []pram.Exec{pram.Sequential, pram.Pooled, pram.Native} {
		for _, p := range []int{4, 64, 1024} {
			m := pram.New(p, pram.WithExec(exec), pram.WithWorkers(4))
			e := measure(stdout, fmt.Sprintf("executor-overhead/%s/p=%d", exec, p), nOver, p, func() pram.Stats {
				m.ParFor(nOver, func(int) {})
				return pram.Stats{}
			})
			m.Close()
			if exec == pram.Sequential {
				baseline[p] = e.NsPerOp
			} else {
				e.DispatchOverhead = e.NsPerOp - baseline[p]
			}
			rep.Benches = append(rep.Benches, e)
		}
	}

	// End-to-end wall clock: Match4 under each executor.
	lw := list.RandomList(nWall, seed)
	for _, exec := range []pram.Exec{pram.Sequential, pram.Pooled} {
		rep.Benches = append(rep.Benches, measure(stdout, fmt.Sprintf("wallclock-match4/%s", exec), nWall, 1024, func() pram.Stats {
			m := pram.New(1024, pram.WithExec(exec))
			defer m.Close()
			r, err := matching.Match4(m, lw, nil, matching.Match4Config{I: 3})
			if err != nil {
				runErr = fmt.Errorf("wallclock: %w", err)
				return pram.Stats{}
			}
			return r.Stats
		}))
		if runErr != nil {
			return runErr
		}
	}

	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", rep.Date)
	}
	return writeReport(stdout, path, &rep)
}

// wirePath drives one batch-size configuration of the serving core end
// to end: fresh 2-engine pool with the native executor, binary-framing
// listener on loopback, one pipelined client submitting rank requests
// flat-out, graceful drain. With traced set, the server head-samples
// every request into a tail-sampling span recorder wired through the
// pool's collector — the full production tracing path.
func wirePath(l *list.List, batch, requests int, traced bool, name string) (Entry, error) {
	var rec *obs.SpanRecorder
	poolCfg := engine.PoolConfig{
		Engines:    2,
		QueueDepth: 256,
		Engine:     engine.Config{Processors: 256, Exec: pram.Native},
	}
	if traced {
		rec = obs.NewSpanRecorder(obs.NewTraceSource(1), 0.1)
		c := obs.NewCollector(obs.NewRegistry())
		c.AttachSpans(rec)
		poolCfg.Observer = c
	}
	pool := engine.NewPool(poolCfg)
	srv, err := server.New(server.Config{Pool: pool, BatchSize: batch,
		MaxWait: 500 * time.Microsecond, Trace: rec, TraceSample: 1})
	if err != nil {
		return Entry{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return Entry{}, err
	}
	go srv.ServeBinary(ln)
	drain := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return srv.Shutdown(ctx)
	}
	c, err := server.Dial(ln.Addr().String(), "benchjson")
	if err != nil {
		drain()
		return Entry{}, err
	}
	defer c.Close()

	var mu sync.Mutex
	var lats []time.Duration
	var served, batchedSum int
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < requests; i++ {
		t0 := time.Now()
		ch, err := c.Submit(engine.Request{Op: engine.OpRank, List: l})
		if err != nil {
			drain()
			return Entry{}, fmt.Errorf("submit %d: %w", i, err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, ok := <-ch
			mu.Lock()
			defer mu.Unlock()
			switch {
			case !ok:
				firstErr = errors.New("connection failed")
			case r.Status != server.StatusOK:
				firstErr = &server.StatusError{Code: r.Status, Message: r.Message}
			default:
				served++
				batchedSum += r.Batched
				lats = append(lats, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := drain(); err != nil {
		return Entry{}, err
	}
	if firstErr != nil {
		return Entry{}, firstErr
	}
	if served == 0 {
		return Entry{}, errors.New("no requests served")
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	e := Entry{
		Name:           name,
		N:              l.Len(),
		P:              256,
		Iters:          served,
		NsPerOp:        float64(elapsed.Nanoseconds()) / float64(served),
		RequestsPerSec: float64(served) / elapsed.Seconds(),
		P99Ns:          float64(lats[int(0.99*float64(len(lats)-1))].Nanoseconds()),
		MeanBatch:      float64(batchedSum) / float64(served),
	}
	if rec != nil {
		e.KeptTraces = rec.Stats().Kept
	}
	return e, nil
}

// writeReport marshals and writes the report.
func writeReport(stdout *os.File, path string, rep *Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d benches)\n", path, len(rep.Benches))
	return nil
}
