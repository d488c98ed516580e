// Package chaos is the resilience layer's soak harness: it drives an
// EnginePool with thousands of requests while injecting deterministic
// fault plans (pram.WithFaults semantics via Request.Faults), random
// engine kills, and deadline pressure, then audits the wreckage against
// the layer's contract:
//
//   - every admitted Future resolves exactly once (a lost future shows
//     up as a wait timeout; a double resolve panics on its closed
//     channel);
//   - every success is bit-identical to a fault-free reference run and
//     passes the independent verifier;
//   - every failure carries a typed, errors.Is-able error from the
//     documented taxonomy — nothing else may surface;
//   - no goroutine outlives the pool.
//
// The harness is deterministic given Config.Seed for everything the
// host scheduler does not control: which requests carry faults, which
// carry deadlines, the fault coordinates, and the request mix. It is
// used by the chaos soak test (chaos_test.go) and by `loadgen -chaos`,
// which CI runs under -race.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// Config shapes one soak run. The zero value is a usable default soak:
// 5000 requests from 8 workers at a 20% fault rate with deadline
// pressure and periodic engine kills on a 2-engine pool.
type Config struct {
	// Requests is the total request count (default 5000).
	Requests int
	// Workers is the number of closed-loop submitter goroutines
	// (default 8).
	Workers int
	// FaultRate is the fraction of requests carrying a panic-injecting
	// fault plan (default 0.20). Set negative for exactly zero.
	FaultRate float64
	// ShuffleRate is the fraction of requests carrying a benign
	// schedule-permutation plan — chaos that must NOT change results
	// (default 0.25).
	ShuffleRate float64
	// DeadlineRate is the fraction of requests submitted with a tight
	// Deadline budget (default 0.10). Those may fail, but only with
	// ErrDeadlineExceeded.
	DeadlineRate float64
	// Deadline is the tight budget applied to pressured requests
	// (default 500µs — short enough to trip on the bigger sizes, long
	// enough that some survive).
	Deadline time.Duration
	// KillEvery fires one random engine kill per this many completed
	// requests (default 250; 0 disables kills).
	KillEvery int
	// Sizes is the list-size mix (default 2048, 300, 1024).
	Sizes []int
	// Seed drives every deterministic choice the harness makes.
	Seed int64
	// Engines, Retry, Breaker configure the pool under test. Engines
	// defaults to 2; Retry and Breaker default to a production-shaped
	// policy (Max 2 retries, threshold 3 breaker) unless DisableRetry /
	// DisableBreaker is set.
	Engines        int
	Retry          engine.RetryPolicy
	Breaker        engine.BreakerPolicy
	DisableRetry   bool
	DisableBreaker bool
}

// Report is one soak run's audited outcome.
type Report struct {
	// Requests is the number of requests offered; Admitted the number
	// that got a Future (the rest were shed with ErrQueueFull after the
	// submit-retry budget).
	Requests int64
	Admitted int64
	Shed     int64
	// Succeeded counts futures resolved with a result; every one was
	// verified and compared against the fault-free reference.
	Succeeded int64
	// TransientFailures / DeadlineFailures split the typed failures;
	// Unexpected counts resolved errors outside the taxonomy (always a
	// violation).
	TransientFailures int64
	DeadlineFailures  int64
	Unexpected        int64
	// Mismatches counts successes whose result diverged from the
	// reference or failed verification (always a violation).
	Mismatches int64
	// Lost counts futures that never resolved (always a violation).
	Lost int64
	// Retries, Trips and DeadlineExceeded echo the pool's own counters
	// after the run; Kills is the number of engine kills delivered.
	Retries          int64
	Trips            int64
	DeadlineExceeded int64
	Kills            int64
	// LeakedGoroutines is how many goroutines remained above the
	// pre-run baseline after Close (always a violation when > 0).
	LeakedGoroutines int
	// Elapsed is the soak wall time; P50 and P99 are end-to-end
	// latency quantiles over every admitted request (admission through
	// resolution, retries and backoff included).
	Elapsed time.Duration
	P50     time.Duration
	P99     time.Duration
	// Violations lists every broken invariant in human-readable form;
	// empty means the run passed.
	Violations []string
}

// SuccessRate is succeeded / admitted (1.0 for an empty run).
func (r *Report) SuccessRate() float64 {
	if r.Admitted == 0 {
		return 1
	}
	return float64(r.Succeeded) / float64(r.Admitted)
}

// Err returns nil for a passing run, or one error summarizing every
// violated invariant.
func (r *Report) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("chaos: %d invariant(s) violated:\n  %s",
		len(r.Violations), strings.Join(r.Violations, "\n  "))
}

// splitmix64 is the harness's deterministic decision stream — the same
// mixer the fault planner and the pool's retry jitter use.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frac maps a hash to [0, 1).
func frac(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// defaults fills cfg's zero fields.
func (c *Config) defaults() {
	if c.Requests == 0 {
		c.Requests = 5000
	}
	if c.Workers == 0 {
		c.Workers = 8
	}
	if c.FaultRate == 0 {
		c.FaultRate = 0.20
	}
	if c.FaultRate < 0 {
		c.FaultRate = 0
	}
	if c.ShuffleRate == 0 {
		c.ShuffleRate = 0.25
	}
	if c.DeadlineRate == 0 {
		c.DeadlineRate = 0.10
	}
	if c.DeadlineRate < 0 {
		c.DeadlineRate = 0
	}
	if c.Deadline == 0 {
		c.Deadline = 500 * time.Microsecond
	}
	if c.KillEvery == 0 {
		c.KillEvery = 250
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{2048, 300, 1024}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Engines == 0 {
		c.Engines = 2
	}
	if !c.DisableRetry && c.Retry.Max == 0 {
		c.Retry = engine.RetryPolicy{Max: 2}
	}
	if c.DisableRetry {
		c.Retry = engine.RetryPolicy{}
	}
	if !c.DisableBreaker && c.Breaker.Threshold == 0 {
		c.Breaker = engine.BreakerPolicy{Threshold: 3, Cooldown: 2 * time.Millisecond}
	}
	if c.DisableBreaker {
		c.Breaker = engine.BreakerPolicy{}
	}
}

// shot is one planned request: its input, op, and injected chaos.
type shot struct {
	req  engine.Request
	size int
}

// plan builds request i deterministically from the seed.
func (c *Config) plan(i int, lists []*list.List, workers int) shot {
	h := splitmix64(uint64(c.Seed)*0x9e3779b97f4a7c15 + uint64(i))
	size := int(h % uint64(len(lists)))
	h = splitmix64(h)
	req := engine.Request{List: lists[size]}
	if h%2 == 0 {
		req.Op = engine.OpRank
	}
	h = splitmix64(h)
	switch {
	case frac(h) < c.FaultRate:
		h = splitmix64(h)
		req.Faults = &pram.FaultPlan{
			Seed: int64(h),
			PanicAt: []pram.FaultPoint{{
				Round:  1 + h%4,
				Worker: int(splitmix64(h) % uint64(workers)),
			}},
		}
	case frac(h) < c.FaultRate+c.ShuffleRate:
		h = splitmix64(h)
		req.Faults = &pram.FaultPlan{Seed: int64(h), PermuteSchedule: true}
	}
	h = splitmix64(h)
	if frac(h) < c.DeadlineRate {
		// Jitter the budget ×1–3 so some pressured requests survive.
		req.Deadline = c.Deadline * time.Duration(1+h%3)
	}
	return shot{req: req, size: size}
}

// refKey indexes the fault-free reference results.
type refKey struct {
	op   engine.Op
	size int
}

// Soak runs one chaos soak and audits it. The returned error is
// Report.Err() — nil when every invariant held.
func Soak(cfg Config) (*Report, error) {
	cfg.defaults()
	baseline := runtime.NumGoroutine()
	rep := &Report{Requests: int64(cfg.Requests)}

	engCfg := engine.Config{Processors: 64, Exec: pram.Pooled, Workers: 4}
	lists := make([]*list.List, len(cfg.Sizes))
	for i, n := range cfg.Sizes {
		lists[i] = list.RandomList(n, cfg.Seed)
	}

	// Fault-free references: requests are pure functions of (inputs,
	// parameters, seed), so one clean run per (op, size) is the exact
	// expected bits for every success in the soak.
	refs := make(map[refKey]*engine.Result)
	ref := engine.New(engCfg)
	for i, l := range lists {
		for _, op := range []engine.Op{engine.OpMatching, engine.OpRank} {
			res, err := ref.Run(context.Background(), engine.Request{Op: op, List: l})
			if err != nil {
				ref.Close()
				return rep, fmt.Errorf("chaos: reference run: %w", err)
			}
			refs[refKey{op, i}] = res
		}
	}
	ref.Close()

	pool := engine.NewPool(engine.PoolConfig{
		Engines: cfg.Engines,
		Engine:  engCfg,
		Retry:   cfg.Retry,
		Breaker: cfg.Breaker,
	})

	var (
		mu        sync.Mutex
		lats      []time.Duration
		completed atomic.Int64
		stopKill  = make(chan struct{})
		killWG    sync.WaitGroup
	)
	violation := func(format string, args ...any) {
		mu.Lock()
		if len(rep.Violations) < 20 { // keep reports readable
			rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
		}
		mu.Unlock()
	}

	// Killer: invalidate a random engine's warm machine on a cadence
	// tied to completed work, so kill pressure scales with throughput
	// instead of wall time.
	if cfg.KillEvery > 0 {
		killWG.Add(1)
		go func() {
			defer killWG.Done()
			h := splitmix64(uint64(cfg.Seed) ^ 0xdead)
			next := int64(cfg.KillEvery)
			for {
				select {
				case <-stopKill:
					return
				case <-time.After(200 * time.Microsecond):
				}
				if completed.Load() < next {
					continue
				}
				next += int64(cfg.KillEvery)
				h = splitmix64(h)
				pool.KillEngine(int(h % uint64(cfg.Engines)))
				rep.Kills++ // killer goroutine is the only writer
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	per := (cfg.Requests + cfg.Workers - 1) / cfg.Workers
	for w := 0; w < cfg.Workers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > cfg.Requests {
			hi = cfg.Requests
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				sh := cfg.plan(i, lists, engCfg.Workers)
				t0 := time.Now()
				f := admit(pool, sh.req, rep, &mu)
				if f == nil {
					completed.Add(1)
					continue
				}
				waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := f.Wait(waitCtx)
				cancel()
				lat := time.Since(t0)
				audit(sh, f, res, err, refs, rep, &mu, violation)
				mu.Lock()
				lats = append(lats, lat)
				mu.Unlock()
				completed.Add(1)
			}
		}(lo, hi)
	}
	wg.Wait()
	close(stopKill)
	killWG.Wait()
	rep.Elapsed = time.Since(start)
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.P50 = lats[len(lats)/2]
		rep.P99 = lats[int(0.99*float64(len(lats)-1))]
	}

	st := pool.Stats()
	rep.Retries = st.Retries
	rep.DeadlineExceeded = st.DeadlineExceeded
	for _, pe := range st.PerEngine {
		rep.Trips += pe.Trips
	}
	if err := pool.Close(); err != nil {
		violation("pool.Close: %v", err)
	}

	// Leak check: dispatchers, retry, quarantine and machine workers
	// all exit on Close; give the scheduler a moment to reap them.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > baseline {
		rep.LeakedGoroutines = now - baseline
		violation("%d goroutine(s) leaked past Close (%d → %d)", now-baseline, baseline, now)
	}
	return rep, rep.Err()
}

// admit submits one request, retrying ErrQueueFull briefly (closed-loop
// backpressure); a request still shed after the budget is counted, not
// failed. Returns nil when the request was shed.
func admit(pool *engine.EnginePool, req engine.Request, rep *Report, mu *sync.Mutex) *engine.Future {
	for attempt := 0; ; attempt++ {
		f, err := pool.Submit(context.Background(), req)
		if err == nil {
			mu.Lock()
			rep.Admitted++
			mu.Unlock()
			return f
		}
		if !errors.Is(err, engine.ErrQueueFull) || attempt >= 200 {
			mu.Lock()
			rep.Shed++
			mu.Unlock()
			return nil
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// audit classifies one resolved future against the contract.
func audit(sh shot, f *engine.Future, res *engine.Result, err error,
	refs map[refKey]*engine.Result, rep *Report, mu *sync.Mutex,
	violation func(string, ...any)) {
	mu.Lock()
	defer mu.Unlock()
	switch {
	case err == nil:
		rep.Succeeded++
		want := refs[refKey{sh.req.Op, sh.size}]
		if !reflect.DeepEqual(res, want) || verifyResult(sh.req, res) != nil {
			rep.Mismatches++
			violation("request op=%v size=%d retries=%d: result diverges from fault-free reference",
				sh.req.Op, sh.size, f.Metrics().Retries)
		}
	case errors.Is(err, context.DeadlineExceeded):
		// Only the audit's own 30s wait guard produces this.
		rep.Lost++
		violation("future never resolved (op=%v size=%d)", sh.req.Op, sh.size)
	case errors.Is(err, engine.ErrDeadlineExceeded):
		rep.DeadlineFailures++
		if sh.req.Deadline == 0 {
			rep.Unexpected++
			violation("deadline error on a request with no deadline: %v", err)
		}
	case pram.Transient(err):
		rep.TransientFailures++
	default:
		rep.Unexpected++
		violation("error outside the taxonomy: %v", err)
	}
}

// verifyResult checks a success with the independent verifier.
func verifyResult(req engine.Request, res *engine.Result) error {
	switch req.Op {
	case engine.OpRank:
		return verify.Ranks(req.List, res.Ranks)
	default:
		return verify.MaximalMatching(req.List, res.In)
	}
}
