package engine

// The soak drives one EnginePool with thousands of requests while
// deterministic fault plans panic workers, benign plans permute the
// schedule and tight deadlines cut requests short, then audits the
// failure-handling contract (DESIGN.md "Failure handling"):
//
//   - every admitted Future resolves exactly once: a lost future shows
//     up as a wait timeout, and a second resolve panics on its closed
//     channel;
//   - every success is bit-identical to a fault-free reference run and
//     passes the independent verifier;
//   - a failure is a *pram.WorkerPanic only where a panic plan was
//     armed, and ErrDeadlineExceeded only where a budget was set;
//     nothing outside the taxonomy surfaces;
//   - every request with neither a panic plan nor a deadline succeeds,
//     so a faulted engine never poisons the traffic after it;
//   - no goroutine outlives the pool.
//
// Every choice the soak makes (which requests carry faults or
// deadlines, the fault coordinates, the request mix) follows from the
// seed; only the host scheduler varies between runs.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// soakConfig shapes one soak run.
type soakConfig struct {
	requests int
	workers  int // closed-loop submitters
	// faultRate, shuffleRate and deadlineRate are the fractions of
	// requests carrying a worker-panic plan, a schedule-permutation
	// plan, and a budget of 1–3× deadline.
	faultRate, shuffleRate, deadlineRate float64
	deadline                             time.Duration
	seed                                 int64
}

// soakSizes is the list-size mix every soak cycles through.
var soakSizes = []int{2048, 300, 1024}

// soakShot is one planned request.
type soakShot struct {
	req      Request
	size     int  // index into soakSizes
	panicked bool // the request carries a panic plan
}

// splitmix64 is the soak's deterministic decision stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// frac maps a hash to [0, 1).
func frac(h uint64) float64 { return float64(h>>11) / float64(1<<53) }

// plan builds request i of the run from the seed.
func (c soakConfig) plan(i int, lists []*list.List, workers int) soakShot {
	h := splitmix64(uint64(c.seed)*0x9e3779b97f4a7c15 + uint64(i))
	sh := soakShot{size: int(h % uint64(len(lists)))}
	sh.req.List = lists[sh.size]
	if h = splitmix64(h); h%2 == 0 {
		sh.req.Op = OpRank
	}
	h = splitmix64(h)
	switch {
	case frac(h) < c.faultRate:
		h = splitmix64(h)
		sh.req.Faults = &pram.FaultPlan{Seed: int64(h), PanicAt: []pram.FaultPoint{{
			Round:  1 + h%4,
			Worker: int(splitmix64(h) % uint64(workers)),
		}}}
		sh.panicked = true
	case frac(h) < c.faultRate+c.shuffleRate:
		h = splitmix64(h)
		sh.req.Faults = &pram.FaultPlan{Seed: int64(h), PermuteSchedule: true}
	}
	if h = splitmix64(h); frac(h) < c.deadlineRate {
		// Jitter the budget ×1–3 so some pressured requests survive.
		sh.req.Deadline = c.deadline * time.Duration(1+h%3)
	}
	return sh
}

// soakReport is one run's audited outcome.
type soakReport struct {
	mu                                              sync.Mutex
	admitted, shed, succeeded, transient, deadlined int
	violations                                      []string
}

// violate records a broken invariant; the caller holds mu or is the
// only goroutine left.
func (r *soakReport) violate(format string, args ...any) {
	if len(r.violations) < 20 { // keep failures readable
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// err summarizes every violated invariant, or returns nil.
func (r *soakReport) err() error {
	if len(r.violations) == 0 {
		return nil
	}
	return fmt.Errorf("soak: %d invariant(s) violated:\n  %s", len(r.violations), strings.Join(r.violations, "\n  "))
}

// admit submits one request, retrying ErrQueueFull briefly as a closed
// loop would. A request still shed after that is counted, not failed;
// it returns nil for it.
func (r *soakReport) admit(pool *EnginePool, req Request) *Future {
	for attempt := 0; ; attempt++ {
		f, err := pool.Submit(bg, req)
		if err != nil && errors.Is(err, ErrQueueFull) && attempt < 200 {
			time.Sleep(50 * time.Microsecond)
			continue
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		switch {
		case err == nil:
			r.admitted++
		case errors.Is(err, ErrQueueFull):
			r.shed++
		default:
			r.violate("Submit on an open pool: %v", err)
		}
		return f
	}
}

// audit classifies one resolved request against the contract.
func (r *soakReport) audit(sh soakShot, res *Result, err error, want *Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var wp *pram.WorkerPanic
	switch {
	case err == nil:
		r.succeeded++
		if !reflect.DeepEqual(res, want) || soakVerify(sh.req, res) != nil {
			r.violate("op=%v size=%d: result diverges from the fault-free reference", sh.req.Op, soakSizes[sh.size])
		}
		return
	case errors.Is(err, context.DeadlineExceeded):
		// Only the audit's own wait guard produces this.
		r.violate("future never resolved (op=%v size=%d)", sh.req.Op, soakSizes[sh.size])
	case errors.Is(err, ErrDeadlineExceeded):
		r.deadlined++
		if sh.req.Deadline == 0 {
			r.violate("deadline error on a request with no deadline: %v", err)
		}
	case errors.As(err, &wp):
		r.transient++
		if !sh.panicked {
			r.violate("worker panic on a request with no panic plan: %v", err)
		}
	default:
		r.violate("error outside the taxonomy: %v", err)
	}
	if !sh.panicked && sh.req.Deadline == 0 {
		r.violate("request with no panic plan and no deadline failed: %v", err)
	}
}

// soakVerify checks a success with the independent verifier.
func soakVerify(req Request, res *Result) error {
	if req.Op == OpRank {
		return verify.Ranks(req.List, res.Ranks)
	}
	return verify.MaximalMatching(req.List, res.In)
}

// soak runs one audited soak on a two-engine pool.
func soak(t *testing.T, cfg soakConfig) *soakReport {
	t.Helper()
	baseline := runtime.NumGoroutine()
	engCfg := Config{Processors: 64, Exec: pram.Pooled, Workers: 4}
	lists := make([]*list.List, len(soakSizes))
	for i, n := range soakSizes {
		lists[i] = list.RandomList(n, cfg.seed)
	}

	// Requests are pure functions of their inputs, so one fault-free run
	// per (op, size) is the exact expected result of every success.
	type refKey struct {
		op   Op
		size int
	}
	refs := make(map[refKey]*Result)
	ref := New(engCfg)
	for i, l := range lists {
		for _, op := range []Op{OpMatching, OpRank} {
			res, err := ref.Run(bg, Request{Op: op, List: l})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			refs[refKey{op, i}] = res
		}
	}
	ref.Close()

	pool := NewPool(PoolConfig{Engines: 2, Engine: engCfg})
	rep := &soakReport{}
	var wg sync.WaitGroup
	per := (cfg.requests + cfg.workers - 1) / cfg.workers
	for lo := 0; lo < cfg.requests; lo += per {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				sh := cfg.plan(i, lists, engCfg.Workers)
				f := rep.admit(pool, sh.req)
				if f == nil {
					continue
				}
				ctx, cancel := context.WithTimeout(bg, 30*time.Second)
				res, err := f.Wait(ctx)
				cancel()
				rep.audit(sh, res, err, refs[refKey{sh.req.Op, sh.size}])
			}
		}(lo, min(lo+per, cfg.requests))
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		rep.violate("pool.Close: %v", err)
	}
	waitGoroutinesPool(t, baseline)
	return rep
}

// TestSoak is the acceptance soak: thousands of requests at a 20%
// panic-plan rate, with schedule shuffles and deadline pressure. soak
// audits the contract; the test also checks that the run was a real
// exercise, not a vacuous pass.
func TestSoak(t *testing.T) {
	cfg := soakConfig{requests: 5000, workers: 8, faultRate: 0.20, shuffleRate: 0.25,
		deadlineRate: 0.10, deadline: 500 * time.Microsecond, seed: 42}
	if testing.Short() {
		cfg.requests = 600
	}
	rep := soak(t, cfg)
	t.Logf("admitted=%d shed=%d succeeded=%d transient=%d deadline=%d",
		rep.admitted, rep.shed, rep.succeeded, rep.transient, rep.deadlined)
	if err := rep.err(); err != nil {
		t.Fatal(err)
	}
	if rep.admitted == 0 || rep.succeeded == 0 {
		t.Fatalf("vacuous soak: admitted=%d succeeded=%d", rep.admitted, rep.succeeded)
	}
	if rep.transient == 0 {
		t.Error("a 20% panic-plan rate produced no worker panic; injection is not reaching the engines")
	}
}

// TestSoakNoFaults proves the soak injects nothing it was not asked
// to: with no panic plans and no deadlines every admitted request
// succeeds, schedule shuffles included.
func TestSoakNoFaults(t *testing.T) {
	rep := soak(t, soakConfig{requests: 300, workers: 4, shuffleRate: 0.25, seed: 3})
	if err := rep.err(); err != nil {
		t.Fatal(err)
	}
	if rep.succeeded != rep.admitted || rep.transient != 0 || rep.deadlined != 0 {
		t.Errorf("clean soak: %d of %d succeeded, %d transient, %d deadline",
			rep.succeeded, rep.admitted, rep.transient, rep.deadlined)
	}
}
