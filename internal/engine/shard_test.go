package engine

// Tests for sharded execution (shard.go / step.go): equivalence with
// the whole-request path, validation taxonomy, step retry, mid-plan
// deadline/cancellation hygiene, step accounting, and the
// steady-state allocation budget.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/obs"
	"parlist/internal/plan"
	"parlist/internal/pram"
	"parlist/internal/verify"
)

// TestShardedDoMatchesDo is sharded execution's core contract: for
// every generator, size and fan-out, ShardedDo's stitched output is
// bit-identical to the same request served whole.
func TestShardedDoMatchesDo(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 3, Engine: Config{Processors: 8}})
	defer pool.Close()

	for _, gen := range list.Generators() {
		for _, n := range []int{1, 2, 7, 64, 500, 1500} {
			l := gen.Make(n, 21)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = i%7 - 3
			}
			reqs := []Request{
				{Op: OpRank, List: l},
				{Op: OpRank, List: l, Rank: RankWyllie},
				{Op: OpPrefix, List: l, Values: vals},
			}
			for _, req := range reqs {
				want, err := pool.Do(bg, req)
				if err != nil {
					t.Fatalf("%s n=%d %v: whole: %v", gen.Name, n, req.Op, err)
				}
				for _, k := range []int{1, 2, 3, 4, 8} {
					got, err := pool.ShardedDo(bg, req, k)
					if err != nil {
						t.Fatalf("%s n=%d %v k=%d: %v", gen.Name, n, req.Op, k, err)
					}
					if err := verify.Stitched(got.Ranks, want.Ranks); err != nil {
						t.Fatalf("%s n=%d %v k=%d: %v", gen.Name, n, req.Op, k, err)
					}
					if req.Op == OpRank {
						if err := verify.Ranks(l, got.Ranks); err != nil {
							t.Fatalf("%s n=%d k=%d: %v", gen.Name, n, k, err)
						}
					}
					sh := got.Sharding
					if sh == nil {
						t.Fatalf("%s n=%d k=%d: no ShardStats", gen.Name, n, k)
					}
					wantK := k
					if wantK > n {
						wantK = n
					}
					if sh.Shards != wantK {
						t.Fatalf("%s n=%d k=%d: Shards = %d, want %d", gen.Name, n, k, sh.Shards, wantK)
					}
					if wantK >= 2 {
						if sh.Segments < wantK || sh.Segments > n {
							t.Fatalf("%s n=%d k=%d: %d segments outside [%d, %d]", gen.Name, n, k, sh.Segments, wantK, n)
						}
						if sh.ExchangeBytes != plan.ExchangeBytes(sh.Segments) {
							t.Fatalf("%s n=%d k=%d: ExchangeBytes = %d, want %d", gen.Name, n, k, sh.ExchangeBytes, plan.ExchangeBytes(sh.Segments))
						}
					}
				}
			}
		}
	}
}

// TestShardedDoValidation pins the validation class: every malformed
// sharded request fails fast with its typed sentinel, before any step
// is scheduled.
func TestShardedDoValidation(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, Engine: Config{Processors: 4}})
	defer pool.Close()
	l := list.RandomList(64, 2)

	cases := []struct {
		name string
		err  func() error
		want error
	}{
		{"zero shards", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l}, 0)
			return err
		}, ErrBadShards},
		{"nil list", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank}, 2)
			return err
		}, ErrNilList},
		{"negative processors", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l, Processors: -1}, 2)
			return err
		}, ErrBadProcessors},
		{"processors over the cap", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l, Processors: MaxProcessors + 1}, 2)
			return err
		}, ErrBadProcessors},
		{"unshardable op", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpMatching, List: l}, 2)
			return err
		}, ErrShardUnsupported},
		{"unshardable rank scheme", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l, Rank: RankLoadBalanced}, 2)
			return err
		}, ErrShardUnsupported},
		{"bad values", func() error {
			_, err := pool.ShardedDo(bg, Request{Op: OpPrefix, List: l, Values: []int{1}}, 2)
			return err
		}, ErrBadValues},
		{"corrupt list", func() error {
			bad := list.New([]int{1, 0}, 0) // 2-cycle
			_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: bad}, 2)
			return err
		}, nil},
	}
	for _, tc := range cases {
		err := tc.err()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: errors.Is(%v, %v) = false", tc.name, err, tc.want)
		}
	}
	if st := pool.Stats(); st.Steps != 0 || st.Retries != 0 {
		t.Errorf("validation errors ran %d steps, %d retries; want 0, 0", st.Steps, st.Retries)
	}

	pool.Close()
	if _, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l}, 2); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("closed pool: err = %v, want ErrPoolClosed", err)
	}
}

// TestShardedStepRetryTransient is retry-a-step: a fault plan that
// kills shard 0's contract step retries THAT STEP on another engine,
// the rest of the plan proceeds, and the stitched result is
// bit-identical to a fault-free run.
func TestShardedStepRetryTransient(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 16,
		Engine: pooledCfg(),
		Retry:  RetryPolicy{Max: 2},
	})
	defer pool.Close()
	l := list.RandomList(2048, 31)
	want, err := pool.Do(bg, Request{Op: OpRank, List: l})
	if err != nil {
		t.Fatal(err)
	}

	// The contract step's rounds are step-relative: mark (0, 1) then the
	// segment walks (2). Kill a worker in the walk round.
	faults := &pram.FaultPlan{Seed: 5, PanicAt: []pram.FaultPoint{{Round: 2, Worker: 1}}}
	got, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l, Faults: faults}, 4)
	if err != nil {
		t.Fatalf("sharded request with faulted step: %v", err)
	}
	if err := verify.Stitched(got.Ranks, want.Ranks); err != nil {
		t.Fatal(err)
	}
	if got.Sharding.StepRetries < 1 {
		t.Errorf("StepRetries = %d, want ≥ 1", got.Sharding.StepRetries)
	}
	if st := pool.Stats(); st.Retries < 1 {
		t.Errorf("pool Retries = %d, want ≥ 1", st.Retries)
	}

	// Without retry budget the step failure surfaces as the transient
	// class, wrapped with step context.
	noRetry := NewPool(PoolConfig{Engines: 2, Engine: pooledCfg()})
	defer noRetry.Close()
	_, err = noRetry.ShardedDo(bg, Request{Op: OpRank, List: l, Faults: faults}, 4)
	if err == nil {
		t.Fatal("faulted step with no retry budget succeeded")
	}
	if !pram.Transient(err) {
		t.Errorf("step failure not transient-class: %v", err)
	}
}

// TestShardedDoDeadlineAndCancel covers mid-plan aborts: a budget or
// context that dies inside the plan fails the request with the usual
// sentinel, every in-flight step is awaited (the shared scratch is
// released only then), no goroutines leak, and the pool keeps serving.
func TestShardedDoDeadlineAndCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8, Engine: Config{Processors: 8}})
	l := list.RandomList(60000, 33)

	// A budget this small dies somewhere inside the plan — at step
	// admission, queued, or mid-service; all must map to the sentinel.
	_, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l, Deadline: 50 * time.Microsecond}, 4)
	if err == nil {
		t.Fatal("50µs sharded request succeeded on a 60k list")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("deadline error = %v, want ErrDeadlineExceeded", err)
	}

	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := pool.ShardedDo(ctx, Request{Op: OpRank, List: l}, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled ctx error = %v, want context.Canceled", err)
	}

	// The pool (and the recycled plan scratch) must be healthy: a clean
	// sharded request right after the aborts serves bit-identically.
	want, err := pool.Do(bg, Request{Op: OpRank, List: l})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l}, 4)
	if err != nil {
		t.Fatalf("after aborts: %v", err)
	}
	if err := verify.Stitched(got.Ranks, want.Ranks); err != nil {
		t.Fatalf("after aborts: %v", err)
	}

	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutinesPool(t, before)
}

// TestShardedDoStepAccounting checks the served-work bookkeeping: a
// K-shard request runs 2K+1 engine steps (K contracts, 1 solve, K
// expands — the exchange is coordinator-inline), counted in
// PoolStats.Steps and the engines' Stats.Steps, with aggregated
// simulated Time/Work on the Result.
func TestShardedDoStepAccounting(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, Engine: Config{Processors: 8}})
	defer pool.Close()
	l := list.RandomList(1000, 8)

	const k = 4
	res, err := pool.ShardedDo(bg, Request{Op: OpRank, List: l}, k)
	if err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Steps != 2*k+1 {
		t.Errorf("PoolStats.Steps = %d, want %d", st.Steps, 2*k+1)
	}
	if st.Requests != 0 {
		t.Errorf("PoolStats.Requests = %d, want 0 (steps are not requests)", st.Requests)
	}
	var engineSteps int64
	for _, e := range st.PerEngine {
		engineSteps += e.Stats.Steps
	}
	if engineSteps != 2*k+1 {
		t.Errorf("engine Stats.Steps sum = %d, want %d", engineSteps, 2*k+1)
	}
	if res.Stats.Work <= 0 || res.Stats.Time <= 0 {
		t.Errorf("aggregated Stats = {Time: %d, Work: %d}, want positive", res.Stats.Time, res.Stats.Work)
	}
	if len(res.Sharding.ContractWall) != k {
		t.Errorf("ContractWall has %d entries, want %d", len(res.Sharding.ContractWall), k)
	}
}

// TestShardedDoSteadyStateAllocBudget is the sharded path's allocation
// guard: per-request allocation COUNT is bounded and independent of n —
// the shard state comes from the recycled arena pool, so only the
// fixed per-step bookkeeping (futures, specs, the result copy)
// allocates.
func TestShardedDoSteadyStateAllocBudget(t *testing.T) {
	pool := NewPool(PoolConfig{Engines: 2, Engine: Config{Processors: 8}})
	defer pool.Close()

	measure := func(n int) float64 {
		l := list.RandomList(n, 9)
		req := Request{Op: OpRank, List: l}
		run := func() {
			if _, err := pool.ShardedDo(bg, req, 4); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm plan cache, arena buckets, engine free lists
		run()
		// Parallel steps make the per-sample count jitter with goroutine
		// scheduling (±10 on a loaded 1-CPU host, worse under -race); the
		// minimum over a few samples is the intrinsic allocation count.
		best := testing.AllocsPerRun(10, run)
		for i := 0; i < 2; i++ {
			if a := testing.AllocsPerRun(10, run); a < best {
				best = a
			}
		}
		return best
	}

	small, large := measure(1<<12), measure(1<<14)
	const budget = 96
	if small > budget || large > budget {
		t.Errorf("allocs/request = %.1f (n=4k), %.1f (n=16k); budget %d", small, large, budget)
	}
	if diff := large - small; diff > 8 || diff < -8 {
		t.Errorf("alloc count scales with n: %.1f (n=4k) vs %.1f (n=16k)", small, large)
	}
}

// FuzzShardedRankEquivalence fuzzes list shape, size and fan-out:
// stitched rank and prefix results must be bit-identical to a
// single-engine run.
func FuzzShardedRankEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(2))
	f.Add(int64(7), uint16(0), uint8(1))   // singleton list, trivial plan
	f.Add(int64(3), uint16(63), uint8(8))  // more shards than queue slack
	f.Add(int64(9), uint16(512), uint8(3)) // uneven split
	f.Add(int64(42), uint16(4999), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nn uint16, kk uint8) {
		n := int(nn)%5000 + 1
		k := int(kk)%8 + 1
		l := list.RandomList(n, seed)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = int(seed+int64(i))%11 - 5
		}
		pool := NewPool(PoolConfig{Engines: 2, Engine: Config{Processors: 8}})
		defer pool.Close()
		eng := New(Config{Processors: 8})
		defer eng.Close()
		for _, req := range []Request{
			{Op: OpRank, List: l},
			{Op: OpPrefix, List: l, Values: vals},
		} {
			got, err := pool.ShardedDo(bg, req, k)
			if err != nil {
				t.Fatalf("n=%d k=%d %v: sharded: %v", n, k, req.Op, err)
			}
			want, err := eng.Run(bg, req)
			if err != nil {
				t.Fatalf("n=%d %v: single engine: %v", n, req.Op, err)
			}
			if !reflect.DeepEqual(got.Ranks, want.Ranks) {
				t.Fatalf("n=%d k=%d %v: stitched output diverges from single engine", n, k, req.Op)
			}
		}
	})
}

// TestShardedMetrics wires a real collector through a sharded request
// and checks the sharded series land: request/segment/exchange
// counters, imbalance and step-wall histograms, barrier waits.
func TestShardedMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := obs.NewCollector(reg)
	pool := NewPool(PoolConfig{Engines: 2, QueueDepth: 8,
		Engine:   Config{Processors: 8},
		Observer: c,
	})
	defer pool.Close()

	res, err := pool.ShardedDo(bg, Request{Op: OpRank, List: list.RandomList(2000, 31)}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"parlist_sharded_requests_total 1",
		"parlist_shard_segments_total " + strconv.Itoa(res.Sharding.Segments),
		"parlist_exchange_bytes_total " + strconv.FormatInt(res.Sharding.ExchangeBytes, 10),
		"parlist_shard_imbalance_permille_count 1",
		`parlist_shard_step_wall_ns_count{kind="step-contract"} 4`,
		`parlist_shard_step_wall_ns_count{kind="step-solve"} 1`,
		`parlist_shard_step_wall_ns_count{kind="step-expand"} 4`,
		"parlist_shard_steps_total 9",
		"parlist_shard_barrier_wait_ns_count 9",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if c.ExchangeBytesTotal() != res.Sharding.ExchangeBytes {
		t.Errorf("ExchangeBytesTotal = %d, want %d", c.ExchangeBytesTotal(), res.Sharding.ExchangeBytes)
	}
}
