package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/verify"
)

var bg = context.Background()

// TestEngineMatchesDirectRuns pins the compatibility contract: an
// engine-served request is bit-identical — membership AND accounting —
// to the same algorithm run directly on a fresh machine, for every
// algorithm and executor.
func TestEngineMatchesDirectRuns(t *testing.T) {
	execs := []struct {
		name string
		exec pram.Exec
	}{
		{"sequential", pram.Sequential},
		{"pooled", pram.Pooled},
	}
	algos := []Algorithm{AlgoMatch1, AlgoMatch2, AlgoMatch3, AlgoMatch4, AlgoSequential, AlgoRandomized}
	l := list.RandomList(3000, 42)
	for _, ex := range execs {
		eng := New(Config{Processors: 8, Exec: ex.exec, Workers: 4})
		for _, algo := range algos {
			m := pram.New(8, pram.WithExec(ex.exec), pram.WithWorkers(4))
			var want *matching.Result
			var err error
			e := partition.NewEvaluator(partition.MSB, 12)
			switch algo {
			case AlgoMatch1:
				want = matching.Match1(m, l, e)
			case AlgoMatch2:
				want = matching.Match2(m, l, e)
			case AlgoMatch3:
				want, err = matching.Match3(m, l, e, matching.Match3Config{})
			case AlgoMatch4:
				want, err = matching.Match4(m, l, e, matching.Match4Config{I: 3})
			case AlgoSequential:
				in := matching.Sequential(l)
				m.Charge(int64(l.Len()), int64(l.Len()))
				want = &matching.Result{Algorithm: "sequential", In: in, Size: matching.Count(in), Stats: m.Snapshot()}
			case AlgoRandomized:
				in, rounds := matching.Randomized(m, l, 9)
				want = &matching.Result{Algorithm: "randomized", In: in, Size: matching.Count(in), Rounds: rounds, Stats: m.Snapshot()}
			}
			if err != nil {
				t.Fatalf("%s/%s: direct: %v", ex.name, algo, err)
			}
			m.Close()

			got, err := eng.Run(bg, Request{Op: OpMatching, List: l, Algorithm: algo, Seed: 9})
			if err != nil {
				t.Fatalf("%s/%s: engine: %v", ex.name, algo, err)
			}
			if !reflect.DeepEqual(got.In, want.In) {
				t.Errorf("%s/%s: matchings diverge", ex.name, algo)
			}
			if got.Size != want.Size || got.Sets != want.Sets || got.Rounds != want.Rounds || got.TableSize != want.TableSize {
				t.Errorf("%s/%s: detail diverges: got %d/%d/%d/%d want %d/%d/%d/%d", ex.name, algo,
					got.Size, got.Sets, got.Rounds, got.TableSize, want.Size, want.Sets, want.Rounds, want.TableSize)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Errorf("%s/%s: stats diverge\n got: %+v\nwant: %+v", ex.name, algo, got.Stats, want.Stats)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineReuseIsDeterministic proves the workspace/machine recycling
// is invisible: the same request served repeatedly (and interleaved
// with requests of other sizes and ops) returns identical results.
func TestEngineReuseIsDeterministic(t *testing.T) {
	eng := New(Config{Processors: 8, Exec: pram.Pooled, Workers: 4})
	defer eng.Close()
	l := list.RandomList(2048, 3)
	small := list.RandomList(100, 4)

	first, err := eng.Run(bg, Request{List: l})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		// Interleave other shapes to churn the workspace buckets.
		if _, err := eng.Run(bg, Request{List: small, Op: OpRank}); err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(bg, Request{List: l})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Fatalf("rerun %d diverged", i)
		}
	}
	st := eng.Stats()
	if st.Requests != 7 {
		t.Errorf("Requests = %d, want 7", st.Requests)
	}
	if st.Failures != 0 || st.Rebuilds != 0 {
		t.Errorf("Failures/Rebuilds = %d/%d, want 0/0", st.Failures, st.Rebuilds)
	}
	if st.SimTime <= 0 || st.SimWork <= 0 {
		t.Errorf("cumulative sim counters not accumulated: %+v", st)
	}
	if st.Arena.Gets == 0 || st.Arena.Hits == 0 {
		t.Errorf("arena counters flat: %+v", st.Arena)
	}
}

// TestEngineAllOps smoke-checks every op against its checker and the
// direct implementation.
func TestEngineAllOps(t *testing.T) {
	eng := New(Config{Processors: 4})
	defer eng.Close()
	l := list.RandomList(600, 8)
	n := l.Len()

	mm, err := eng.Run(bg, Request{Op: OpMatching, List: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MaximalMatching(l, mm.In); err != nil {
		t.Errorf("matching: %v", err)
	}

	part, err := eng.Run(bg, Request{Op: OpPartition, List: l, Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Partition(l, part.Labels, part.Sets); err != nil {
		t.Errorf("partition: %v", err)
	}

	col, err := eng.Run(bg, Request{Op: OpThreeColor, List: l})
	if err != nil {
		t.Fatal(err)
	}
	if len(col.Labels) != n {
		t.Fatalf("threecolor: %d labels", len(col.Labels))
	}

	mis, err := eng.Run(bg, Request{Op: OpMIS, List: l})
	if err != nil {
		t.Fatal(err)
	}
	if len(mis.In) != n {
		t.Fatalf("mis: %d entries", len(mis.In))
	}

	for _, scheme := range []RankScheme{RankContraction, RankWyllie, RankLoadBalanced, RankRandomMate} {
		rk, err := eng.Run(bg, Request{Op: OpRank, List: l, Rank: scheme})
		if err != nil {
			t.Fatalf("rank/%s: %v", scheme, err)
		}
		if err := verify.Ranks(l, rk.Ranks); err != nil {
			t.Errorf("rank/%s: %v", scheme, err)
		}
	}

	vals := make([]int, n)
	for i := range vals {
		vals[i] = i % 7
	}
	pre, err := eng.Run(bg, Request{Op: OpPrefix, List: l, Values: vals})
	if err != nil {
		t.Fatal(err)
	}
	m := pram.New(4)
	want, _, err := rank.Prefix(m, l, vals, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pre.Ranks, want) {
		t.Error("prefix diverges from direct run")
	}

	lab, K, err := func() ([]int, int, error) {
		mm := pram.New(4)
		lab, K := matching.PartitionIterated(mm, l, nil, 3)
		return lab, K, nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := eng.Run(bg, Request{Op: OpSchedule, List: l, Labels: lab, K: K})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.MaximalMatching(l, sched.In); err != nil {
		t.Errorf("schedule: %v", err)
	}
}

// TestEngineConcurrentSharing is the tentpole's concurrency contract: N
// goroutines share one engine, every result verifies, and results are
// independent of interleaving (same request → same answer).
func TestEngineConcurrentSharing(t *testing.T) {
	eng := New(Config{Processors: 8, Exec: pram.Pooled, Workers: 4})
	defer eng.Close()

	const goroutines = 8
	const perG = 5
	lists := make([]*list.List, goroutines)
	for i := range lists {
		lists[i] = list.RandomList(500+100*i, int64(i))
	}
	// Reference answers, served before the storm.
	refs := make([][]bool, goroutines)
	for i, l := range lists {
		r, err := eng.Run(bg, Request{List: l})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r.In
	}

	var wg sync.WaitGroup
	errc := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := lists[g]
			for k := 0; k < perG; k++ {
				r, err := eng.Run(bg, Request{List: l})
				if err != nil {
					errc <- fmt.Errorf("g%d/%d: %w", g, k, err)
					return
				}
				if err := verify.MaximalMatching(l, r.In); err != nil {
					errc <- fmt.Errorf("g%d/%d: %w", g, k, err)
					return
				}
				if !reflect.DeepEqual(r.In, refs[g]) {
					errc <- fmt.Errorf("g%d/%d: result depends on interleaving", g, k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if st := eng.Stats(); st.Requests != goroutines*(perG+1) {
		t.Errorf("Requests = %d, want %d", st.Requests, goroutines*(perG+1))
	}
}

// TestEngineFaultReseed is the Machine.Reset/SetFaults regression test:
// fault-plan coordinates are request-relative. A plan pinned to an
// early dispatch round must fire even when earlier requests already
// consumed thousands of pool rounds — and after the failure the engine
// must rebuild and serve bit-identical results again.
func TestEngineFaultReseed(t *testing.T) {
	eng := New(Config{Processors: 8, Exec: pram.Pooled, Workers: 4})
	defer eng.Close()
	l := list.RandomList(4096, 21)

	// Request 1: clean run, advances the pool's round counter far past
	// the fault coordinates below.
	first, err := eng.Run(bg, Request{List: l})
	if err != nil {
		t.Fatal(err)
	}

	// Request 2: a panic pinned to dispatch round 3. Without the
	// per-request rewind the counter would already be far beyond 3 and
	// the plan would silently never fire.
	plan := &pram.FaultPlan{Seed: 7, PanicAt: []pram.FaultPoint{{Round: 3, Worker: 1}}}
	_, err = eng.Run(bg, Request{List: l, Faults: plan})
	if err == nil {
		t.Fatal("faulted request succeeded: fault coordinates were not request-relative")
	}
	var wp *pram.WorkerPanic
	if !errors.As(err, &wp) {
		t.Fatalf("error is %v, want a *pram.WorkerPanic", err)
	}

	// Request 3: the machine degraded; the engine must rebuild and the
	// result must match request 1 bit for bit.
	third, err := eng.Run(bg, Request{List: l})
	if err != nil {
		t.Fatalf("post-fault request: %v", err)
	}
	if !reflect.DeepEqual(third, first) {
		t.Error("post-fault rebuild diverged from the clean run")
	}
	st := eng.Stats()
	if st.Failures != 1 {
		t.Errorf("Failures = %d, want 1", st.Failures)
	}
	if st.Rebuilds != 1 {
		t.Errorf("Rebuilds = %d, want 1", st.Rebuilds)
	}

	// Back-to-back non-fatal plans (schedule permutation + stalls):
	// results stay bit-identical to the clean run, twice in a row.
	benign := &pram.FaultPlan{Seed: 3, PermuteSchedule: true, StallOneIn: 64, StallFor: 50 * time.Microsecond}
	for k := 0; k < 2; k++ {
		got, err := eng.Run(bg, Request{List: l, Faults: benign})
		if err != nil {
			t.Fatalf("benign plan run %d: %v", k, err)
		}
		if !reflect.DeepEqual(got, first) {
			t.Errorf("benign plan run %d diverged", k)
		}
	}
}

// TestEngineValidation covers the typed error contract.
func TestEngineValidation(t *testing.T) {
	eng := New(Config{})
	defer eng.Close()
	l := list.SequentialList(8)

	cases := []struct {
		name string
		req  Request
		want error
	}{
		{"nil list", Request{}, ErrNilList},
		{"negative processors", Request{List: l, Processors: -2}, ErrBadProcessors},
		{"unknown algorithm", Request{List: l, Algorithm: "quantum"}, ErrUnknownAlgorithm},
		{"unknown rank scheme", Request{List: l, Op: OpRank, Rank: "psychic"}, ErrUnknownRankScheme},
		{"bad prefix values", Request{List: l, Op: OpPrefix, Values: []int{1}}, ErrBadValues},
		{"bad partition iters", Request{List: l, Op: OpPartition}, ErrBadIterations},
		{"partition iters over the cap", Request{List: l, Op: OpPartition, Iters: MaxIterations + 1}, ErrBadIterations},
		{"matching i over the cap", Request{List: l, I: MaxIterations + 1}, ErrBadIterations},
		{"mis i over the cap", Request{List: l, Op: OpMIS, I: MaxIterations + 1}, ErrBadIterations},
		{"unknown op", Request{List: l, Op: Op(99)}, ErrUnknownOp},
	}
	for _, c := range cases {
		_, err := eng.Run(bg, c.req)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if st := eng.Stats(); st.Failures != int64(len(cases)) {
		t.Errorf("Failures = %d, want %d", st.Failures, len(cases))
	}

	// At the cap itself every iteration parameter is served.
	for _, req := range []Request{
		{List: l, Op: OpPartition, Iters: MaxIterations},
		{List: l, I: MaxIterations},
		{List: l, Op: OpMIS, I: MaxIterations},
	} {
		if _, err := eng.Run(bg, req); err != nil {
			t.Errorf("%v at the cap: %v", req.Op, err)
		}
	}

	// A corrupt list is rejected by the shared validator.
	bad := list.SequentialList(4)
	bad.Next[2] = 1 // two predecessors for node 1
	if _, err := eng.Run(bg, Request{List: bad}); err == nil {
		t.Error("corrupt list accepted")
	}
}

// TestProcessorCap: a processor count one over MaxProcessors is refused
// with ErrBadProcessors before any machine work — Rebuilds unchanged —
// on every executor, Match2 (whose scratch grows with p) included, and
// the cap itself is served.
func TestProcessorCap(t *testing.T) {
	l := list.RandomList(64, 3)
	for _, ex := range []pram.Exec{pram.Sequential, pram.Pooled, pram.Native} {
		eng := New(Config{Exec: ex})
		if _, err := eng.Run(bg, Request{List: l}); err != nil {
			t.Fatalf("%v: warm-up: %v", ex, err)
		}
		before := eng.Stats().Rebuilds
		for _, algo := range []Algorithm{"", AlgoMatch2} {
			_, err := eng.Run(bg, Request{List: l, Algorithm: algo, Processors: MaxProcessors + 1})
			if !errors.Is(err, ErrBadProcessors) {
				t.Errorf("%v %q at cap+1: err = %v, want ErrBadProcessors", ex, algo, err)
			}
		}
		if got := eng.Stats().Rebuilds; got != before {
			t.Errorf("%v: Rebuilds %d → %d on refused requests", ex, before, got)
		}
		res, err := eng.Run(bg, Request{List: l, Processors: MaxProcessors})
		if err != nil {
			t.Fatalf("%v at the cap: %v", ex, err)
		}
		if err := matching.Verify(l, res.In); err != nil {
			t.Errorf("%v at the cap: %v", ex, err)
		}
		eng.Close()
	}
}

// TestEngineContextAndClose covers cancellation and shutdown.
func TestEngineContextAndClose(t *testing.T) {
	eng := New(Config{})
	l := list.SequentialList(64)

	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := eng.Run(ctx, Request{List: l}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx: err = %v", err)
	}

	if _, err := eng.Run(bg, Request{List: l}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := eng.Run(bg, Request{List: l}); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close: err = %v, want ErrClosed", err)
	}
}

// TestEngineProcessorOverrideRebuilds checks the per-request processor
// override swaps the machine (and counts it) while the workspace stays
// warm.
func TestEngineProcessorOverrideRebuilds(t *testing.T) {
	eng := New(Config{Processors: 4})
	defer eng.Close()
	l := list.RandomList(512, 2)

	a, err := eng.Run(bg, Request{List: l})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Run(bg, Request{List: l, Processors: 16})
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.Processors != 4 || b.Stats.Processors != 16 {
		t.Errorf("processors = %d/%d, want 4/16", a.Stats.Processors, b.Stats.Processors)
	}
	if a.Stats.Time <= b.Stats.Time {
		t.Errorf("more processors did not reduce simulated time: %d vs %d", a.Stats.Time, b.Stats.Time)
	}
	if st := eng.Stats(); st.Rebuilds != 1 {
		t.Errorf("Rebuilds = %d, want 1", st.Rebuilds)
	}
	if !reflect.DeepEqual(a.In, b.In) {
		t.Error("matching depends on processor count")
	}
}

// TestEngineSteadyStateZeroAlloc is the headline number: second and
// later MaximalMatching requests at a fixed n allocate nothing.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	eng := New(Config{Processors: 8})
	defer eng.Close()
	l := list.RandomList(4096, 5)
	var res Result
	run := func() {
		if err := eng.RunInto(bg, Request{List: l}, &res); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm free lists, result capacity, stats buffers
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("steady-state allocs/request = %v, want 0", avg)
	}
}
