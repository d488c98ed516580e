package pram

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestFaultPlanPermDeterministicAndComplete(t *testing.T) {
	plan := &FaultPlan{Seed: 42}
	permuted := false
	for round := uint64(0); round < 20; round++ {
		a := plan.perm(round, 8)
		b := plan.perm(round, 8)
		seen := make([]bool, 8)
		for i, v := range a {
			if v != b[i] {
				t.Fatalf("round %d: perm not deterministic: %v vs %v", round, a, b)
			}
			if v < 0 || v >= 8 || seen[v] {
				t.Fatalf("round %d: %v is not a permutation of [0,8)", round, a)
			}
			seen[v] = true
			if v != i {
				permuted = true
			}
		}
	}
	if !permuted {
		t.Error("20 rounds of seeded perms were all identity")
	}
	if other := (&FaultPlan{Seed: 43}).perm(0, 8); equalInts(other, plan.perm(0, 8)) {
		t.Error("different seeds produced the same round-0 permutation")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFaultPlanStallDeterministic(t *testing.T) {
	plan := &FaultPlan{Seed: 7, StallOneIn: 3, StallFor: time.Millisecond}
	hits := 0
	for round := uint64(0); round < 50; round++ {
		for w := 0; w < 4; w++ {
			d := plan.stall(round, w)
			if d != plan.stall(round, w) {
				t.Fatal("stall not deterministic")
			}
			if d > 0 {
				if d != time.Millisecond {
					t.Fatalf("stall = %v, want StallFor", d)
				}
				hits++
			}
		}
	}
	if hits == 0 || hits == 200 {
		t.Errorf("stall hit %d of 200 (round, worker) pairs — not selective", hits)
	}
	// Default duration when StallFor is unset.
	def := &FaultPlan{StallOneIn: 1}
	if d := def.stall(0, 0); d != 100*time.Microsecond {
		t.Errorf("default stall = %v, want 100µs", d)
	}
}

func TestFaultPlanInjectedDefaults(t *testing.T) {
	plan := &FaultPlan{PanicAt: []FaultPoint{{Round: 3, Worker: 2}}}
	if _, ok := plan.injected(3, 1); ok {
		t.Error("injected at wrong worker")
	}
	if _, ok := plan.injected(2, 2); ok {
		t.Error("injected at wrong round")
	}
	v, ok := plan.injected(3, 2)
	if !ok {
		t.Fatal("planned injection not reported")
	}
	if s, _ := v.(string); s != "pram: injected fault at round 3 worker 2" {
		t.Errorf("default panic value = %v", v)
	}
}

// TestPermutedScheduleCoversAllIndices proves the permuted assignment
// still visits every index exactly once, in both single-round and fused
// dispatch.
func TestPermutedScheduleCoversAllIndices(t *testing.T) {
	const n = 10000
	for _, fused := range []bool{false, true} {
		m := New(64, WithExec(Pooled), WithWorkers(4),
			WithFaults(&FaultPlan{Seed: 5, PermuteSchedule: true}))
		visits := make([]int32, n)
		runRound := func() {
			m.ParFor(n, func(i int) { atomic.AddInt32(&visits[i], 1) })
		}
		rounds := 3
		if fused {
			m.Batch(func() {
				for r := 0; r < rounds; r++ {
					runRound()
				}
			})
		} else {
			for r := 0; r < rounds; r++ {
				runRound()
			}
		}
		for i, v := range visits {
			if v != int32(rounds) {
				t.Fatalf("fused=%v: index %d visited %d times, want %d", fused, i, v, rounds)
			}
		}
		m.Close()
	}
}

// TestFaultPlanPreservesStats: permuted schedules and injected stalls
// must leave Time/Work/Phases bit-identical to an unperturbed machine.
func TestFaultPlanPreservesStats(t *testing.T) {
	run := func(opts ...Option) Stats {
		m := New(32, opts...)
		defer m.Close()
		m.Phase("work")
		data := make([]int64, 5000)
		m.Batch(func() {
			for r := 0; r < 4; r++ {
				m.ParFor(len(data), func(i int) { atomic.AddInt64(&data[i], 1) })
			}
		})
		m.ParForCost(1000, 3, func(i int) {})
		return m.Snapshot()
	}
	ref := run()
	plans := []*FaultPlan{
		{Seed: 11, PermuteSchedule: true},
		{Seed: 7, StallOneIn: 17, StallFor: 50 * time.Microsecond},
		{Seed: 40, PermuteSchedule: true, StallOneIn: 23},
	}
	for _, plan := range plans {
		got := run(WithExec(Pooled), WithWorkers(4), WithFaults(plan))
		if got.Time != ref.Time || got.Work != ref.Work || len(got.Phases) != len(ref.Phases) {
			t.Errorf("plan %+v: stats diverged: got T=%d W=%d, want T=%d W=%d",
				plan, got.Time, got.Work, ref.Time, ref.Work)
		}
	}
}
