package pram

import (
	"reflect"
	"sync/atomic"
	"testing"
)

func TestPooledParForVisitsEachIndexOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 100, 1000} {
		m := New(8, WithExec(Pooled), WithWorkers(4))
		counts := make([]int32, n)
		m.ParFor(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
		m.Close()
	}
}

func TestPooledProcPrimitives(t *testing.T) {
	m := New(13, WithExec(Pooled), WithWorkers(4))
	defer m.Close()
	seen := make([]int32, 13)
	m.ProcFor(func(q int) { atomic.AddInt32(&seen[q], 1) })
	m.ProcRun(5, func(q int) { atomic.AddInt32(&seen[q], 1) })
	for q, c := range seen {
		if c != 2 {
			t.Fatalf("processor %d run %d times, want 2", q, c)
		}
	}
	if m.Time() != 6 || m.Work() != 13+65 {
		t.Errorf("time=%d work=%d, want 6/78", m.Time(), m.Work())
	}
}

// TestBatchFusedDependentRounds drives consecutive fused rounds where
// round k+1 reads cells written in round k by *other* workers' chunks —
// the pointer-jumping access pattern. A missing barrier between fused
// rounds would corrupt the result.
func TestBatchFusedDependentRounds(t *testing.T) {
	n := 10000
	expect := func() []int64 {
		a := make([]int64, n)
		for i := range a {
			a[i] = int64(i)
		}
		b := make([]int64, n)
		for r := 0; r < 20; r++ {
			for i := 0; i < n; i++ {
				b[i] = a[(i+n/2)%n] + a[i]
			}
			a, b = b, a
		}
		return a
	}()

	m := New(64, WithExec(Pooled), WithWorkers(8))
	defer m.Close()
	a := make([]int64, n)
	m.ParFor(n, func(i int) { a[i] = int64(i) })
	b := make([]int64, n)
	m.Batch(func() {
		for r := 0; r < 20; r++ {
			m.ParFor(n, func(i int) { b[i] = a[(i+n/2)%n] + a[i] })
			a, b = b, a
		}
	})
	if !reflect.DeepEqual(a, expect) {
		t.Fatal("fused rounds diverged from the sequential schedule")
	}
}

// TestBatchAccountingIdentical runs the same primitive sequence fused
// and unfused on the Sequential and Pooled executors; Time, Work and
// per-phase stats must agree bit-for-bit.
func TestBatchAccountingIdentical(t *testing.T) {
	run := func(exec Exec, fused bool) Stats {
		m := New(7, WithExec(exec), WithWorkers(3))
		defer m.Close()
		n := 500
		a := make([]int64, n)
		ops := func() {
			m.Phase("jump")
			m.ParFor(n, func(i int) { a[i] = int64(i) })
			m.ParForCost(33, 4, func(i int) { a[i]++ })
			m.Phase("local")
			m.ProcFor(func(q int) {})
			m.ProcRun(9, func(q int) {})
		}
		if fused {
			m.Batch(ops)
		} else {
			ops()
		}
		return m.Snapshot()
	}
	ref := run(Sequential, false)
	for _, exec := range []Exec{Sequential, Pooled} {
		for _, fused := range []bool{false, true} {
			got := run(exec, fused)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%v fused=%v: stats %+v, want %+v", exec, fused, got, ref)
			}
		}
	}
}

func TestBatchNested(t *testing.T) {
	m := New(8, WithExec(Pooled), WithWorkers(4))
	defer m.Close()
	n := 1000
	counts := make([]int32, n)
	m.Batch(func() {
		m.ParFor(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		m.Batch(func() {
			m.ParFor(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		})
		// Direct machine primitives inside a batch fuse into the group.
		m.ParFor(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	})
	for i, c := range counts {
		if c != 3 {
			t.Fatalf("index %d visited %d times, want 3", i, c)
		}
	}
}

func TestCloseIdempotentAndFallback(t *testing.T) {
	m := New(8, WithExec(Pooled), WithWorkers(4))
	m.Close()
	m.Close() // idempotent
	// After Close the machine still works (inline execution) and keeps
	// charging identically.
	var total int32
	m.ParFor(10, func(i int) { atomic.AddInt32(&total, 1) })
	m.Batch(func() {
		m.ParFor(10, func(i int) { atomic.AddInt32(&total, 1) })
	})
	if total != 20 {
		t.Errorf("visited %d of 20 after Close", total)
	}
	if m.Time() != 4 || m.Work() != 20 {
		t.Errorf("time=%d work=%d, want 4/20", m.Time(), m.Work())
	}
}

func TestPooledSingleWorkerRunsInline(t *testing.T) {
	m := New(8, WithExec(Pooled), WithWorkers(1))
	defer m.Close()
	if m.pool != nil {
		t.Fatal("single-worker pooled machine should not start a pool")
	}
	var total int32
	m.Batch(func() {
		m.ParFor(10, func(i int) { total++ }) // no atomics needed: inline
	})
	if total != 10 {
		t.Errorf("visited %d of 10", total)
	}
}

// TestBatchHostCodeBetweenRounds checks that host computation between
// fused rounds observes all effects of the preceding round (the
// coordinator rejoins the barrier before ParFor returns inside a batch).
func TestBatchHostCodeBetweenRounds(t *testing.T) {
	m := New(16, WithExec(Pooled), WithWorkers(4))
	defer m.Close()
	n := 4096
	a := make([]int64, n)
	var sums []int64
	m.Batch(func() {
		for r := 0; r < 5; r++ {
			m.ParFor(n, func(i int) { a[i]++ })
			var s int64
			for _, v := range a {
				s += v
			}
			sums = append(sums, s)
		}
	})
	for r, s := range sums {
		if want := int64(n) * int64(r+1); s != want {
			t.Fatalf("after round %d: sum %d, want %d", r, s, want)
		}
	}
}

func TestResetClearsCheckedState(t *testing.T) {
	m := New(2)
	a := NewCheckedArray(m, EREW, "A", 4)
	// Round at vtime 0: processor 0 reads cell 0 — legal.
	m.ParFor(2, func(i int) {
		if i == 0 {
			a.Read(0)
		}
	})
	m.Reset()
	if m.vproc != 0 {
		// vproc is reset so a pre-round Read is attributed to processor 0
		// deterministically, not to whichever processor last ran.
		t.Fatalf("vproc = %d after Reset, want 0", m.vproc)
	}
	// After Reset the virtual clock restarts at 0. Processor 1 reading
	// cell 0 in the new first round must NOT combine with the stale
	// pre-Reset read into a bogus concurrent-read violation.
	m.ParFor(2, func(i int) {
		if i == 1 {
			a.Read(0)
		}
	})
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("stale conflict state leaked across Reset: %v", v)
	}
}
