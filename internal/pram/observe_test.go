package pram_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"parlist/internal/obs"
	"parlist/internal/pram"
)

// countObserver is a minimal observer that only counts events by kind,
// so equivalence tests can prove hooks fire without the weight of a
// full collector.
type countObserver struct {
	rounds   atomic.Int64
	barriers atomic.Int64
	phases   atomic.Int64
}

func (o *countObserver) Observe(e obs.Event) {
	switch e.Kind {
	case obs.KindParFor, obs.KindProc:
		o.rounds.Add(1)
	case obs.KindBarrierWait:
		o.barriers.Add(1)
	case obs.KindPhase:
		o.phases.Add(1)
	}
}

// workload drives every primitive the observer hooks: phased ParFor,
// ParForCost, ProcFor, ProcRun, and a fused batch.
func workload(m *pram.Machine) {
	const n = 1 << 10
	buf := make([]int, n)
	m.Phase("fill")
	m.ParFor(n, func(i int) { buf[i] = i })
	m.Phase("scale")
	m.ParForCost(n, 2, func(i int) { buf[i] *= 3 })
	m.ProcFor(func(q int) { _ = q })
	m.ProcRun(4, func(q int) { _ = q })
	m.Phase("batch")
	m.Batch(func() {
		for r := 0; r < 4; r++ {
			m.ParFor(n, func(i int) { buf[i]++ })
		}
	})
}

// TestStatsIdenticalWithObserver is the core invariant of the
// observability layer: attaching an Observer must not change the
// simulated accounting in any way, on any executor. The two machines
// run the same workload; their Snapshots must be deep-equal.
func TestStatsIdenticalWithObserver(t *testing.T) {
	for _, ex := range []pram.Exec{pram.Sequential, pram.Pooled} {
		t.Run(ex.String(), func(t *testing.T) {
			plain := pram.New(8, pram.WithExec(ex), pram.WithWorkers(4))
			defer plain.Close()
			o := &countObserver{}
			observed := pram.New(8, pram.WithExec(ex), pram.WithWorkers(4), pram.WithObserver(o))
			defer observed.Close()

			workload(plain)
			workload(observed)
			observed.FlushSpans()

			a, b := plain.Snapshot(), observed.Snapshot()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("Stats diverge with observer attached:\n  off: %+v\n  on:  %+v", a, b)
			}
			if o.rounds.Load() == 0 {
				t.Error("observer saw no rounds — hooks not firing")
			}
			if o.phases.Load() == 0 {
				t.Error("observer saw no phase spans")
			}
			if ex == pram.Pooled && o.barriers.Load() == 0 {
				t.Error("pooled observer saw no barrier waits")
			}
		})
	}
}

// TestObserverCollectorStatsIdentical repeats the invariant with the
// real obs.Collector (the implementation that ships), not just the
// counting stub, on the Pooled executor where hook sites are densest.
func TestObserverCollectorStatsIdentical(t *testing.T) {
	c := obs.NewCollector(obs.NewRegistry())
	plain := pram.New(8, pram.WithExec(pram.Pooled), pram.WithWorkers(4))
	defer plain.Close()
	observed := pram.New(8, pram.WithExec(pram.Pooled), pram.WithWorkers(4), pram.WithObserver(c))
	defer observed.Close()

	workload(plain)
	workload(observed)
	observed.FlushSpans()

	if a, b := plain.Snapshot(), observed.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Errorf("Stats diverge with collector attached:\n  off: %+v\n  on:  %+v", a, b)
	}
	var s obs.HistSnapshot
	c.RoundWall().Snapshot(&s)
	if s.Count == 0 {
		t.Error("collector recorded no rounds")
	}
}

// TestObserverDetachedZeroAlloc pins the observer-off hot path: a
// steady-state pooled ParFor must not allocate, so the nil-check hooks
// are provably free of hidden boxing or closure allocation.
func TestObserverDetachedZeroAlloc(t *testing.T) {
	m := pram.New(8, pram.WithExec(pram.Pooled), pram.WithWorkers(4))
	defer m.Close()
	const n = 1 << 12
	buf := make([]int, n)
	body := func(i int) { buf[i]++ }
	m.ParFor(n, body) // warm the pool
	if avg := testing.AllocsPerRun(50, func() { m.ParFor(n, body) }); avg != 0 {
		t.Errorf("observer-off pooled ParFor allocs/op = %v, want 0", avg)
	}
}

// BenchmarkObserverOverhead measures the cost of observation on the
// pooled round path: "off" is the baseline nil-observer machine, "on"
// attaches a live obs.Collector. CI runs this with -benchmem as the
// overhead guard; the off case must report 0 allocs/op.
func BenchmarkObserverOverhead(b *testing.B) {
	const n = 1 << 12
	run := func(b *testing.B, opts ...pram.Option) {
		opts = append([]pram.Option{pram.WithExec(pram.Pooled), pram.WithWorkers(4)}, opts...)
		m := pram.New(8, opts...)
		defer m.Close()
		buf := make([]int, n)
		body := func(i int) { buf[i]++ }
		m.ParFor(n, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ParFor(n, body)
		}
	}
	b.Run("off", func(b *testing.B) { run(b) })
	b.Run("on", func(b *testing.B) {
		run(b, pram.WithObserver(obs.NewCollector(obs.NewRegistry())))
	})
}
