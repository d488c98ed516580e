package pram

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunTeamChunkCoversRange proves the SPMD dispatch contract: every
// party runs the body exactly once, Chunk hands out disjoint contiguous
// shares that cover [0, n), and the party count matches NativeParties.
func TestRunTeamChunkCoversRange(t *testing.T) {
	m := New(64, WithExec(Native), WithWorkers(4))
	defer m.Close()
	if got := m.NativeParties(); got != 4 {
		t.Fatalf("NativeParties = %d, want 4", got)
	}
	const n = 1003 // not a multiple of the party count
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	var bodies atomic.Int32
	m.RunTeam(func(ctx *TeamCtx) {
		bodies.Add(1)
		lo, hi := ctx.Chunk(n)
		for v := lo; v < hi; v++ {
			owner[v] = ctx.Worker
		}
	})
	if got := int(bodies.Load()); got != 4 {
		t.Fatalf("body ran %d times, want 4", got)
	}
	for v := 0; v < n; v++ {
		if owner[v] < 0 {
			t.Fatalf("cell %d not covered by any chunk", v)
		}
		if v > 0 && owner[v] < owner[v-1] {
			t.Fatalf("chunks not contiguous: owner[%d]=%d after owner[%d]=%d",
				v, owner[v], v-1, owner[v-1])
		}
	}
}

// TestRunTeamBarrierPublishesWrites proves Barrier is a full
// synchronization point: phase-2 reads of cells written by *other*
// parties in phase 1 see the phase-1 values.
func TestRunTeamBarrierPublishesWrites(t *testing.T) {
	m := New(64, WithExec(Native), WithWorkers(4))
	defer m.Close()
	const n = 4096
	a := make([]int, n)
	b := make([]int, n)
	m.RunTeam(func(ctx *TeamCtx) {
		lo, hi := ctx.Chunk(n)
		for v := lo; v < hi; v++ {
			a[v] = v + 1
		}
		ctx.Barrier()
		for v := lo; v < hi; v++ {
			b[v] = a[n-1-v] // owned by the mirror-image party
		}
	})
	for v := 0; v < n; v++ {
		if b[v] != n-v {
			t.Fatalf("b[%d] = %d, want %d (phase-1 write not visible)", v, b[v], n-v)
		}
	}
}

// TestRunTeamInlineWithoutPool pins the fallback shape: machines with no
// worker pool (sequential executor, single worker) run the body inline
// as one party whose Chunk is the whole range and whose Barrier is a
// no-op.
func TestRunTeamInlineWithoutPool(t *testing.T) {
	for _, m := range []*Machine{
		New(16), // sequential
		New(16, WithExec(Native), WithWorkers(1)),
	} {
		if got := m.NativeParties(); got != 1 {
			t.Fatalf("NativeParties = %d, want 1", got)
		}
		ran := 0
		m.RunTeam(func(ctx *TeamCtx) {
			ran++
			if ctx.Worker != 0 || ctx.Workers != 1 {
				t.Errorf("inline ctx = %d/%d, want 0/1", ctx.Worker, ctx.Workers)
			}
			if lo, hi := ctx.Chunk(100); lo != 0 || hi != 100 {
				t.Errorf("inline Chunk = [%d,%d), want [0,100)", lo, hi)
			}
			ctx.Barrier() // must not block or panic
		})
		if ran != 1 {
			t.Fatalf("body ran %d times inline, want 1", ran)
		}
		m.Close()
	}
}

// TestRunTeamMixesWithSimulatedRounds proves teams and simulated
// primitives interleave on one machine — the engine's fallback matrix
// depends on this — and that only the simulated rounds charge Time/Work.
func TestRunTeamMixesWithSimulatedRounds(t *testing.T) {
	m := New(8, WithExec(Native), WithWorkers(4))
	defer m.Close()
	const n = 512
	a := make([]int, n)
	m.ParFor(n, func(i int) { a[i] = 1 })
	tAfterSim, wAfterSim := m.Time(), m.Work()
	if tAfterSim == 0 || wAfterSim != n {
		t.Fatalf("simulated round charged %d/%d, want >0/%d", tAfterSim, wAfterSim, n)
	}
	m.RunTeam(func(ctx *TeamCtx) {
		lo, hi := ctx.Chunk(n)
		for v := lo; v < hi; v++ {
			a[v]++
		}
	})
	if m.Time() != tAfterSim || m.Work() != wAfterSim {
		t.Fatalf("team charged the simulated accounting: %d/%d → %d/%d",
			tAfterSim, wAfterSim, m.Time(), m.Work())
	}
	m.ParFor(n, func(i int) { a[i]++ })
	for i, v := range a {
		if v != 3 {
			t.Fatalf("a[%d] = %d after sim/team/sim rounds, want 3", i, v)
		}
	}
	if m.Work() != 2*int64(n) {
		t.Fatalf("work = %d after second simulated round, want %d", m.Work(), 2*n)
	}
}

// TestTeamPanicRecovery is the teardown acceptance test: a panic in any
// team party — background worker or coordinator — surfaces on the
// caller as a *WorkerPanic attributed to that party, the machine
// degrades to inline execution (noted in Stats), stays usable, and no
// pool goroutine outlives the failure.
func TestTeamPanicRecovery(t *testing.T) {
	for _, at := range []struct {
		name  string
		party int
	}{
		{"background-worker", 3},
		{"coordinator", 0},
	} {
		t.Run(at.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := New(64, WithExec(Native), WithWorkers(4))
			var recovered any
			func() {
				defer func() { recovered = recover() }()
				m.RunTeam(func(ctx *TeamCtx) {
					if ctx.Worker == at.party {
						panic("team boom")
					}
					// The other parties park at a barrier so the abort
					// path, not a clean finish, must release them.
					ctx.Barrier()
				})
			}()
			wp, ok := recovered.(*WorkerPanic)
			if !ok {
				t.Fatalf("recovered %T (%v), want *WorkerPanic", recovered, recovered)
			}
			if wp.Value != "team boom" {
				t.Errorf("Value = %v, want team boom", wp.Value)
			}
			if wp.Worker != at.party {
				t.Errorf("Worker = %d, want %d", wp.Worker, at.party)
			}
			if !m.Degraded() {
				t.Error("machine not degraded after team panic")
			}
			if m.NativeParties() != 1 {
				t.Errorf("NativeParties = %d after degradation, want 1", m.NativeParties())
			}
			notes := m.Snapshot().Notes
			if len(notes) == 0 {
				t.Error("degradation not noted in Stats")
			}

			// Degraded machine still serves teams (inline) and rounds.
			ran := false
			m.RunTeam(func(ctx *TeamCtx) { ran = true; ctx.Barrier() })
			if !ran {
				t.Error("degraded machine did not run the team inline")
			}
			sum := 0
			m.ParFor(100, func(i int) { sum += i })
			if sum != 4950 {
				t.Errorf("degraded ParFor sum = %d, want 4950", sum)
			}

			m.Close()
			waitGoroutines(t, before)
		})
	}
}

// TestRunTeamInsideBatchPanics: fused batches hold the pool's barrier
// generation mid-sequence, so dispatching a team there would deadlock;
// the API refuses loudly instead.
func TestRunTeamInsideBatchPanics(t *testing.T) {
	m := New(16, WithExec(Native), WithWorkers(2))
	defer m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("RunTeam inside Batch did not panic")
		}
	}()
	m.Batch(func() {
		m.RunTeam(func(ctx *TeamCtx) {})
	})
}

// TestRunTeamRepeatedDispatch reuses one pool for many teams back to
// back — the steady-state serving pattern — checking the wake/pending
// protocol resets cleanly between dispatches.
func TestRunTeamRepeatedDispatch(t *testing.T) {
	m := New(64, WithExec(Native), WithWorkers(4))
	defer m.Close()
	const n = 256
	a := make([]int, n)
	for round := 0; round < 50; round++ {
		m.RunTeam(func(ctx *TeamCtx) {
			lo, hi := ctx.Chunk(n)
			for v := lo; v < hi; v++ {
				a[v]++
			}
			ctx.Barrier()
		})
	}
	for i, v := range a {
		if v != 50 {
			t.Fatalf("a[%d] = %d after 50 teams, want 50", i, v)
		}
	}
}
