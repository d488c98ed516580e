package pram

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the process goroutine count drops back to
// at most want (pool workers exit asynchronously after close/abort).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), want, buf)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// checkUsableInline asserts a degraded machine still executes and
// charges rounds (inline), including through Batch.
func checkUsableInline(t *testing.T, m *Machine) {
	t.Helper()
	if m.pool != nil {
		t.Fatal("pool still attached after degradation")
	}
	t0, w0 := m.Time(), m.Work()
	var total int32
	m.ParFor(10, func(i int) { atomic.AddInt32(&total, 1) })
	m.Batch(func() {
		m.ParFor(10, func(i int) { atomic.AddInt32(&total, 1) })
	})
	if total != 20 {
		t.Fatalf("degraded machine visited %d of 20", total)
	}
	if m.Time() == t0 || m.Work() == w0 {
		t.Fatalf("degraded machine stopped charging: time %d→%d work %d→%d", t0, m.Time(), w0, m.Work())
	}
}

// TestFusedPanicRecovery is the acceptance test for panic-safe pooled
// dispatch: a panic inside a fused-batch round surfaces on the
// coordinator as a *WorkerPanic carrying the worker's stack, no
// goroutine leaks, and the machine remains usable (inline) afterwards.
func TestFusedPanicRecovery(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(64, WithExec(Pooled), WithWorkers(4))
	n := 8000 // chunks of 2000 over 4 participants; i=5000 → participant 2
	var ran int32
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		m.Batch(func() {
			m.ParFor(n, func(i int) {
				if i == 5000 {
					panic("boom")
				}
				atomic.AddInt32(&ran, 1)
			})
		})
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *WorkerPanic", recovered, recovered)
	}
	if wp.Value != "boom" {
		t.Errorf("Value = %v, want boom", wp.Value)
	}
	if wp.Worker != 2 {
		t.Errorf("Worker = %d, want 2 (chunk containing i=5000)", wp.Worker)
	}
	if len(wp.Stack) == 0 || !bytes.Contains(wp.Stack, []byte("runChunk")) {
		t.Errorf("worker stack not captured:\n%s", wp.Stack)
	}
	if !strings.Contains(wp.Error(), "boom") || !strings.Contains(wp.Error(), "worker 2") {
		t.Errorf("Error() = %q", wp.Error())
	}
	// The other chunks completed or were abandoned — but nothing hangs
	// and the machine degrades to inline with a note.
	checkUsableInline(t, m)
	if notes := m.Notes(); len(notes) == 0 || !strings.Contains(notes[0], "degraded to inline") {
		t.Errorf("no degradation note: %v", notes)
	}
	if s := m.Snapshot(); len(s.Notes) == 0 {
		t.Error("Snapshot does not carry the note")
	}
	m.Close()
	m.Close() // still idempotent after a failure teardown
	waitGoroutines(t, before)
}

// TestSingleRoundPanicRecovery covers the non-batch pooled dispatch
// path, with the panic in a background worker and in the coordinator's
// own chunk.
func TestSingleRoundPanicRecovery(t *testing.T) {
	for _, at := range []struct {
		name  string
		index int
		party int
	}{
		{"background-worker", 3500, 3},
		{"coordinator", 0, 0},
	} {
		before := runtime.NumGoroutine()
		m := New(64, WithExec(Pooled), WithWorkers(4))
		var recovered any
		func() {
			defer func() { recovered = recover() }()
			m.ParFor(4000, func(i int) {
				if i == at.index {
					panic(errors.New("single-mode boom"))
				}
			})
		}()
		wp, ok := recovered.(*WorkerPanic)
		if !ok {
			t.Fatalf("%s: recovered %T, want *WorkerPanic", at.name, recovered)
		}
		if wp.Worker != at.party {
			t.Errorf("%s: Worker = %d, want %d", at.name, wp.Worker, at.party)
		}
		if !errors.As(wp, new(*WorkerPanic)) || errors.Unwrap(wp) == nil {
			t.Errorf("%s: Unwrap lost the original error", at.name)
		}
		checkUsableInline(t, m)
		m.Close()
		waitGoroutines(t, before)
	}
}

// TestInjectedPanicAtCoordinates drives the FaultPlan panic injection:
// the failure surfaces with exactly the planned (round, worker)
// coordinates and the recovery path leaves the machine usable.
func TestInjectedPanicAtCoordinates(t *testing.T) {
	before := runtime.NumGoroutine()
	plan := &FaultPlan{
		Seed:       9,
		PanicAt:    []FaultPoint{{Round: 2, Worker: 1}},
		PanicValue: "planned fault",
	}
	m := New(64, WithExec(Pooled), WithWorkers(4), WithFaults(plan))
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		for r := 0; r < 5; r++ {
			m.ParFor(1000, func(i int) {})
		}
	}()
	wp, ok := recovered.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %T, want *WorkerPanic", recovered)
	}
	if wp.Round != 2 || wp.Worker != 1 || wp.Value != "planned fault" {
		t.Errorf("fault at round %d worker %d value %v, want 2/1/planned fault", wp.Round, wp.Worker, wp.Value)
	}
	checkUsableInline(t, m)
	m.Close()
	waitGoroutines(t, before)
}

// TestBarrierWatchdogReportsStalledWorker: a worker stalled past the
// watchdog deadline inside a fused round is reported as a BarrierStall
// naming it, the pool is abandoned, and — because the stall here is
// finite — every background goroutine exits instead of spinning.
func TestBarrierWatchdogReportsStalledWorker(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(4, WithExec(Pooled), WithWorkers(4), WithWatchdog(20*time.Millisecond))
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		m.Batch(func() {
			m.ParFor(4, func(i int) {
				if i == 1 { // chunk 1 → background worker 1
					time.Sleep(400 * time.Millisecond)
				}
			})
		})
	}()
	st, ok := recovered.(*BarrierStall)
	if !ok {
		t.Fatalf("recovered %T (%v), want *BarrierStall", recovered, recovered)
	}
	if len(st.Missing) != 1 || st.Missing[0] != 1 {
		t.Errorf("Missing = %v, want [1]", st.Missing)
	}
	if st.Waited < 20*time.Millisecond {
		t.Errorf("Waited = %v, below the deadline", st.Waited)
	}
	if !strings.Contains(st.Error(), "not arrived") {
		t.Errorf("Error() = %q", st.Error())
	}
	checkUsableInline(t, m)
	if notes := m.Notes(); len(notes) == 0 || !strings.Contains(notes[0], "watchdog") {
		t.Errorf("no watchdog note: %v", notes)
	}
	m.Close()
	// The stalled worker wakes after its finite sleep; all workers then
	// observe the abort and exit.
	waitGoroutines(t, before)
}

// TestWatchdogToleratesSlowHostCode: background workers wait at the
// release barrier while host code runs between fused rounds — those
// waits must never trip the watchdog (only the coordinator's waits are
// monitored).
func TestWatchdogToleratesSlowHostCode(t *testing.T) {
	m := New(16, WithExec(Pooled), WithWorkers(4), WithWatchdog(15*time.Millisecond))
	defer m.Close()
	var total int32
	m.Batch(func() {
		for r := 0; r < 3; r++ {
			m.ParFor(400, func(i int) { atomic.AddInt32(&total, 1) })
			time.Sleep(60 * time.Millisecond) // host section ≫ watchdog
		}
	})
	if total != 1200 {
		t.Fatalf("visited %d of 1200", total)
	}
}

// TestResetInsideBatchPanics pins the lifecycle contract: Reset during
// an open fused batch would split the batch's accounting, so it must
// refuse loudly.
func TestResetInsideBatchPanics(t *testing.T) {
	m := New(8, WithExec(Pooled), WithWorkers(4))
	defer m.Close()
	var recovered any
	m.Batch(func() {
		m.ParFor(100, func(i int) {})
		func() {
			defer func() { recovered = recover() }()
			m.Reset()
		}()
	})
	msg, ok := recovered.(string)
	if !ok || !strings.Contains(msg, "Reset inside an open Batch") {
		t.Fatalf("recovered %v, want Reset-inside-Batch panic", recovered)
	}
	// Outside the batch Reset works as before.
	m.Reset()
	if m.Time() != 0 {
		t.Error("Reset did not clear accounting")
	}
}

// TestLifecycleEdges covers the remaining Machine lifecycle corners:
// double Close, dispatch after Close, and a second panic recovery on an
// already-degraded machine.
func TestLifecycleEdges(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(8, WithExec(Pooled), WithWorkers(4))
	m.Close()
	m.Close()
	var total int32
	m.ParFor(50, func(i int) { atomic.AddInt32(&total, 1) })
	if total != 50 {
		t.Fatalf("ParFor after Close visited %d of 50", total)
	}
	// A body panic on the degraded (inline) machine propagates as the
	// raw value — there is no worker boundary to cross anymore.
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		m.ParFor(10, func(i int) { panic("inline boom") })
	}()
	if recovered != "inline boom" {
		t.Fatalf("inline panic surfaced as %v", recovered)
	}
	waitGoroutines(t, before)
}
