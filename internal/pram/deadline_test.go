package pram

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// expectDeadlinePanic runs f and asserts it panics with a
// *DeadlineExceeded, returning the recovered value.
func expectDeadlinePanic(t *testing.T, f func()) *DeadlineExceeded {
	t.Helper()
	var got *DeadlineExceeded
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no panic; want *DeadlineExceeded")
			}
			de, ok := r.(*DeadlineExceeded)
			if !ok {
				t.Fatalf("panicked with %T (%v); want *DeadlineExceeded", r, r)
			}
			got = de
		}()
		f()
	}()
	return got
}

// TestDeadlineAbortsPrimitives proves every synchronous primitive
// honours an expired deadline on every executor, and that disarming
// restores normal execution with accounting untouched by the aborted
// attempts.
func TestDeadlineAbortsPrimitives(t *testing.T) {
	for _, exec := range []Exec{Sequential, Pooled, Native} {
		t.Run(exec.String(), func(t *testing.T) {
			m := New(4, WithExec(exec), WithWorkers(4))
			defer m.Close()
			m.SetDeadline(time.Now().Add(-time.Millisecond))
			expectDeadlinePanic(t, func() { m.ParFor(64, func(int) {}) })
			expectDeadlinePanic(t, func() { m.ParForCost(64, 2, func(int) {}) })
			expectDeadlinePanic(t, func() { m.ProcFor(func(int) {}) })
			expectDeadlinePanic(t, func() { m.ProcRun(3, func(int) {}) })
			if m.Time() != 0 || m.Work() != 0 {
				t.Errorf("aborted primitives charged time=%d work=%d; want 0/0", m.Time(), m.Work())
			}
			m.SetDeadline(time.Time{})
			m.ParFor(64, func(int) {})
			if m.Time() != 16 || m.Work() != 64 {
				t.Errorf("after disarm: time=%d work=%d, want 16/64", m.Time(), m.Work())
			}
		})
	}
}

// TestDeadlineAbortInsideBatchKeepsPoolHealthy is the seam's central
// contract: a deadline abort inside an open fused batch unwinds through
// the batch's normal release path, the workers re-park, the machine
// does NOT degrade, and the very next run (after Reset) executes in
// parallel with clean accounting. Contrast failure_test.go, where a
// recovered WorkerPanic tears the pool down.
func TestDeadlineAbortInsideBatchKeepsPoolHealthy(t *testing.T) {
	before := runtime.NumGoroutine()
	m := New(8, WithExec(Pooled), WithWorkers(4))
	de := expectDeadlinePanic(t, func() {
		m.Batch(func() {
			m.ParFor(256, func(int) {})
			m.ParFor(256, func(int) {})
			m.SetDeadline(time.Now().Add(-time.Microsecond))
			m.ParFor(256, func(int) {}) // aborts here, between fused rounds
		})
	})
	if de.Round == 0 {
		t.Errorf("abort round = 0; want the batch's later rounds")
	}
	if m.Degraded() {
		t.Fatalf("machine degraded after deadline abort; deadline must not cost the pool")
	}
	if notes := m.Notes(); len(notes) != 0 {
		t.Errorf("deadline abort recorded notes %q; want none", notes)
	}

	m.SetDeadline(time.Time{})
	m.Reset()
	sum := make([]int64, 256)
	m.Batch(func() {
		m.ParFor(256, func(i int) { sum[i]++ })
	})
	for i, v := range sum {
		if v != 1 {
			t.Fatalf("post-abort batch: sum[%d] = %d, want 1", i, v)
		}
	}
	if m.Time() != 32 {
		t.Errorf("post-abort accounting: time = %d, want 32", m.Time())
	}
	m.Close()
	waitGoroutines(t, before)
}

// TestDeadlineFutureIsFree proves an armed-but-unexpired deadline does
// not perturb results or accounting.
func TestDeadlineFutureIsFree(t *testing.T) {
	m := New(4, WithExec(Pooled), WithWorkers(4))
	defer m.Close()
	m.SetDeadline(time.Now().Add(time.Hour))
	out := make([]int64, 128)
	m.ParFor(128, func(i int) { out[i] = int64(i) })
	if m.Time() != 32 || m.Work() != 128 {
		t.Errorf("armed deadline changed accounting: time=%d work=%d", m.Time(), m.Work())
	}
}

// TestTransientClassification pins the transient class of the taxonomy:
// fault-class executor failures are transient, caller-imposed aborts
// and admission errors are not, and wrapping is transparent.
func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"worker panic", &WorkerPanic{Value: "boom", Worker: 2, Round: 7}, true},
		{"wrapped worker panic", fmt.Errorf("engine: request failed: %w", &WorkerPanic{Value: "x"}), true},
		{"barrier stall", &BarrierStall{Round: 3, Missing: []int{1}}, true},
		{"wrapped barrier stall", fmt.Errorf("a: %w", fmt.Errorf("b: %w", &BarrierStall{})), true},
		{"deadline exceeded", &DeadlineExceeded{Round: 9, Over: time.Millisecond}, false},
		{"plain error", errors.New("validation"), false},
		{"nil", nil, false},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}
