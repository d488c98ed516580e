package pram

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadP(t *testing.T) {
	for _, p := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", p)
				}
			}()
			New(p)
		}()
	}
}

func TestParForAccounting(t *testing.T) {
	cases := []struct {
		p, n     int
		wantTime int64
	}{
		{1, 100, 100},
		{10, 100, 10},
		{10, 101, 11},
		{10, 99, 10},
		{100, 7, 1},
		{7, 7, 1},
	}
	for _, c := range cases {
		m := New(c.p)
		m.ParFor(c.n, func(i int) {})
		if m.Time() != c.wantTime {
			t.Errorf("p=%d n=%d: time = %d, want %d", c.p, c.n, m.Time(), c.wantTime)
		}
		if m.Work() != int64(c.n) {
			t.Errorf("p=%d n=%d: work = %d, want %d", c.p, c.n, m.Work(), c.n)
		}
	}
}

func TestParForBrentLaw(t *testing.T) {
	// ⌈n/p⌉ time for all (n, p): the quick-checked Brent bound.
	check := func(pn, nn uint16) bool {
		p := int(pn)%64 + 1
		n := int(nn) % 5000
		m := New(p)
		m.ParFor(n, func(i int) {})
		if n == 0 {
			return m.Time() == 0
		}
		want := int64((n + p - 1) / p)
		return m.Time() == want && m.Work() == int64(n)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestParForVisitsEachIndexOnce(t *testing.T) {
	for _, exec := range []Exec{Sequential, Pooled} {
		m := New(8, WithExec(exec), WithWorkers(4))
		n := 1000
		var counts [1000]int32
		m.ParFor(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		m.Close()
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("%v: index %d visited %d times", exec, i, c)
			}
		}
	}
}

func TestParForCostAccounting(t *testing.T) {
	m := New(10)
	m.ParForCost(100, 7, func(i int) {})
	if m.Time() != 70 {
		t.Errorf("time = %d, want 70", m.Time())
	}
	if m.Work() != 700 {
		t.Errorf("work = %d, want 700", m.Work())
	}
}

func TestParForCostPanicsOnBadCost(t *testing.T) {
	m := New(2)
	defer func() {
		if recover() == nil {
			t.Error("ParForCost with cost 0 did not panic")
		}
	}()
	m.ParForCost(10, 0, func(i int) {})
}

func TestProcFor(t *testing.T) {
	m := New(13)
	seen := make([]bool, 13)
	m.ProcFor(func(q int) { seen[q] = true })
	for q, s := range seen {
		if !s {
			t.Fatalf("processor %d not run", q)
		}
	}
	if m.Time() != 1 || m.Work() != 13 {
		t.Errorf("time=%d work=%d, want 1/13", m.Time(), m.Work())
	}
}

func TestProcRun(t *testing.T) {
	m := New(4)
	m.ProcRun(25, func(q int) {})
	if m.Time() != 25 || m.Work() != 100 {
		t.Errorf("time=%d work=%d, want 25/100", m.Time(), m.Work())
	}
}

func TestCharge(t *testing.T) {
	m := New(3)
	m.Charge(5, 11)
	m.Charge(0, 0)
	if m.Time() != 5 || m.Work() != 11 {
		t.Errorf("time=%d work=%d, want 5/11", m.Time(), m.Work())
	}
	defer func() {
		if recover() == nil {
			t.Error("negative charge did not panic")
		}
	}()
	m.Charge(-1, 0)
}

func TestReset(t *testing.T) {
	m := New(2)
	m.Phase("work")
	m.ParFor(10, func(i int) {})
	m.Reset()
	if m.Time() != 0 || m.Work() != 0 {
		t.Errorf("after Reset: time=%d work=%d", m.Time(), m.Work())
	}
	if len(m.Snapshot().Phases) != 0 {
		t.Errorf("after Reset: phases = %v", m.Snapshot().Phases)
	}
}

func TestPhases(t *testing.T) {
	m := New(2)
	m.Phase("a")
	m.ParFor(10, func(i int) {}) // 5 time, 10 work
	m.Phase("b")
	m.ParFor(4, func(i int) {}) // 2 time, 4 work
	s := m.Snapshot()
	if len(s.Phases) != 2 {
		t.Fatalf("phases = %+v", s.Phases)
	}
	if s.Phases[0].Name != "a" || s.Phases[0].Time != 5 || s.Phases[0].Work != 10 {
		t.Errorf("phase a = %+v", s.Phases[0])
	}
	if s.Phases[1].Name != "b" || s.Phases[1].Time != 2 || s.Phases[1].Work != 4 {
		t.Errorf("phase b = %+v", s.Phases[1])
	}
	if s.Time != 7 || s.Work != 14 {
		t.Errorf("totals: %+v", s)
	}
}

func TestEfficiency(t *testing.T) {
	s := Stats{Processors: 10, Time: 100}
	if got := s.Efficiency(1000); got != 1.0 {
		t.Errorf("Efficiency = %v, want 1.0", got)
	}
	if got := s.Efficiency(500); got != 0.5 {
		t.Errorf("Efficiency = %v, want 0.5", got)
	}
	var zero Stats
	if got := zero.Efficiency(100); got != 0 {
		t.Errorf("zero stats Efficiency = %v", got)
	}
}

func TestExecutorsAgreeOnStepCounts(t *testing.T) {
	run := func(exec Exec) (int64, int64, []int64) {
		m := New(7, WithExec(exec), WithWorkers(3))
		defer m.Close()
		n := 500
		a := make([]int64, n)
		m.ParFor(n, func(i int) { a[i] = int64(i) * 3 })
		m.ProcFor(func(q int) {})
		m.ProcRun(9, func(q int) {})
		m.ParForCost(33, 4, func(i int) { a[i]++ })
		return m.Time(), m.Work(), a[:40]
	}
	t1, w1, a1 := run(Sequential)
	t2, w2, a2 := run(Pooled)
	if t1 != t2 || w1 != w2 {
		t.Errorf("executors disagree: time %d vs %d, work %d vs %d", t1, t2, w1, w2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("different data at %d: %d vs %d", i, a1[i], a2[i])
		}
	}
}

func TestModelString(t *testing.T) {
	if EREW.String() != "EREW" || CREW.String() != "CREW" || CRCW.String() != "CRCW" {
		t.Error("model names wrong")
	}
	if Model(42).String() == "" {
		t.Error("unknown model should still format")
	}
	if Sequential.String() != "sequential" || Pooled.String() != "pooled" {
		t.Error("executor names wrong")
	}
}

// TestParseExec: every executor parses back from its String, and names
// outside the set are refused.
func TestParseExec(t *testing.T) {
	for _, e := range []Exec{Sequential, Pooled, Native} {
		got, err := ParseExec(e.String())
		if err != nil || got != e {
			t.Errorf("ParseExec(%q) = %v, %v; want %v", e.String(), got, err, e)
		}
	}
	for _, name := range []string{"goroutines", "", "Pooled", "exec(1)"} {
		if _, err := ParseExec(name); err == nil {
			t.Errorf("ParseExec(%q) accepted", name)
		}
	}
}

func TestWithWorkersClamps(t *testing.T) {
	m := New(4, WithExec(Pooled), WithWorkers(-5))
	defer m.Close()
	if m.workers < 1 {
		t.Errorf("workers = %d", m.workers)
	}
	// Still runs correctly.
	total := int32(0)
	m.ParFor(10, func(i int) { atomic.AddInt32(&total, 1) })
	if total != 10 {
		t.Errorf("visited %d of 10", total)
	}
}
