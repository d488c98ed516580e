package pram

import (
	"strings"
	"testing"
)

func TestTracerRecordsRounds(t *testing.T) {
	tr := &Tracer{}
	m := New(4, WithObserver(tr))
	m.Phase("alpha")
	m.ParFor(10, func(i int) {})
	m.ParForCost(4, 3, func(i int) {})
	m.Phase("beta")
	m.ProcFor(func(q int) {})
	m.ProcRun(5, func(q int) {})
	m.Charge(7, 9)

	es := tr.Entries()
	if len(es) != 5 {
		t.Fatalf("entries = %d, want 5", len(es))
	}
	want := []struct {
		phase string
		kind  RoundKind
		time  int64
	}{
		{"alpha", KindParFor, 3},
		{"alpha", KindParFor, 3},
		{"beta", KindProc, 1},
		{"beta", KindProc, 5},
		{"beta", KindCharge, 7},
	}
	for i, w := range want {
		e := es[i]
		if e.Phase != w.phase || e.Kind != w.kind || e.Time != w.time {
			t.Errorf("entry %d = %+v, want %+v", i, e, w)
		}
	}
}

func TestTracerSummary(t *testing.T) {
	tr := &Tracer{}
	m := New(2, WithObserver(tr))
	m.Phase("work")
	m.ParFor(8, func(i int) {})
	s := tr.Summary()
	if !strings.Contains(s, "work") || !strings.Contains(s, "total") {
		t.Errorf("summary:\n%s", s)
	}
	if !strings.Contains(s, "100.0%") {
		t.Errorf("single phase should own 100%%:\n%s", s)
	}
}

func TestTracerGantt(t *testing.T) {
	tr := &Tracer{}
	m := New(2, WithObserver(tr))
	m.Phase("a")
	m.ParFor(16, func(i int) {}) // 8 steps
	m.Phase("b")
	m.ParFor(16, func(i int) {}) // 8 steps
	g := tr.Gantt(40)
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt:\n%s", g)
	}
	// Equal phases get equal bars.
	c0 := strings.Count(lines[0], "#")
	c1 := strings.Count(lines[1], "#")
	if c0 != c1 {
		t.Errorf("unequal bars %d vs %d:\n%s", c0, c1, g)
	}
}

func TestTracerGanttEmpty(t *testing.T) {
	tr := &Tracer{}
	if !strings.Contains(tr.Gantt(20), "no time") {
		t.Error("empty gantt should say so")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	m := New(2) // no tracer attached
	m.ParFor(4, func(i int) {})
	m.Charge(1, 1)
	// Reaching here without panic is the assertion.
	if m.Time() != 3 {
		t.Errorf("time = %d", m.Time())
	}
}

func TestRoundKindString(t *testing.T) {
	if KindParFor.String() != "parfor" || KindProc.String() != "proc" || KindCharge.String() != "charge" {
		t.Error("kind names")
	}
	if RoundKind(9).String() == "" {
		t.Error("unknown kind should format")
	}
}
