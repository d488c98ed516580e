package pram

import (
	"strings"
	"testing"
)

func TestCheckedArrayDegradesUnderParallelExecutors(t *testing.T) {
	pm := New(4, WithExec(Pooled), WithWorkers(4))
	a := NewCheckedArray(pm, EREW, "a", 8)
	if a.Checked() {
		t.Error("pooled: discipline checking claims to be active")
	}
	notes := pm.Snapshot().Notes
	if len(notes) != 1 || !strings.Contains(notes[0], "disabled") {
		t.Errorf("pooled: degradation not noted in Stats: %v", notes)
	}
	// Storage still works (owner-writes access pattern), and no
	// violations are ever recorded in degraded mode.
	pm.ParFor(8, func(i int) { a.Write(i, i*i) })
	pm.ParFor(8, func(i int) {
		if a.Read(i) != i*i {
			t.Errorf("pooled: cell %d lost its value", i)
		}
	})
	if v := a.Violations(); len(v) != 0 {
		t.Errorf("pooled: degraded array recorded violations: %v", v)
	}
	pm.Close()

	// On the Sequential executor checking stays on.
	m := New(4)
	if a := NewCheckedArray(m, EREW, "a", 8); !a.Checked() {
		t.Error("sequential executor: checking not active")
	}
	if notes := m.Snapshot().Notes; len(notes) != 0 {
		t.Errorf("sequential executor: spurious notes %v", notes)
	}
}

func TestEREWDetectsConcurrentRead(t *testing.T) {
	m := New(4)
	a := NewCheckedArray(m, EREW, "a", 8)
	a.Set(0, 42)
	// Four processors read cell 0 in the same step.
	m.ProcFor(func(q int) { _ = a.Read(0) })
	v := a.Violations()
	if len(v) == 0 {
		t.Fatal("no violation for concurrent read on EREW")
	}
	if v[0].Kind != "concurrent-read" {
		t.Errorf("kind = %q", v[0].Kind)
	}
	if !strings.Contains(v[0].String(), "concurrent-read") {
		t.Errorf("String() = %q", v[0].String())
	}
}

func TestEREWAllowsDisjointAccess(t *testing.T) {
	m := New(4)
	a := NewCheckedArray(m, EREW, "a", 16)
	m.ParFor(16, func(i int) { a.Write(i, i) })
	m.ParFor(16, func(i int) { _ = a.Read(i) })
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("violations on disjoint access: %v", v)
	}
}

func TestEREWSequentializedAccessIsFine(t *testing.T) {
	// One processor touching the same cell many times is fine: Brent
	// scheduling puts its items at different virtual steps.
	m := New(1)
	a := NewCheckedArray(m, EREW, "a", 4)
	m.ParFor(100, func(i int) { a.Write(0, i) })
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("violations for single processor: %v", v)
	}
}

func TestEREWDetectsConcurrentWrite(t *testing.T) {
	m := New(8)
	a := NewCheckedArray(m, EREW, "a", 4)
	m.ProcFor(func(q int) { a.Write(1, q) })
	found := false
	for _, v := range a.Violations() {
		if v.Kind == "concurrent-write" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no concurrent-write violation: %v", a.Violations())
	}
}

func TestEREWDetectsReadWrite(t *testing.T) {
	m := New(2)
	a := NewCheckedArray(m, EREW, "a", 4)
	m.ProcFor(func(q int) {
		if q == 0 {
			_ = a.Read(2)
		} else {
			a.Write(2, 9)
		}
	})
	found := false
	for _, v := range a.Violations() {
		if v.Kind == "read-write" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no read-write violation: %v", a.Violations())
	}
}

func TestCREWAllowsConcurrentRead(t *testing.T) {
	m := New(8)
	a := NewCheckedArray(m, CREW, "a", 4)
	a.Set(0, 7)
	m.ProcFor(func(q int) { _ = a.Read(0) })
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("CREW flagged concurrent read: %v", v)
	}
}

func TestCREWDetectsConcurrentWrite(t *testing.T) {
	m := New(8)
	a := NewCheckedArray(m, CREW, "a", 4)
	m.ProcFor(func(q int) { a.Write(0, 1) })
	if len(a.Violations()) == 0 {
		t.Fatal("CREW did not flag concurrent write")
	}
}

func TestCRCWCommonWriteOK(t *testing.T) {
	m := New(8)
	a := NewCheckedArray(m, CRCW, "a", 4)
	m.ProcFor(func(q int) { a.Write(0, 5) })
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("CRCW flagged common write: %v", v)
	}
}

func TestCRCWDetectsNonCommonWrite(t *testing.T) {
	m := New(8)
	a := NewCheckedArray(m, CRCW, "a", 4)
	m.ProcFor(func(q int) { a.Write(0, q) })
	if len(a.Violations()) == 0 {
		t.Fatal("CRCW did not flag arbitrary write")
	}
}

func TestCRCWFlagsSameStepRAW(t *testing.T) {
	m := New(2)
	a := NewCheckedArray(m, CRCW, "a", 4)
	m.ProcFor(func(q int) {
		if q == 0 {
			a.Write(3, 1)
		} else {
			_ = a.Read(3)
		}
	})
	found := false
	for _, v := range a.Violations() {
		if v.Kind == "same-step-raw" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no same-step-raw flag: %v", a.Violations())
	}
}

func TestViolationsResetAcrossRounds(t *testing.T) {
	// Accesses in different rounds never conflict.
	m := New(4)
	a := NewCheckedArray(m, EREW, "a", 4)
	a.Set(0, 1)
	m.ProcFor(func(q int) {
		if q == 0 {
			_ = a.Read(0)
		}
	})
	m.ProcFor(func(q int) {
		if q == 1 {
			_ = a.Read(0)
		}
	})
	if v := a.Violations(); len(v) != 0 {
		t.Fatalf("cross-round accesses flagged: %v", v)
	}
}

func TestCheckedArrayDataAccessors(t *testing.T) {
	m := New(1)
	a := NewCheckedArray(m, EREW, "a", 3)
	a.Set(2, 9)
	if a.Get(2) != 9 || a.Len() != 3 || a.Data()[2] != 9 {
		t.Error("accessors broken")
	}
}

func TestBrentMappingConflictDetection(t *testing.T) {
	// With p=2 and n=4, Brent assigns items {0,1} to proc 0 and {2,3} to
	// proc 1; items 0 and 2 share virtual step 0. A read of the same
	// cell from items 0 and 2 must be flagged; from items 0 and 3 must
	// not (different steps).
	m := New(2)
	a := NewCheckedArray(m, EREW, "a", 4)
	m.ParFor(4, func(i int) {
		if i == 0 || i == 2 {
			_ = a.Read(0)
		}
	})
	if len(a.Violations()) == 0 {
		t.Fatal("same-step items not flagged")
	}

	m2 := New(2)
	b := NewCheckedArray(m2, EREW, "b", 4)
	m2.ParFor(4, func(i int) {
		if i == 0 || i == 3 {
			_ = b.Read(0)
		}
	})
	if v := b.Violations(); len(v) != 0 {
		t.Fatalf("different-step items flagged: %v", v)
	}
}
