package pram

import "fmt"

// Violation records an access-model violation detected by a CheckedArray.
type Violation struct {
	Array string
	Step  int64
	Cell  int
	Kind  string // "concurrent-read", "concurrent-write", "read-write", "same-step-raw"
}

// String formats the violation for test failure messages.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s at cell %d during step %d", v.Array, v.Kind, v.Cell, v.Step)
}

type cellState struct {
	firstReader  int
	multiReaders bool
	reads        int
	firstWriter  int
	multiWriters bool
	writeVal     int
	wrote        bool
}

// CheckedArray is a shared-memory array instrumented to verify the
// access discipline of a PRAM model. Every Read/Write is attributed to
// the machine's current virtual step and virtual processor; two
// accesses of one cell in the same step by *different* processors are
// "concurrent" in the simulated PRAM sense (a single processor may read
// and write its own cell within one instruction cycle).
//
// Detection rules (all per step, across distinct processors):
//   - EREW: >1 reader, >1 writer, or reader ≠ writer of a cell.
//   - CREW: >1 writer, or reader ≠ writer.
//   - CRCW (Common): writers must all store the same value; a read of a
//     cell another processor writes in the same step is flagged as
//     "same-step-raw" (a synchrony hazard: a true PRAM would return the
//     old value, the sequential simulator may return the new one).
//
// Checking requires the Sequential executor; under a parallel executor
// the array auto-degrades to plain storage (see NewCheckedArray).
type CheckedArray struct {
	m        *Machine
	model    Model
	name     string
	disabled bool
	data     []int
	cells    map[[2]int64]*cellState // key: {vtime, cell}
	viol     []Violation
}

// NewCheckedArray registers a checked array of length n on machine m.
//
// Access-discipline checking needs the Sequential executor: conflict
// attribution relies on the deterministic virtual-time interleaving the
// sequential simulator drives, and the bookkeeping map is not safe for
// concurrent bodies. Under a parallel executor (pram.Pooled or
// pram.Native — parlist re-exports them as ExecPooled/ExecNative) the
// array auto-degrades instead of panicking: it
// still stores and returns values (race-free under the same
// owner-writes contract as any plain array), but records no accesses
// and reports no violations, and the degradation is noted in the
// machine's Stats.Notes — so model checks compose with parallel runs,
// with the unverified discipline visibly marked rather than crashing.
// The Native executor's team kernels (native.go) never touch
// CheckedArrays at all: they run outside the simulated round structure
// entirely, so there is no per-step access discipline to check — their
// correctness is established by output equivalence against the
// Sequential executor, not by model checking.
func NewCheckedArray(m *Machine, model Model, name string, n int) *CheckedArray {
	a := &CheckedArray{
		m:     m,
		model: model,
		name:  name,
		data:  make([]int, n),
	}
	if m.exec != Sequential {
		a.disabled = true
		m.note("pram: CheckedArray %q: %s discipline checking disabled under the %s executor", name, model, m.exec)
		return a
	}
	a.cells = make(map[[2]int64]*cellState)
	m.checked = append(m.checked, a)
	return a
}

// Checked reports whether access-discipline checking is active (false
// when the array degraded under a non-Sequential executor).
func (a *CheckedArray) Checked() bool { return !a.disabled }

func (a *CheckedArray) beginRound(base int64) {
	// Virtual steps never repeat across primitives, so prior bookkeeping
	// can be dropped wholesale.
	clear(a.cells)
}

func (a *CheckedArray) cell(i int) *cellState {
	k := [2]int64{a.m.vtime, int64(i)}
	c := a.cells[k]
	if c == nil {
		c = &cellState{firstReader: -1, firstWriter: -1}
		a.cells[k] = c
	}
	return c
}

func (a *CheckedArray) flag(i int, kind string) {
	a.viol = append(a.viol, Violation{Array: a.name, Step: a.m.vtime, Cell: i, Kind: kind})
}

// Len returns the array length.
func (a *CheckedArray) Len() int { return len(a.data) }

// Read returns the value at cell i, recording the access.
func (a *CheckedArray) Read(i int) int {
	if a.disabled {
		return a.data[i]
	}
	c := a.cell(i)
	proc := a.m.vproc
	if c.firstReader < 0 {
		c.firstReader = proc
	} else if c.firstReader != proc {
		c.multiReaders = true
	}
	c.reads++
	crossWrite := c.wrote && (c.firstWriter != proc || c.multiWriters)
	switch a.model {
	case EREW:
		if c.multiReaders {
			a.flag(i, "concurrent-read")
		}
		if crossWrite {
			a.flag(i, "read-write")
		}
	case CREW:
		if crossWrite {
			a.flag(i, "read-write")
		}
	case CRCW:
		if crossWrite {
			a.flag(i, "same-step-raw")
		}
	}
	return a.data[i]
}

// Write stores v at cell i, recording the access.
func (a *CheckedArray) Write(i, v int) {
	if a.disabled {
		a.data[i] = v
		return
	}
	c := a.cell(i)
	proc := a.m.vproc
	crossRead := c.firstReader >= 0 && (c.firstReader != proc || c.multiReaders)
	crossWrite := c.wrote && (c.firstWriter != proc || c.multiWriters)
	switch a.model {
	case EREW:
		if crossWrite {
			a.flag(i, "concurrent-write")
		}
		if crossRead {
			a.flag(i, "read-write")
		}
	case CREW:
		if crossWrite {
			a.flag(i, "concurrent-write")
		}
		if crossRead {
			a.flag(i, "read-write")
		}
	case CRCW:
		if crossWrite && c.writeVal != v {
			a.flag(i, "concurrent-write") // non-Common concurrent write
		}
	}
	if c.firstWriter < 0 {
		c.firstWriter = proc
	} else if c.firstWriter != proc {
		c.multiWriters = true
	}
	c.wrote = true
	c.writeVal = v
	a.data[i] = v
}

// Set initializes cell i without access accounting (for test setup).
func (a *CheckedArray) Set(i, v int) { a.data[i] = v }

// Get reads cell i without access accounting (for test verification).
func (a *CheckedArray) Get(i int) int { return a.data[i] }

// Data exposes the backing slice (for bulk verification only).
func (a *CheckedArray) Data() []int { return a.data }

// Violations returns all violations recorded so far.
func (a *CheckedArray) Violations() []Violation { return a.viol }
