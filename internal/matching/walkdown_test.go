package matching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parlist/internal/sortint"
)

func sortedRandomColumn(x int, rng *rand.Rand) []int {
	a := make([]int, x)
	for i := range a {
		a[i] = rng.Intn(x)
	}
	sortint.SequentialByKeyInPlace(a, x)
	return a
}

// TestWalkDown2Lemma7 checks the characterization: row r is marked at
// step k iff A[r] = k - r.
func TestWalkDown2Lemma7(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, x := range []int{1, 2, 3, 8, 64, 500} {
		for trial := 0; trial < 25; trial++ {
			a := sortedRandomColumn(x, rng)
			marks := WalkDown2Trace(a)
			for r, k := range marks {
				if k < 0 {
					t.Fatalf("x=%d: row %d never marked (Corollary 1 violated)", x, r)
				}
				if a[r] != k-r {
					t.Fatalf("x=%d: row %d marked at %d but A[r]=%d ≠ k-r=%d", x, r, k, a[r], k-r)
				}
			}
		}
	}
}

// TestWalkDown2Corollary1 checks that every element is marked within
// 2x-1 steps.
func TestWalkDown2Corollary1(t *testing.T) {
	check := func(seed int64, xx uint8) bool {
		x := int(xx)%100 + 1
		rng := rand.New(rand.NewSource(seed))
		a := sortedRandomColumn(x, rng)
		marks := WalkDown2Trace(a)
		for _, k := range marks {
			if k < 0 || k > 2*x-2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestWalkDown2Corollary2 checks that across many columns, all
// processors in the same row at the same step read the same value.
func TestWalkDown2Corollary2(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x, y := 32, 128
	type key struct{ step, row int }
	vals := map[key]int{}
	for c := 0; c < y; c++ {
		a := sortedRandomColumn(x, rng)
		marks := WalkDown2Trace(a)
		for r, k := range marks {
			kk := key{step: k, row: r}
			if prev, ok := vals[kk]; ok && prev != a[r] {
				t.Fatalf("step %d row %d saw values %d and %d", k, r, prev, a[r])
			}
			vals[kk] = a[r]
		}
	}
}

// TestWalkDown2ExtremeColumns covers all-equal and strictly increasing
// label columns.
func TestWalkDown2ExtremeColumns(t *testing.T) {
	// All zeros: marked consecutively at steps r (count never moves).
	x := 10
	a := make([]int, x)
	marks := WalkDown2Trace(a)
	for r, k := range marks {
		if k != r {
			t.Errorf("zeros: row %d marked at %d, want %d", r, k, r)
		}
	}
	// A[r] = r: each mark at step 2r.
	for i := range a {
		a[i] = i
	}
	marks = WalkDown2Trace(a)
	for r, k := range marks {
		if k != 2*r {
			t.Errorf("identity: row %d marked at %d, want %d", r, k, 2*r)
		}
	}
	// Maximum labels: A[r] = x-1 for all r.
	for i := range a {
		a[i] = x - 1
	}
	marks = WalkDown2Trace(a)
	for r, k := range marks {
		if k != x-1+r {
			t.Errorf("max: row %d marked at %d, want %d", r, k, x-1+r)
		}
	}
}

// TestWalkDown2ClosedForm checks Lemma 7 in the closed form the native
// Match4 kernel schedules by: WalkDown2Trace(a)[r] == a[r] + r, for
// random sorted columns, all-equal columns, strictly increasing columns
// and short last columns. Inside Match4 a short column of ln < x rows,
// labels in [0, x), runs the full 2x-1 steps; that is the trace of the
// column padded to x rows with label x-1, whose first ln marks are the
// short column's, so it is checked padded.
func TestWalkDown2ClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	check := func(kind string, a []int, rows int) {
		t.Helper()
		marks := WalkDown2Trace(a)
		for r := 0; r < rows; r++ {
			if marks[r] != a[r]+r {
				t.Fatalf("%s column %v: row %d marked at step %d, want A[r]+r = %d", kind, a, r, marks[r], a[r]+r)
			}
		}
	}
	for _, x := range []int{1, 2, 3, 6, 8, 64, 500} {
		for trial := 0; trial < 20; trial++ {
			check("random", sortedRandomColumn(x, rng), x)
		}
		for _, v := range []int{0, x / 2, x - 1} {
			a := make([]int, x)
			for r := range a {
				a[r] = v
			}
			check("all-equal", a, x)
		}
		a := make([]int, x)
		for r := range a {
			a[r] = r
		}
		check("strictly increasing", a, x)
		for ln := 1; ln < x; ln = 2*ln + 1 {
			for trial := 0; trial < 5; trial++ {
				// A short column: ln sorted labels from [0, x), strictly
				// increasing on every other trial, then the padding.
				a := make([]int, x)
				if trial%2 == 0 {
					copy(a, rng.Perm(x)[:ln])
				} else {
					for r := range ln {
						a[r] = rng.Intn(x)
					}
				}
				sortint.SequentialByKeyInPlace(a[:ln], x)
				for r := ln; r < x; r++ {
					a[r] = x - 1
				}
				check("short", a, ln)
			}
		}
	}
}

func TestWalkStateAdvanceAgreesWithTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		x := rng.Intn(40) + 1
		a := sortedRandomColumn(x, rng)
		want := WalkDown2Trace(a)
		var st walkState
		got := make([]int, x)
		for i := range got {
			got[i] = -1
		}
		for step := 0; step <= 2*x-2; step++ {
			if r := st.advance(a, x); r >= 0 {
				got[r] = step
			}
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("trial %d: row %d marked at %d vs trace %d", trial, r, got[r], want[r])
			}
		}
	}
}

func TestWalkStateShortColumn(t *testing.T) {
	// colLen < len(a) must stop the automaton at colLen.
	a := []int{0, 1, 2, 3}
	var st walkState
	processed := 0
	for step := 0; step < 10; step++ {
		if r := st.advance(a, 2); r >= 0 {
			processed++
			if r >= 2 {
				t.Fatalf("processed row %d beyond colLen", r)
			}
		}
	}
	if processed != 2 {
		t.Fatalf("processed %d rows, want 2", processed)
	}
}

func TestWalkDown2TraceEmpty(t *testing.T) {
	if got := WalkDown2Trace(nil); len(got) != 0 {
		t.Error("empty trace should be empty")
	}
}
