package matching

import (
	"errors"
	"testing"

	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
)

func TestMatch3EREWCopiesCharged(t *testing.T) {
	n := 1 << 12
	l := list.RandomList(n, 3)
	run := func(cfg Match3Config) (*Result, []pram.PhaseStat) {
		m := pram.New(64)
		r, err := Match3(m, l, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, r.Stats.Phases
	}
	rPlain, _ := run(Match3Config{})
	rCopies, phases := run(Match3Config{EREWCopies: true})
	if err := Verify(l, rCopies.In); err != nil {
		t.Fatal(err)
	}
	if rCopies.Stats.Time <= rPlain.Stats.Time {
		t.Errorf("EREW replication not charged: %d ≤ %d", rCopies.Stats.Time, rPlain.Stats.Time)
	}
	found := false
	for _, ph := range phases {
		if ph.Name == "table-replicate" && ph.Time > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no table-replicate phase recorded")
	}
}

func TestMatch4RowMajorLayout(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 1000, 4096, 100001} {
		for _, g := range list.Generators() {
			l := g.Make(n, 17)
			mc := pram.New(32)
			rc, err := Match4(mc, l, nil, Match4Config{I: 2})
			if err != nil {
				t.Fatal(err)
			}
			mr := pram.New(32)
			rr, err := Match4(mr, l, nil, Match4Config{I: 2, RowMajor: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(l, rr.In); err != nil {
				t.Errorf("row-major n=%d %s: %v", n, g.Name, err)
			}
			// The PRAM cost model is layout-uniform: identical step counts.
			if rc.Stats.Time != rr.Stats.Time {
				t.Errorf("n=%d %s: layouts disagree on steps: %d vs %d",
					n, g.Name, rc.Stats.Time, rr.Stats.Time)
			}
		}
	}
}

func TestMatch4RowMajorViaColoring(t *testing.T) {
	l := list.RandomList(5000, 23)
	m := pram.New(64)
	r, err := Match4(m, l, nil, Match4Config{I: 3, RowMajor: true, ViaColoring: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(l, r.In); err != nil {
		t.Error(err)
	}
}

func TestMatchAlgorithmsWithLSBVariant(t *testing.T) {
	// The paper's computation-friendly variant must work throughout.
	n := 2048
	l := list.RandomList(n, 29)
	e := partition.NewEvaluator(partition.LSB, 12)
	m := pram.New(16)
	if err := Verify(l, Match1(m, l, e).In); err != nil {
		t.Errorf("match1 lsb: %v", err)
	}
	m = pram.New(16)
	if err := Verify(l, Match2(m, l, e).In); err != nil {
		t.Errorf("match2 lsb: %v", err)
	}
	m = pram.New(16)
	r3, err := Match3(m, l, e, Match3Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(l, r3.In); err != nil {
		t.Errorf("match3 lsb: %v", err)
	}
	m = pram.New(16)
	r4, err := Match4(m, l, e, Match4Config{I: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(l, r4.In); err != nil {
		t.Errorf("match4 lsb: %v", err)
	}
}

func TestMatchAlgorithmsWithTableEvaluator(t *testing.T) {
	// The appendix's lookup-table computation of f, end to end.
	n := 1024
	l := list.RandomList(n, 31)
	for _, v := range []partition.Variant{partition.MSB, partition.LSB} {
		e := partition.NewTableEvaluator(v, 11)
		m := pram.New(8)
		if err := Verify(l, Match1(m, l, e).In); err != nil {
			t.Errorf("match1 table-%v: %v", v, err)
		}
		m = pram.New(8)
		r, err := Match4(m, l, e, Match4Config{I: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(l, r.In); err != nil {
			t.Errorf("match4 table-%v: %v", v, err)
		}
	}
}

func TestScheduleMatchingWithExternalPartitions(t *testing.T) {
	// §4's generic claim: any matching partition feeds the schedule.
	for _, n := range []int{2, 10, 1000, 4096} {
		l := list.RandomList(n, 43)
		// Source 1: the Fig.-2 bisection sets (one f application).
		sets, _ := partition.Bisection(l)
		K := 2 * width(n)
		for v := range sets {
			if sets[v] < 0 {
				sets[v] = 0 // tail placeholder
			}
		}
		m := pram.New(16)
		r, err := ScheduleMatching(m, l, sets, K)
		if err != nil {
			t.Fatalf("n=%d bisection: %v", n, err)
		}
		if err := Verify(l, r.In); err != nil {
			t.Errorf("n=%d bisection: %v", n, err)
		}
		// Source 2: an LSB-variant iterated partition, produced outside
		// the Match4 pipeline.
		e := partition.NewEvaluator(partition.LSB, 12)
		lab2 := partition.Iterate(pram.New(8), l, e, 2)
		m2 := pram.New(16)
		r2, err := ScheduleMatching(m2, l, lab2, partition.RangeAfter(n, 2))
		if err != nil {
			t.Fatalf("n=%d iterated: %v", n, err)
		}
		if err := Verify(l, r2.In); err != nil {
			t.Errorf("n=%d iterated: %v", n, err)
		}
	}
}

func TestScheduleMatchingRejectsBadInput(t *testing.T) {
	l := list.SequentialList(8)
	m := pram.New(2)
	if _, err := ScheduleMatching(m, l, []int{0, 1}, 2); err == nil {
		t.Error("short labels accepted")
	}
	if _, err := ScheduleMatching(m, l, make([]int, 8), 0); err == nil {
		t.Error("zero range accepted")
	}
	bad := []int{0, 1, 0, 1, 0, 1, 9, 0} // out-of-range pointer label
	if _, err := ScheduleMatching(m, l, bad, 2); !errors.Is(err, ErrBadSchedule) {
		t.Errorf("out-of-range label: err = %v, want ErrBadSchedule", err)
	}
	// K beyond max(n, 6) would size the scratch by K alone.
	ok := []int{0, 1, 0, 1, 0, 1, 0, 0}
	if _, err := ScheduleMatching(m, l, ok, 1<<30); !errors.Is(err, ErrBadSchedule) {
		t.Errorf("K = 2^30: err = %v, want ErrBadSchedule", err)
	}
	if _, err := ScheduleMatching(m, l, ok, 9); !errors.Is(err, ErrBadSchedule) {
		t.Errorf("K = n+1: err = %v, want ErrBadSchedule", err)
	}
	if _, err := ScheduleMatching(m, l, ok, 8); err != nil {
		t.Errorf("K = n: %v", err)
	}
}

func TestScheduleMatchingRejectsImproperPartition(t *testing.T) {
	l := list.SequentialList(6)
	bad := []int{0, 0, 1, 0, 1, 0} // adjacent pointers 0 and 1 share label 0
	if _, err := ScheduleMatching(pram.New(2), l, bad, 2); err == nil {
		t.Error("improper partition accepted")
	}
}
