package matching

import (
	"testing"

	"parlist/internal/bits"
	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
)

// TestAllAlgorithmsProduceMaximalMatchings is the cross-product
// correctness sweep: every algorithm × generator × size × processor
// count must verify.
func TestAllAlgorithmsProduceMaximalMatchings(t *testing.T) {
	sizes := []int{2, 3, 4, 5, 7, 16, 63, 256, 1000, 4096}
	for _, n := range sizes {
		for _, g := range list.Generators() {
			l := g.Make(n, 42)
			if err := l.Validate(); err != nil {
				t.Fatalf("n=%d %s: bad list: %v", n, g.Name, err)
			}
			for _, p := range []int{1, 4, 100} {
				m := pram.New(p)
				if err := Verify(l, Match1(m, l, nil).In); err != nil {
					t.Errorf("match1 n=%d %s p=%d: %v", n, g.Name, p, err)
				}
				m = pram.New(p)
				if err := Verify(l, Match2(m, l, nil).In); err != nil {
					t.Errorf("match2 n=%d %s p=%d: %v", n, g.Name, p, err)
				}
				m = pram.New(p)
				r3, err := Match3(m, l, nil, Match3Config{})
				if err != nil {
					t.Fatalf("match3 n=%d %s p=%d: %v", n, g.Name, p, err)
				}
				if err := Verify(l, r3.In); err != nil {
					t.Errorf("match3 n=%d %s p=%d: %v", n, g.Name, p, err)
				}
				for _, i := range []int{1, 2, 3} {
					m = pram.New(p)
					r4, err := Match4(m, l, nil, Match4Config{I: i})
					if err != nil {
						t.Fatalf("match4 n=%d %s p=%d i=%d: %v", n, g.Name, p, i, err)
					}
					if err := Verify(l, r4.In); err != nil {
						t.Errorf("match4 n=%d %s p=%d i=%d: %v", n, g.Name, p, i, err)
					}
				}
			}
		}
	}
}

func TestMatch4TableRoute(t *testing.T) {
	for _, n := range []int{16, 255, 4096, 100000} {
		l := list.RandomList(n, 5)
		for _, i := range []int{2, 3, 5, 8} {
			m := pram.New(64)
			r, err := Match4(m, l, nil, Match4Config{I: i, UseTable: true})
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if err := Verify(l, r.In); err != nil {
				t.Errorf("n=%d i=%d: %v (sets=%d table=%d)", n, i, err, r.Sets, r.TableSize)
			}
			if r.TableSize == 0 {
				t.Errorf("n=%d i=%d: table route reported no table", n, i)
			}
		}
	}
}

func TestMatch4ViaColoringMatchesDefaultValidity(t *testing.T) {
	for _, n := range []int{2, 5, 100, 5000} {
		for _, g := range list.Generators() {
			l := g.Make(n, 13)
			m := pram.New(32)
			r, err := Match4(m, l, nil, Match4Config{I: 2, ViaColoring: true})
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, g.Name, err)
			}
			if err := Verify(l, r.In); err != nil {
				t.Errorf("via-coloring n=%d %s: %v", n, g.Name, err)
			}
		}
	}
}

func TestMatch4RejectsBadI(t *testing.T) {
	l := list.SequentialList(8)
	if _, err := Match4(pram.New(1), l, nil, Match4Config{I: 0}); err == nil {
		t.Error("I=0 accepted")
	}
}

func TestMatch1TimeBound(t *testing.T) {
	// T ≤ c·(n·G(n)/p + G(n)) with a modest constant.
	n := 1 << 14
	l := list.RandomList(n, 7)
	g := int64(bits.G(n))
	for _, p := range []int{1, 16, 1024, n} {
		m := pram.New(p)
		Match1(m, l, nil)
		bound := 20 * (int64(n)*g/int64(p) + g)
		if m.Time() > bound {
			t.Errorf("p=%d: time %d > %d", p, m.Time(), bound)
		}
	}
}

func TestMatch2TimeBound(t *testing.T) {
	n := 1 << 14
	l := list.RandomList(n, 7)
	logn := int64(bits.CeilLog2(n))
	for _, p := range []int{1, 16, 1024, n} {
		m := pram.New(p)
		Match2(m, l, nil)
		bound := 20 * (int64(n)/int64(p) + logn)
		if m.Time() > bound {
			t.Errorf("p=%d: time %d > %d", p, m.Time(), bound)
		}
	}
}

func TestMatch3TimeBound(t *testing.T) {
	n := 1 << 14
	l := list.RandomList(n, 7)
	for _, p := range []int{1, 16, 1024, n} {
		m := pram.New(p)
		if _, err := Match3(m, l, nil, Match3Config{CRCWBuild: true}); err != nil {
			t.Fatal(err)
		}
		bound := 20 * (Match3Predicted(n, p) + 10)
		if m.Time() > bound {
			t.Errorf("p=%d: time %d > %d", p, m.Time(), bound)
		}
	}
}

func TestMatch4TimeBound(t *testing.T) {
	// The Theorem 1 shape: T ≤ c·(i·n/p + log^(i) n) for the iterated
	// route (c covers all constant factors).
	n := 1 << 14
	l := list.RandomList(n, 7)
	for _, i := range []int{1, 2, 3} {
		li := int64(partition.RangeAfter(n, i))
		for _, p := range []int{1, 16, 1024, n} {
			m := pram.New(p)
			if _, err := Match4(m, l, nil, Match4Config{I: i}); err != nil {
				t.Fatal(err)
			}
			bound := 30 * (int64(i)*int64(n)/int64(p) + li)
			if m.Time() > bound {
				t.Errorf("i=%d p=%d: time %d > %d", i, p, m.Time(), bound)
			}
		}
	}
}

func TestMatch4OptimalAtThreshold(t *testing.T) {
	// Theorem 1: with p = n/log^(i) n processors, p·T = O(n), i.e.
	// efficiency bounded below by a constant.
	n := 1 << 16
	l := list.RandomList(n, 7)
	for _, i := range []int{2, 3} {
		x := partition.RangeAfter(n, i)
		p := n / x
		m := pram.New(p)
		r, err := Match4(m, l, nil, Match4Config{I: i})
		if err != nil {
			t.Fatal(err)
		}
		eff := r.Stats.Efficiency(int64(n))
		if eff < 0.02 {
			t.Errorf("i=%d p=%d: efficiency %.4f below constant floor", i, p, eff)
		}
	}
}

func TestMatch2SortDominates(t *testing.T) {
	// §3's motivating observation: the global sort is what limits
	// Match2's optimality — at p = n its additive terms dominate the
	// whole running time ("The time complexity of Step 2 in Match2
	// dominates the whole algorithm").
	n := 1 << 14
	l := list.RandomList(n, 7)
	m := pram.New(n)
	r := Match2(m, l, nil)
	var sortT, other int64
	for _, ph := range r.Stats.Phases {
		if ph.Name == "sort" {
			sortT = ph.Time
		} else {
			other += ph.Time
		}
	}
	if sortT == 0 {
		t.Fatal("no sort phase recorded")
	}
	if sortT <= other {
		t.Errorf("at p=n: sort time %d does not dominate the rest %d", sortT, other)
	}
}

func TestMatch4FloorBeatsMatch2FloorAtLargeN(t *testing.T) {
	// E8c's separation: at p = n the additive floors dominate; Match4's
	// is Θ(log^(i) n) while Match2's is Θ(log n).
	n := 1 << 16
	l := list.RandomList(n, 7)
	m2 := pram.New(n)
	r2 := Match2(m2, l, nil)
	m4 := pram.New(n)
	r4, err := Match4(m4, l, nil, Match4Config{I: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r4.Stats.Time >= r2.Stats.Time {
		t.Errorf("at p=n: match4 floor %d ≥ match2 floor %d", r4.Stats.Time, r2.Stats.Time)
	}
}

func TestExecutorsProduceSameMatching(t *testing.T) {
	n := 20000
	l := list.RandomList(n, 9)
	run := func(exec pram.Exec) (*Result, error) {
		m := pram.New(128, pram.WithExec(exec), pram.WithWorkers(4))
		return Match4(m, l, nil, Match4Config{I: 3})
	}
	rs, err := run(pram.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := run(pram.Pooled)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.Time != rp.Stats.Time || rs.Stats.Work != rp.Stats.Work {
		t.Errorf("step counts differ: %d/%d vs %d/%d", rs.Stats.Time, rs.Stats.Work, rp.Stats.Time, rp.Stats.Work)
	}
	if err := Verify(l, rp.In); err != nil {
		t.Errorf("pooled matching invalid: %v", err)
	}
	// The pooled executor may interleave greedy decisions differently
	// (the schedule guarantees both interleavings are safe), so only
	// validity — not equality — is required of the matching itself; the
	// deterministic phases must agree exactly.
	for v := range rs.In {
		if rs.In[v] != rp.In[v] {
			// Both valid is acceptable; stop at the first difference.
			return
		}
	}
}

func TestMatch4SetsMatchRangeBound(t *testing.T) {
	n := 1 << 12
	l := list.RandomList(n, 3)
	for i := 1; i <= 4; i++ {
		m := pram.New(16)
		r, err := Match4(m, l, nil, Match4Config{I: i})
		if err != nil {
			t.Fatal(err)
		}
		if r.Sets != partition.RangeAfter(n, i) {
			t.Errorf("i=%d: Sets = %d, want %d", i, r.Sets, partition.RangeAfter(n, i))
		}
	}
}

func TestMatch3TableSmallerThanN(t *testing.T) {
	// Lemma 5's side condition at practical sizes.
	for _, n := range []int{1 << 14, 1 << 16, 1 << 18} {
		l := list.RandomList(n, 3)
		m := pram.New(16)
		r, err := Match3(m, l, nil, Match3Config{})
		if err != nil {
			t.Fatal(err)
		}
		if r.TableSize >= n {
			t.Errorf("n=%d: table %d not smaller than n", n, r.TableSize)
		}
	}
}

func TestPartitionIteratedVerifies(t *testing.T) {
	n := 4096
	l := list.RandomList(n, 3)
	for i := 1; i <= 5; i++ {
		m := pram.New(8)
		lab, rng := PartitionIterated(m, l, nil, i)
		if err := partition.Verify(l, lab); err != nil {
			t.Fatalf("i=%d: %v", i, err)
		}
		if mx := partition.MaxLabel(l, lab); mx >= rng {
			t.Errorf("i=%d: max label %d ≥ range %d", i, mx, rng)
		}
	}
}

func TestPartitionTableVerifies(t *testing.T) {
	n := 4096
	l := list.RandomList(n, 3)
	for _, eff := range []int{2, 4, 6} {
		m := pram.New(8)
		lab, rng, tb, _, err := PartitionTable(m, l, nil, eff, Match3Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := partition.Verify(l, lab); err != nil {
			t.Fatalf("eff=%d: %v", eff, err)
		}
		if mx := partition.MaxLabel(l, lab); mx >= rng {
			t.Errorf("eff=%d: max label %d ≥ range %d", eff, mx, rng)
		}
		if tb == nil {
			t.Fatal("no table returned")
		}
	}
}

func TestResultFieldsPopulated(t *testing.T) {
	l := list.RandomList(256, 1)
	m := pram.New(4)
	r := Match1(m, l, nil)
	if r.Algorithm != "match1" || r.Size != Count(r.In) || r.Rounds == 0 {
		t.Errorf("result fields: %+v", r)
	}
	if r.Stats.Processors != 4 {
		t.Errorf("stats processors = %d", r.Stats.Processors)
	}
}

func TestSingleNodeLists(t *testing.T) {
	l := list.SequentialList(1)
	m := pram.New(4)
	if r := Match1(m, l, nil); r.Size != 0 || len(r.In) != 1 {
		t.Error("match1 n=1")
	}
	if r := Match2(pram.New(4), l, nil); r.Size != 0 || len(r.In) != 1 {
		t.Error("match2 n=1")
	}
	if _, err := Match3(pram.New(4), l, nil, Match3Config{}); err == nil {
		t.Log("match3 n=1 returned without error (acceptable)")
	}
	r4, err := Match4(pram.New(4), l, nil, Match4Config{I: 1})
	if err != nil || r4.Size != 0 {
		t.Errorf("match4 n=1: %v", err)
	}
	if err := Verify(l, []bool{false}); err != nil {
		t.Errorf("n=1 verify: %v", err)
	}
}
