package list

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeneratorsProduceValidLists(t *testing.T) {
	for _, g := range Generators() {
		for _, n := range []int{1, 2, 3, 5, 8, 100, 1023, 4096} {
			l := g.Make(n, 7)
			if l.Len() != n {
				t.Fatalf("%s n=%d: Len = %d", g.Name, n, l.Len())
			}
			if err := l.Validate(); err != nil {
				t.Fatalf("%s n=%d: %v", g.Name, n, err)
			}
		}
	}
}

func TestSequentialList(t *testing.T) {
	l := SequentialList(5)
	if l.Head != 0 {
		t.Fatalf("head = %d", l.Head)
	}
	want := []int{1, 2, 3, 4, Nil}
	for i, w := range want {
		if l.Next[i] != w {
			t.Errorf("Next[%d] = %d, want %d", i, l.Next[i], w)
		}
	}
	for a := 0; a < 4; a++ {
		if !l.IsForward(a) {
			t.Errorf("pointer out of %d should be forward", a)
		}
	}
}

func TestReversedList(t *testing.T) {
	l := ReversedList(5)
	if l.Head != 4 {
		t.Fatalf("head = %d", l.Head)
	}
	for a := 1; a < 5; a++ {
		if l.IsForward(a) {
			t.Errorf("pointer out of %d should be backward", a)
		}
	}
	if l.Tail() != 0 {
		t.Errorf("tail = %d", l.Tail())
	}
}

func TestIsForwardPanicsOnTail(t *testing.T) {
	l := SequentialList(3)
	defer func() {
		if recover() == nil {
			t.Error("IsForward(tail) did not panic")
		}
	}()
	l.IsForward(2)
}

func TestOrderAndPosition(t *testing.T) {
	l := FromOrder([]int{3, 1, 4, 0, 2})
	ord := l.Order()
	want := []int{3, 1, 4, 0, 2}
	for i := range want {
		if ord[i] != want[i] {
			t.Fatalf("Order = %v", ord)
		}
	}
	pos := l.Position()
	for r, v := range want {
		if pos[v] != r {
			t.Errorf("Position[%d] = %d, want %d", v, pos[v], r)
		}
	}
}

func TestPred(t *testing.T) {
	l := FromOrder([]int{2, 0, 1})
	pred := l.Pred()
	if pred[2] != Nil || pred[0] != 2 || pred[1] != 0 {
		t.Errorf("pred = %v", pred)
	}
}

func TestTail(t *testing.T) {
	l := FromOrder([]int{2, 0, 1})
	if l.Tail() != 1 {
		t.Errorf("Tail = %d", l.Tail())
	}
}

func TestClone(t *testing.T) {
	l := RandomList(16, 3)
	c := l.Clone()
	c.Next[0] = Nil
	c.Next[1] = Nil
	if err := l.Validate(); err != nil {
		t.Errorf("mutating clone affected original: %v", err)
	}
}

// TestValidateRejectsBadStructures pins every malformed-list message
// and which defect wins when a list has several. Validate and
// ValidateInto with caller scratch agree, every error wraps ErrInvalid,
// and a defect the degree pass finds comes from ValidateDegrees too.
// The longer lists put the defect past the first bitset word.
func TestValidateRejectsBadStructures(t *testing.T) {
	edited := func(l *List, edit func(next []int)) *List {
		edit(l.Next)
		return l
	}
	cases := []struct {
		name   string
		l      *List
		want   string
		degree bool // the degree pass alone rejects it
	}{
		{"empty", New(nil, 0), "list: empty", true},
		{"bad head", New([]int{Nil}, 5), "list: head 5 out of range [0,1)", true},
		{"negative head", New([]int{Nil}, -1), "list: head -1 out of range [0,1)", true},
		{"out of range", New([]int{7, Nil}, 0), "list: Next[0] = 7 out of range", true},
		{"negative next", New([]int{-2, Nil}, 0), "list: Next[0] = -2 out of range", true},
		{"self loop", New([]int{0, Nil}, 0), "list: self-loop at 0", true},
		{"two tails", New([]int{Nil, Nil}, 0), "list: 2 tails, want 1", true},
		{"no tail", New([]int{1, 0}, 0), "list: 0 tails, want 1", true},
		{"indegree 2", New([]int{2, 2, Nil, Nil}, 0), "list: node 2 has in-degree > 1", true},
		{"indegree 2 past a word", edited(SequentialList(130), func(next []int) { next[5] = 100 }), "list: node 100 has in-degree > 1", true},
		{"head has pred", New([]int{1, Nil, 0}, 0), "list: head 0 has a predecessor", true},
		{"head has pred past a word", edited(ReversedList(101), func(next []int) { next[0], next[69] = 100, Nil }), "list: head 100 has a predecessor", true},
		{"cycle through head", New([]int{1, 2, 0, Nil}, 0), "list: head 0 has a predecessor", true},
		{"unreachable", New([]int{1, 4, 3, 2, Nil}, 0), "list: 3 of 5 nodes reachable from head", false},
		{"unreachable past a word", edited(SequentialList(130), func(next []int) { next[99], next[129] = Nil, 100 }), "list: 100 of 130 nodes reachable from head", false},
		// Precedence: the first bad pointer in address order wins, then
		// the tail count, then the head's predecessor.
		{"indegree before range", New([]int{2, 2, Nil, 9}, 0), "list: node 2 has in-degree > 1", true},
		{"range before tails", New([]int{Nil, 9, Nil}, 0), "list: Next[1] = 9 out of range", true},
		{"tails before head pred", New([]int{1, 0, Nil, Nil}, 0), "list: 2 tails, want 1", true},
	}
	for _, c := range cases {
		var scratch []uint64
		if n := c.l.Len(); n > 0 {
			scratch = make([]uint64, DegreeWords(n))
		}
		for route, err := range map[string]error{
			"Validate":     c.l.Validate(),
			"ValidateInto": c.l.ValidateInto(scratch),
		} {
			if err == nil || err.Error() != c.want {
				t.Errorf("%s: %s = %v, want %q", c.name, route, err, c.want)
			} else if !errors.Is(err, ErrInvalid) {
				t.Errorf("%s: %s: %v does not wrap ErrInvalid", c.name, route, err)
			}
		}
		err := c.l.ValidateDegrees(nil)
		if c.degree && (err == nil || err.Error() != c.want) || !c.degree && err != nil {
			t.Errorf("%s: ValidateDegrees = %v", c.name, err)
		}
	}
}

// TestValidateDegreesLeavesReachability: the degree pass alone accepts
// a list whose only defect is a cycle off the head's path; the full
// validation rejects it with UnreachableError's message.
func TestValidateDegreesLeavesReachability(t *testing.T) {
	l := New([]int{1, 4, 3, 2, Nil}, 0) // 0 → 1 → 4, and 2 ⇄ 3
	if err := l.ValidateDegrees(nil); err != nil {
		t.Fatalf("degree pass: %v", err)
	}
	err := l.Validate()
	if err == nil || err.Error() != "list: 3 of 5 nodes reachable from head" ||
		err.Error() != UnreachableError(3, 5).Error() || !errors.Is(err, ErrInvalid) {
		t.Errorf("Validate = %v", err)
	}
}

func TestRandomListIsDeterministicPerSeed(t *testing.T) {
	a := RandomList(100, 5)
	b := RandomList(100, 5)
	c := RandomList(100, 6)
	same := true
	diff := false
	for i := range a.Next {
		if a.Next[i] != b.Next[i] {
			same = false
		}
		if a.Next[i] != c.Next[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different lists")
	}
	if !diff {
		t.Error("different seeds produced identical lists")
	}
}

func TestFromOrderRoundTrips(t *testing.T) {
	check := func(seed int64) bool {
		l := RandomList(64, seed)
		return FromOrder(l.Order()).Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestZigZagAlternates(t *testing.T) {
	l := ZigZagList(8)
	ord := l.Order()
	want := []int{0, 7, 1, 6, 2, 5, 3, 4}
	for i := range want {
		if ord[i] != want[i] {
			t.Fatalf("zigzag order = %v", ord)
		}
	}
	// Pointers alternate forward/backward.
	for i := 0; i+1 < len(ord); i++ {
		fwd := l.IsForward(ord[i])
		if i%2 == 0 && !fwd {
			t.Errorf("pointer %d should be forward", i)
		}
		if i%2 == 1 && fwd {
			t.Errorf("pointer %d should be backward", i)
		}
	}
}

func TestBlockedListKeepsBlocksContiguous(t *testing.T) {
	l := BlockedList(64, 8, 3)
	ord := l.Order()
	for i := 0; i < 64; i += 8 {
		base := ord[i]
		if base%8 != 0 {
			t.Fatalf("block start %d not aligned", base)
		}
		for j := 1; j < 8; j++ {
			if ord[i+j] != base+j {
				t.Fatalf("block broken at %d: %v", i, ord[i:i+8])
			}
		}
	}
}

func TestBlockedListPanicsOnBadBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BlockedList(10, 0) did not panic")
		}
	}()
	BlockedList(10, 0, 1)
}

func TestPointerCount(t *testing.T) {
	if SequentialList(10).PointerCount() != 9 {
		t.Error("PointerCount wrong")
	}
}

func TestRenderBisection(t *testing.T) {
	out := SequentialList(4).RenderBisection()
	if !strings.Contains(out, "bisecting line") {
		t.Errorf("render missing header: %q", out)
	}
	// Pointer <1,2> crosses the midline between 1 and 2.
	if !strings.Contains(out, "< 1, 2> > c") {
		t.Errorf("render missing crossing pointer:\n%s", out)
	}
}

func TestOrderPanicsOnCycle(t *testing.T) {
	l := New([]int{1, 0}, 0)
	defer func() {
		if recover() == nil {
			t.Error("Order on cycle did not panic")
		}
	}()
	l.Order()
}

func TestSuccAccessor(t *testing.T) {
	l := SequentialList(3)
	if l.Succ(0) != 1 || l.Succ(2) != Nil {
		t.Error("Succ wrong")
	}
}

func TestTailMissingReturnsNil(t *testing.T) {
	// A (structurally invalid) cyclic list has no tail.
	l := New([]int{1, 0}, 0)
	if l.Tail() != Nil {
		t.Error("cycle should report no tail")
	}
}
