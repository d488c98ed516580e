package color

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

func TestThreeColorAllGenerators(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 10, 100, 4096} {
		for _, g := range list.Generators() {
			l := g.Make(n, 21)
			m := pram.New(16)
			col := ThreeColor(m, l, nil)
			if err := VerifyColoring(l, col, 3); err != nil {
				t.Errorf("n=%d %s: %v", n, g.Name, err)
			}
		}
	}
}

func TestThreeColorProperty(t *testing.T) {
	check := func(seed int64, nn uint16, pp uint8) bool {
		n := int(nn)%2000 + 1
		p := int(pp)%64 + 1
		l := list.RandomList(n, seed)
		m := pram.New(p)
		col := ThreeColor(m, l, nil)
		return VerifyColoring(l, col, 3) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestThreeColorUsesAtMostThreeRounds(t *testing.T) {
	// Reduction phase: exactly 3 colour-elimination rounds of ⌈n/p⌉.
	n, p := 10000, 100
	l := list.RandomList(n, 2)
	m := pram.New(p)
	ThreeColor(m, l, nil)
	var reduce int64
	for _, ph := range m.Snapshot().Phases {
		if ph.Name == "reduce-to-3" {
			reduce = ph.Time
		}
	}
	// 3 rounds of n/p plus the pred computation (2 rounds).
	if reduce == 0 || reduce > int64(6*n/p) {
		t.Errorf("reduce phase time = %d", reduce)
	}
}

func TestVerifyColoringCatchesBadInputs(t *testing.T) {
	l := list.SequentialList(3)
	if VerifyColoring(l, []int{0, 0, 1}, 3) == nil {
		t.Error("adjacent same colour accepted")
	}
	if VerifyColoring(l, []int{0, 5, 1}, 3) == nil {
		t.Error("out-of-range colour accepted")
	}
	if VerifyColoring(l, []int{0, 1}, 3) == nil {
		t.Error("short colouring accepted")
	}
	if err := VerifyColoring(l, []int{0, 1, 0}, 3); err != nil {
		t.Errorf("valid colouring rejected: %v", err)
	}
}

func TestMISFromColoringValid(t *testing.T) {
	for _, n := range []int{1, 2, 3, 50, 3000} {
		for _, g := range list.Generators() {
			l := g.Make(n, 4)
			m := pram.New(8)
			col := ThreeColor(m, l, nil)
			mis := MISFromColoring(m, l, col, 3)
			if err := VerifyMIS(l, mis); err != nil {
				t.Errorf("n=%d %s: %v", n, g.Name, err)
			}
		}
	}
}

func TestMISFromMatchingValid(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 50, 3000} {
		for _, g := range list.Generators() {
			l := g.Make(n, 4)
			m := pram.New(8)
			r, err := matching.Match4(m, l, nil, matching.Match4Config{I: 2})
			if err != nil {
				t.Fatal(err)
			}
			mis := MISFromMatching(m, l, r.In)
			if err := VerifyMIS(l, mis); err != nil {
				t.Errorf("n=%d %s: %v", n, g.Name, err)
			}
		}
	}
}

// TestNativeMISFromMatching: the native post-pass, which reads the
// Match4 kernel's cover flags where MISFromMatching builds predecessors,
// picks MISFromMatching's set exactly, on every generator from 2 to
// 2^16 nodes and on kernels of 1, 2 and 4 workers. Once warm, the
// kernel and the post-pass together allocate nothing. As in the
// engine's zero-alloc tests, the average is over 20 runs, so a rare
// allocation inside the runtime's team wake-ups, which a 2-run average
// once read as 1 alloc/op under -race, does not pass for a per-run one.
func TestNativeMISFromMatching(t *testing.T) {
	ref := pram.New(8)
	defer ref.Close()
	for _, workers := range []int{1, 2, 4} {
		m := pram.New(8, pram.WithExec(pram.Native), pram.WithWorkers(workers), pram.WithWorkspace(ws.New()))
		nr, err := matching.NewNativeRunner(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range list.Generators() {
			for _, n := range []int{2, 3, 64, 4096, 65536} {
				name := fmt.Sprintf("workers=%d %s n=%d", workers, g.Name, n)
				l := g.Make(n, int64(n))
				var res matching.Result
				var in []bool
				run := func() {
					m.Workspace().Reset()
					if err := nr.Run(l, &res); err != nil {
						t.Fatal(err)
					}
					in = NativeMISFromMatching(m, l, res.In, nr.Used())
				}
				run()
				if want := MISFromMatching(ref, l, res.In); !slices.Equal(in, want) {
					t.Errorf("%s: set differs from MISFromMatching", name)
				}
				if err := VerifyMIS(l, in); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if g.Name != "random" {
					continue // allocation does not depend on the list's shape
				}
				if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
					t.Errorf("%s: %v allocs/op, want 0", name, allocs)
				}
			}
		}
		m.Close()
	}
}

func TestMISFromMatchingProperty(t *testing.T) {
	check := func(seed int64, nn uint16) bool {
		n := int(nn)%1000 + 1
		l := list.RandomList(n, seed)
		m := pram.New(16)
		in, err := MISViaMatching(m, l, matching.Match4Config{I: 3})
		if err != nil {
			return false
		}
		return VerifyMIS(l, in) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMISSizeBounds(t *testing.T) {
	// An MIS of a path with n nodes has between ⌈n/3⌉ and ⌈n/2⌉ nodes.
	for _, n := range []int{1, 2, 3, 4, 7, 100, 999} {
		l := list.RandomList(n, 6)
		m := pram.New(8)
		mis, err := MISViaMatching(m, l, matching.Match4Config{I: 2})
		if err != nil {
			t.Fatal(err)
		}
		sz := 0
		for _, b := range mis {
			if b {
				sz++
			}
		}
		lo, hi := (n+2)/3, (n+1)/2
		if sz < lo || sz > hi {
			t.Errorf("n=%d: MIS size %d outside [%d,%d]", n, sz, lo, hi)
		}
	}
}

func TestVerifyMISCatchesBadSets(t *testing.T) {
	l := list.SequentialList(4)
	if VerifyMIS(l, []bool{true, true, false, false}) == nil {
		t.Error("adjacent members accepted")
	}
	if VerifyMIS(l, []bool{true, false, false, false}) == nil {
		t.Error("non-maximal set accepted")
	}
	if VerifyMIS(l, []bool{true}) == nil {
		t.Error("short set accepted")
	}
	if err := VerifyMIS(l, []bool{true, false, true, false}); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
	if err := VerifyMIS(l, []bool{false, true, false, true}); err != nil {
		t.Errorf("valid MIS rejected: %v", err)
	}
}

func TestSingleNodeMIS(t *testing.T) {
	l := list.SequentialList(1)
	m := pram.New(1)
	mis, err := MISViaMatching(m, l, matching.Match4Config{I: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !mis[0] {
		t.Error("single node must be in its MIS")
	}
}
