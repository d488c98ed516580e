package parlist_test

import (
	"errors"
	"strings"
	"testing"

	"parlist"
	"parlist/internal/list"
	"parlist/internal/partition"
)

// These tests pin the package-level functions: their defaults, each
// option, and the validation contract — malformed options and inputs
// come back as typed errors (errors.Is-testable), never panics.

func TestMaximalMatchingDefaults(t *testing.T) {
	l := parlist.RandomList(1000, 1)
	res, err := parlist.MaximalMatching(l, parlist.Options{Processors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := parlist.Verify(l, res.In); err != nil {
		t.Fatal(err)
	}
	if res.Detail.Algorithm != "match4" {
		t.Errorf("default algorithm = %q", res.Detail.Algorithm)
	}
	if res.Stats.Processors != 64 || res.Stats.Time == 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Size != res.Detail.Size {
		t.Error("size mismatch")
	}
}

func TestMaximalMatchingAllAlgorithms(t *testing.T) {
	l := parlist.RandomList(512, 2)
	for _, a := range []parlist.Algorithm{
		parlist.Match1, parlist.Match2, parlist.Match3, parlist.Match4,
		parlist.Sequential, parlist.Randomized,
	} {
		res, err := parlist.MaximalMatching(l, parlist.Options{Algorithm: a, Processors: 8})
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if err := parlist.Verify(l, res.In); err != nil {
			t.Errorf("%s: %v", a, err)
		}
		if string(a) != res.Detail.Algorithm {
			t.Errorf("%s: detail algorithm %q", a, res.Detail.Algorithm)
		}
	}
}

func TestMaximalMatchingUnknownAlgorithm(t *testing.T) {
	l := parlist.SequentialList(4)
	_, err := parlist.MaximalMatching(l, parlist.Options{Algorithm: "quantum"})
	if err == nil || !strings.HasPrefix(err.Error(), "parlist: ") ||
		!strings.Contains(err.Error(), "unknown algorithm") {
		t.Errorf("err = %v", err)
	}
}

func TestMaximalMatchingRejectsInvalidList(t *testing.T) {
	bad := list.New([]int{0, list.Nil}, 0) // self-loop
	if _, err := parlist.MaximalMatching(bad, parlist.Options{}); err == nil {
		t.Error("invalid list accepted")
	}
}

func TestMaximalMatchingVariants(t *testing.T) {
	l := parlist.RandomList(256, 3)
	for _, v := range []parlist.Variant{parlist.VariantMSB, parlist.VariantLSB} {
		res, err := parlist.MaximalMatching(l, parlist.Options{Variant: v, Processors: 4})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if err := parlist.Verify(l, res.In); err != nil {
			t.Errorf("%v: %v", v, err)
		}
	}
}

func TestMaximalMatchingTableRoute(t *testing.T) {
	l := parlist.RandomList(4096, 4)
	res, err := parlist.MaximalMatching(l, parlist.Options{UseTable: true, I: 4, Processors: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detail.TableSize == 0 {
		t.Error("table route reported no table")
	}
	if err := parlist.Verify(l, res.In); err != nil {
		t.Error(err)
	}
}

func TestPartitionFacade(t *testing.T) {
	l := parlist.RandomList(2048, 5)
	lab, rng, err := parlist.Partition(l, 2, parlist.Options{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := partition.Verify(l, lab); err != nil {
		t.Fatal(err)
	}
	if rng != partition.RangeAfter(2048, 2) {
		t.Errorf("range = %d", rng)
	}
	if _, _, err := parlist.Partition(l, 0, parlist.Options{}); err == nil {
		t.Error("i=0 accepted")
	}
}

func TestThreeColorFacade(t *testing.T) {
	l := parlist.RandomList(999, 6)
	col, stats, err := parlist.ThreeColor(l, parlist.Options{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time == 0 {
		t.Error("no stats recorded")
	}
	for v, s := range l.Next {
		if s != list.Nil && col[v] == col[s] {
			t.Fatal("improper colouring")
		}
		if col[v] < 0 || col[v] > 2 {
			t.Fatal("colour out of range")
		}
	}
}

func TestMISFacade(t *testing.T) {
	l := parlist.RandomList(777, 7)
	mis, stats, err := parlist.MIS(l, parlist.Options{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time == 0 {
		t.Error("no stats")
	}
	pred := l.Pred()
	for v, s := range l.Next {
		if mis[v] && s != list.Nil && mis[s] {
			t.Fatal("adjacent MIS members")
		}
		if !mis[v] {
			pIn := pred[v] != list.Nil && mis[pred[v]]
			sIn := s != list.Nil && mis[s]
			if !pIn && !sIn {
				t.Fatal("not maximal")
			}
		}
	}
}

func TestRankFacade(t *testing.T) {
	l := parlist.RandomList(600, 8)
	rk, _, err := parlist.Rank(l, parlist.Options{Processors: 8})
	if err != nil {
		t.Fatal(err)
	}
	pos := l.Position()
	for v := range rk {
		if rk[v] != pos[v] {
			t.Fatalf("rank[%d] = %d, want %d", v, rk[v], pos[v])
		}
	}
}

func TestPrefixFacade(t *testing.T) {
	l := parlist.RandomList(100, 9)
	vals := make([]int, 100)
	for i := range vals {
		vals[i] = i
	}
	out, _, err := parlist.Prefix(l, vals, parlist.Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	acc := 0
	for v := l.Head; v != list.Nil; v = l.Next[v] {
		acc += vals[v]
		if out[v] != acc {
			t.Fatalf("prefix[%d] = %d, want %d", v, out[v], acc)
		}
	}
	if _, _, err := parlist.Prefix(l, vals[:50], parlist.Options{}); err == nil {
		t.Error("mismatched values accepted")
	}
}

func TestZeroProcessorsDefaultsToOne(t *testing.T) {
	l := parlist.SequentialList(16)
	res, err := parlist.MaximalMatching(l, parlist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Processors != 1 {
		t.Errorf("processors = %d", res.Stats.Processors)
	}
}

func TestRankSchemes(t *testing.T) {
	l := parlist.RandomList(3000, 12)
	pos := l.Position()
	for _, s := range []parlist.RankScheme{
		parlist.RankContraction, parlist.RankWyllie,
		parlist.RankLoadBalanced, parlist.RankRandomMate, "",
	} {
		rk, stats, err := parlist.Rank(l, parlist.Options{Processors: 32, Rank: s})
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if stats.Time == 0 {
			t.Errorf("%q: no stats", s)
		}
		for v := range rk {
			if rk[v] != pos[v] {
				t.Fatalf("%q: rank mismatch at %d", s, v)
			}
		}
	}
	if _, _, err := parlist.Rank(l, parlist.Options{Rank: "sorcery"}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestFacadesRejectInvalidLists(t *testing.T) {
	bad := list.New([]int{0, list.Nil}, 0)
	if _, _, err := parlist.ThreeColor(bad, parlist.Options{}); err == nil {
		t.Error("ThreeColor accepted invalid list")
	}
	if _, _, err := parlist.MIS(bad, parlist.Options{}); err == nil {
		t.Error("MIS accepted invalid list")
	}
	if _, _, err := parlist.Rank(bad, parlist.Options{}); err == nil {
		t.Error("Rank accepted invalid list")
	}
	if _, _, err := parlist.Prefix(bad, []int{1, 2}, parlist.Options{}); err == nil {
		t.Error("Prefix accepted invalid list")
	}
	if _, _, err := parlist.Partition(bad, 1, parlist.Options{}); err == nil {
		t.Error("Partition accepted invalid list")
	}
}

func TestNilListIsTypedError(t *testing.T) {
	if _, err := parlist.MaximalMatching(nil, parlist.Options{}); !errors.Is(err, parlist.ErrNilList) {
		t.Errorf("MaximalMatching(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := parlist.Rank(nil, parlist.Options{}); !errors.Is(err, parlist.ErrNilList) {
		t.Errorf("Rank(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := parlist.ThreeColor(nil, parlist.Options{}); !errors.Is(err, parlist.ErrNilList) {
		t.Errorf("ThreeColor(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := parlist.MIS(nil, parlist.Options{}); !errors.Is(err, parlist.ErrNilList) {
		t.Errorf("MIS(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := parlist.Prefix(nil, nil, parlist.Options{}); !errors.Is(err, parlist.ErrNilList) {
		t.Errorf("Prefix(nil): err = %v, want ErrNilList", err)
	}
	if _, _, err := parlist.Partition(nil, 1, parlist.Options{}); !errors.Is(err, parlist.ErrNilList) {
		t.Errorf("Partition(nil): err = %v, want ErrNilList", err)
	}
	if _, err := parlist.ScheduleMatching(nil, nil, 1, parlist.Options{}); !errors.Is(err, parlist.ErrNilList) {
		t.Errorf("ScheduleMatching(nil): err = %v, want ErrNilList", err)
	}
}

func TestNegativeProcessorsIsTypedError(t *testing.T) {
	l := parlist.SequentialList(8)
	for _, p := range []int{-1, -64} {
		if _, err := parlist.MaximalMatching(l, parlist.Options{Processors: p}); !errors.Is(err, parlist.ErrBadProcessors) {
			t.Errorf("p=%d: err = %v, want ErrBadProcessors", p, err)
		}
	}
	// Zero still means "default to one" — the documented behaviour.
	res, err := parlist.MaximalMatching(l, parlist.Options{Processors: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Processors != 1 {
		t.Errorf("p=0 ran with %d processors, want 1", res.Stats.Processors)
	}
}

func TestUnknownAlgorithmIsTypedError(t *testing.T) {
	l := parlist.SequentialList(8)
	_, err := parlist.MaximalMatching(l, parlist.Options{Algorithm: "quantum"})
	if !errors.Is(err, parlist.ErrUnknownAlgorithm) {
		t.Errorf("err = %v, want ErrUnknownAlgorithm", err)
	}
}

func TestUnknownRankSchemeIsTypedError(t *testing.T) {
	l := parlist.SequentialList(8)
	_, _, err := parlist.Rank(l, parlist.Options{Rank: "sorcery"})
	if !errors.Is(err, parlist.ErrUnknownRankScheme) {
		t.Errorf("err = %v, want ErrUnknownRankScheme", err)
	}
}

func TestValidationErrorsDoNotPoisonTheSharedEngine(t *testing.T) {
	l := parlist.RandomList(256, 1)
	if _, err := parlist.MaximalMatching(nil, parlist.Options{}); err == nil {
		t.Fatal("nil list accepted")
	}
	res, err := parlist.MaximalMatching(l, parlist.Options{Processors: 8})
	if err != nil {
		t.Fatalf("request after validation failure: %v", err)
	}
	if err := parlist.Verify(l, res.In); err != nil {
		t.Error(err)
	}
}
