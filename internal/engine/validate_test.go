package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/rank"
)

// brokenList returns an n-node list that passes the degree pass but not
// the reachability walk: the nodes in cycle form a cycle, every other
// node lies on the chain from the head, in a seeded random order.
func brokenList(n int, cycle []int, seed int64) *list.List {
	next := make([]int, n)
	onCycle := make([]bool, n)
	for _, v := range cycle {
		onCycle[v] = true
	}
	var chain []int
	for _, v := range rand.New(rand.NewSource(seed)).Perm(n) {
		if !onCycle[v] {
			chain = append(chain, v)
		}
	}
	for i, v := range chain {
		next[v] = list.Nil
		if i+1 < len(chain) {
			next[v] = chain[i+1]
		}
	}
	for i, v := range cycle {
		next[v] = cycle[(i+1)%len(cycle)]
	}
	return &list.List{Next: next, Head: chain[0]}
}

// brokenLists covers the shapes the fused check must catch, on both
// sides of the walker's sweep thresholds: a 2-cycle, a cycle through
// node 0 (a ruler on the sweep), a cycle holding half the nodes (odd
// addresses, so no ruler), and from 600 nodes a short cycle through
// the rulers 256 and 512 beside one through no ruler.
func brokenLists() map[string]*list.List {
	out := map[string]*list.List{}
	for _, n := range []int{8, 63, 64, 65, 1000,
		rank.SweepMinRank - 1, rank.SweepMinRank, rank.SweepMinRank + 1,
		rank.SweepMinPrefix - 1, rank.SweepMinPrefix, rank.SweepMinPrefix + 1} {
		half := make([]int, n/2)
		for i := range half {
			half[i] = 2*i + 1
		}
		shapes := map[string][]int{
			"2-cycle":     {n - 2, n - 1},
			"node0-cycle": {0, n / 2, n - 1},
			"half-cycle":  half,
		}
		if n >= 600 {
			shapes["ruler-cycle"] = []int{256, 1, 512, 3}
			shapes["plain-cycle"] = []int{1, 2, 3}
		}
		for name, cyc := range shapes {
			out[fmt.Sprintf("%s/n=%d", name, n)] = brokenList(n, cyc, int64(n))
		}
	}
	return out
}

// validationEngines is every route a whole request can take to its
// validation: the native walker at one party and as a team (two
// workers, forced so the team path runs on any host), and the
// simulated executors, which keep the full validation pass.
func validationEngines(t testing.TB) map[string]*Engine {
	engines := map[string]*Engine{
		"native/w=1": New(Config{Processors: 8, Exec: pram.Native, Workers: 1}),
		"native/w=2": New(Config{Processors: 8, Exec: pram.Native, Workers: 2}),
		"sequential": New(Config{Processors: 8}),
		"pooled":     New(Config{Processors: 8, Exec: pram.Pooled, Workers: 2}),
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Close()
		}
	})
	return engines
}

// walkedRequests are the request shapes the native walker serves.
func walkedRequests(l *list.List) map[string]Request {
	vals := make([]int, l.Len())
	for i := range vals {
		vals[i] = i%7 - 3
	}
	return map[string]Request{
		"rank/default":     {Op: OpRank, List: l},
		"rank/contraction": {Op: OpRank, List: l, Rank: RankContraction},
		"rank/wyllie":      {Op: OpRank, List: l, Rank: RankWyllie},
		"prefix":           {Op: OpPrefix, List: l, Values: vals},
	}
}

// TestNativeWalkCertifiesReachability: lists with nodes unreachable
// from the head pass the degree pass, so on the native rank/prefix
// path only the walk can reject them. Every route must fail with
// list.Validate's exact message, "list: k of n nodes reachable from
// head", and the ErrInvalidList sentinel, the pool included, on the
// serial walk and the ruler sweep alike, and the engine must keep
// serving afterwards.
func TestNativeWalkCertifiesReachability(t *testing.T) {
	engines := validationEngines(t)
	pool := NewPool(PoolConfig{Engines: 2, Engine: Config{Processors: 8, Exec: pram.Native}})
	defer pool.Close()
	good := list.RandomList(300, 9)
	for name, l := range brokenLists() {
		if err := l.ValidateDegrees(nil); err != nil {
			t.Fatalf("%s: degree pass rejects the fixture: %v", name, err)
		}
		want := l.Validate()
		if want == nil {
			t.Fatalf("%s: fixture is a valid list", name)
		}
		for rname, req := range walkedRequests(l) {
			for ename, eng := range engines {
				_, err := eng.Run(bg, req)
				if err == nil || err.Error() != want.Error() || !errors.Is(err, ErrInvalidList) {
					t.Errorf("%s %s on %s: err = %v, want %q wrapping ErrInvalidList", name, rname, ename, err, want)
				}
			}
			if _, err := pool.Do(bg, req); err == nil || err.Error() != want.Error() || !errors.Is(err, ErrInvalidList) {
				t.Errorf("%s %s on a pool: err = %v, want %q", name, rname, err, want)
			}
		}
	}
	for ename, eng := range engines {
		res, err := eng.Run(bg, Request{Op: OpRank, List: good})
		if err != nil || !reflect.DeepEqual(res.Ranks, good.Position()) {
			t.Errorf("%s after rejections: err = %v", ename, err)
		}
	}
}

// TestValidationErrorPrecedence: skipping the reachability walk on the
// native path must not change which error a request with several
// faults reports. A malformed list wins over an unknown scheme or bad
// prefix values, and a degree-pass failure wins everywhere, exactly as
// on the simulated executors.
func TestValidationErrorPrecedence(t *testing.T) {
	engines := validationEngines(t)
	cyclic := brokenList(100, []int{10, 20, 30}, 1)
	// The head skips its successor, so the node after that one gains a
	// second predecessor: a degree-pass failure.
	twoPreds := list.RandomList(100, 2)
	twoPreds.Next[twoPreds.Head] = twoPreds.Next[twoPreds.Next[twoPreds.Head]]
	for _, l := range []*list.List{cyclic, twoPreds} {
		want := l.Validate()
		reqs := []Request{
			{Op: OpRank, List: l, Rank: "psychic"},
			{Op: OpRank, List: l, Rank: RankLoadBalanced},
			{Op: OpPrefix, List: l, Values: []int{1}},
			{Op: OpPrefix, List: l, Values: make([]int, l.Len())},
			{Op: OpRank, List: l},
			{Op: OpPartition, List: l},
		}
		for _, req := range reqs {
			for ename, eng := range engines {
				_, err := eng.Run(bg, req)
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%v rank=%q values=%d on %s: err = %v, want %q",
						req.Op, req.Rank, len(req.Values), ename, err, want)
				}
			}
		}
	}
}

// FuzzNativeValidation feeds arbitrary successor arrays through the
// native walker's routes: a seeded valid list edited by a fuzzed
// script that sets pointers to any value or swaps two successors (a
// swap keeps every in-degree, so it yields a valid list or one with
// unreachable cycles). Native must fail exactly when list.Validate
// fails, with the same text, and otherwise match Sequential bit for
// bit.
func FuzzNativeValidation(f *testing.F) {
	f.Add(int64(1), uint16(100), int16(0), []byte{})
	f.Add(int64(2), uint16(100), int16(0), []byte{1, 10, 20})
	f.Add(int64(3), uint16(40), int16(0), []byte{1, 3, 7, 1, 5, 9})
	f.Add(int64(4), uint16(300), int16(-1), []byte{0, 17, 200})
	f.Add(int64(5), uint16(1), int16(0), []byte{0, 0, 0})
	engines := validationEngines(f)
	seq := engines["sequential"]
	f.Fuzz(func(t *testing.T, seed int64, nn uint16, head int16, script []byte) {
		n := int(nn)%600 + 1
		l := list.RandomList(n, seed)
		if head != 0 {
			l.Head = int(head)
		}
		for i := 0; i+2 < len(script); i += 3 {
			a, b := int(script[i+1])*n/256, int(script[i+2])
			if script[i]%2 == 0 {
				l.Next[a] = b%(n+3) - 2 // Nil, out of range, or any node
			} else {
				b = b * n / 256
				l.Next[a], l.Next[b] = l.Next[b], l.Next[a]
			}
		}
		want := l.Validate()
		for rname, req := range walkedRequests(l) {
			ref, refErr := seq.Run(bg, req)
			if (refErr == nil) != (want == nil) {
				t.Fatalf("%s: sequential err = %v, Validate = %v", rname, refErr, want)
			}
			for _, ename := range []string{"native/w=1", "native/w=2"} {
				got, err := engines[ename].Run(bg, req)
				if want != nil {
					if err == nil || err.Error() != want.Error() || !errors.Is(err, ErrInvalidList) {
						t.Fatalf("%s on %s: err = %v, want %q", rname, ename, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s on %s: valid list rejected: %v", rname, ename, err)
				}
				if !reflect.DeepEqual(got.Ranks, ref.Ranks) {
					t.Fatalf("%s on %s: output diverges from sequential", rname, ename)
				}
			}
		}
	})
}
