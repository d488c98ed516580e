package rank

import (
	"math/rand"
	"reflect"
	"testing"

	"parlist/internal/list"
	"parlist/internal/pram"
)

// runSharded drives the four kernels on one machine, the way the pool
// scheduler does across many: contract each shard, exchange, solve the
// reduced list, expand each shard.
func runSharded(m *pram.Machine, l *list.List, vals []int, k int) []int {
	st := NewShardState(nil, l, vals, k)
	for s := 0; s < k; s++ {
		ContractShard(m, st, s)
	}
	Exchange(st)
	SolveReduced(m, NewNativeWalker(m), st)
	for s := 0; s < k; s++ {
		ExpandShard(m, st, s)
	}
	return st.Out[:l.Len()]
}

func TestShardBounds(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{1, 1}, {5, 2}, {7, 3}, {8, 8}, {3, 8}, {100, 7}} {
		b := ShardBounds(tc.n, tc.k)
		if len(b) != tc.k+1 || b[0] != 0 || b[tc.k] != tc.n {
			t.Fatalf("ShardBounds(%d,%d) = %v", tc.n, tc.k, b)
		}
		for i := 0; i < tc.k; i++ {
			if b[i] > b[i+1] {
				t.Fatalf("ShardBounds(%d,%d) = %v: decreasing", tc.n, tc.k, b)
			}
		}
	}
}

// shardedSweepN is large enough that, at K ≥ 2, the reduced list of a
// random or zigzag list holds at least SweepMinPrefix segments, so
// SolveReduced takes the ruler sweep.
const shardedSweepN = 2*SweepMinPrefix + 1

func TestShardedRankMatchesPosition(t *testing.T) {
	for _, gen := range list.Generators() {
		for _, n := range []int{1, 2, 3, 7, 64, 257, 1000, shardedSweepN} {
			l := gen.Make(n, 80)
			want := l.Position()
			for _, k := range []int{1, 2, 3, 4, 8} {
				if k > n {
					continue
				}
				m := pram.New(8)
				got := runSharded(m, l, nil, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d k=%d: sharded ranks differ", gen.Name, n, k)
				}
			}
		}
	}
}

func TestShardedPrefixMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, gen := range list.Generators() {
		for _, n := range []int{1, 5, 63, 512, shardedSweepN} {
			l := gen.Make(n, 81)
			vals := make([]int, n)
			for i := range vals {
				vals[i] = rng.Intn(2001) - 1000
			}
			want := make([]int, n)
			if n < shardedSweepN {
				var err error
				if want, _, err = Prefix(pram.New(8), l, vals, nil); err != nil {
					t.Fatal(err)
				}
			} else {
				serialWalk(l, vals, want)
			}
			for _, k := range []int{2, 3, 5, 8} {
				if k > n {
					continue
				}
				m := pram.New(8)
				got := runSharded(m, l, vals, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s n=%d k=%d: sharded prefix differs", gen.Name, n, k)
				}
			}
		}
	}
}

// TestShardedSegmentsBound pins the exchange-volume invariant the E20
// experiment reports against: the reduced list has exactly one segment
// per out-of-shard (or list-end) exit, i.e. segments = cut crossings + 1
// where a crossing is a next-edge leaving its shard.
func TestShardedSegmentsBound(t *testing.T) {
	for _, gen := range list.Generators() {
		for _, k := range []int{2, 4, 8} {
			n := 600
			l := gen.Make(n, 82)
			st := NewShardState(nil, l, nil, k)
			m := pram.New(8)
			for s := 0; s < k; s++ {
				ContractShard(m, st, s)
			}
			Exchange(st)
			crossings := 0
			for v := 0; v < n; v++ {
				x := l.Next[v]
				if x == list.Nil {
					continue
				}
				if shardOf(st.Bounds, v) != shardOf(st.Bounds, x) {
					crossings++
				}
			}
			if st.Segments != crossings+1 {
				t.Fatalf("%s k=%d: %d segments, want crossings+1 = %d", gen.Name, k, st.Segments, crossings+1)
			}
		}
	}
}

func shardOf(bounds []int, v int) int {
	for k := 0; k+1 < len(bounds); k++ {
		if v >= bounds[k] && v < bounds[k+1] {
			return k
		}
	}
	return -1
}

// TestShardedKernelsUnderFaults checks the kernels run as ordinary
// simulated rounds: an injected worker fault inside a contract step
// surfaces as the usual transient panic, which is what lets the pool
// retry a step instead of the whole request.
func TestShardedKernelsUnderFaults(t *testing.T) {
	l := list.RandomList(512, 83)
	m := pram.New(8, pram.WithExec(pram.Pooled), pram.WithWorkers(4))
	defer m.Close()
	m.SetFaults(&pram.FaultPlan{Seed: 7, PanicAt: []pram.FaultPoint{{Round: 1, Worker: 1}}})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no fault fired inside sharded kernels")
		}
		if _, ok := r.(*pram.WorkerPanic); !ok {
			t.Fatalf("recovered %T, want *pram.WorkerPanic", r)
		}
	}()
	st := NewShardState(nil, l, nil, 4)
	for s := 0; s < 4; s++ {
		ContractShard(m, st, s)
	}
}
