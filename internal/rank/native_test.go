package rank

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// walkSizes straddle both sweep thresholds, from the serial walk's
// smallest lists up to 2^18 nodes.
var walkSizes = []int{1, 5, 63, 64, 65, 1000,
	SweepMinRank - 1, SweepMinRank, SweepMinRank + 1,
	SweepMinPrefix - 1, SweepMinPrefix, SweepMinPrefix + 1, 1 << 18}

// serialWalk is the reference the walker is checked and benchmarked
// against: one dependent pointer chase in list order, writing ranks
// (vals nil) or inclusive prefix sums into out and counting the nodes
// reached.
func serialWalk(l *list.List, vals, out []int) (reached int) {
	acc := 0
	for v := l.Head; v != list.Nil; v = l.Next[v] {
		if vals == nil {
			out[v] = reached
		} else {
			acc += vals[v]
			out[v] = acc
		}
		reached++
	}
	return reached
}

// withCycle returns l with the nodes of cycle cut out of its path and
// linked into a detached cycle. The result passes the degree pass but
// reaches only the path's nodes from its head.
func withCycle(l *list.List, cycle []int) *list.List {
	next := make([]int, l.Len())
	var path []int
	for _, v := range l.Order() {
		if !slices.Contains(cycle, v) {
			path = append(path, v)
		}
	}
	for i, v := range path {
		next[v] = list.Nil
		if i+1 < len(path) {
			next[v] = path[i+1]
		}
	}
	for i, v := range cycle {
		next[v] = cycle[(i+1)%len(cycle)]
	}
	return list.New(next, path[0])
}

// walkValues returns prefix addends with negative entries, and with
// entries near ±2^62 whose sums wrap, so the check covers wrapping
// addition too.
func walkValues(n int) []int {
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i%7 - 3
		if i%5 == 0 {
			vals[i] = (i%3 - 1) << 62
		}
	}
	return vals
}

// TestNativeWalkReached: the walker reports how many nodes it reached
// from the head, and takes the ruler sweep exactly from its size
// threshold on. On a valid list it reaches all n nodes with the serial
// reference's ranks and prefix sums. On a list with a detached cycle it
// reaches exactly the head's path, whether the cycle holds rulers
// (nodes 256 and 512) or none. Every generator, sizes on both sides of
// both thresholds, at 1, 2 and 4 parties.
func TestNativeWalkReached(t *testing.T) {
	walkers := map[int]*NativeWalker{}
	for _, workers := range []int{1, 2, 4} {
		m := pram.New(8, pram.WithExec(pram.Native), pram.WithWorkers(workers), pram.WithWorkspace(ws.New()))
		defer m.Close()
		walkers[workers] = NewNativeWalker(m)
	}
	walk := func(name string, w *NativeWalker, l *list.List, vals []int) (out []int, reached int) {
		t.Helper()
		w.m.Workspace().Reset()
		w.cursors = nil
		out, reached = w.Walk(l, vals)
		from := SweepMinRank
		if vals != nil {
			from = SweepMinPrefix
		}
		if swept := w.cursors != nil; swept != (l.Len() >= from) {
			t.Errorf("%s: swept = %v at n = %d, threshold %d", name, swept, l.Len(), from)
		}
		return out, reached
	}
	for _, gen := range list.Generators() {
		for _, n := range walkSizes {
			l := gen.Make(n, int64(n))
			// Detached-cycle fixtures, keyed by name, with the length of
			// the path left from the head. They stop below 2^18 to keep
			// the -race runs short; both thresholds are below it.
			broken := map[string]*list.List{}
			if n >= 600 && n < 1<<18 {
				broken["ruler-cycle"] = withCycle(l, []int{256, 1, 512, 3})
				broken["plain-cycle"] = withCycle(l, []int{1, 2, 3})
			}
			path := map[string]int{"ruler-cycle": n - 4, "plain-cycle": n - 3}
			for cname, b := range broken {
				if err := b.ValidateDegrees(nil); err != nil {
					t.Fatalf("%s n=%d %s fixture: %v", gen.Name, n, cname, err)
				}
			}
			want := make([]int, n)
			for _, mode := range []struct {
				name string
				vals []int
			}{{"rank", nil}, {"prefix", walkValues(n)}} {
				serialWalk(l, mode.vals, want)
				for workers, w := range walkers {
					name := fmt.Sprintf("workers=%d %s n=%d %s", workers, gen.Name, n, mode.name)
					out, reached := walk(name, w, l, mode.vals)
					if reached != n || !slices.Equal(out, want) {
						t.Errorf("%s valid: reached %d, output ok %v", name, reached, slices.Equal(out, want))
					}
					for cname, b := range broken {
						if _, reached := walk(name+" "+cname, w, b, mode.vals); reached != path[cname] {
							t.Errorf("%s %s: reached %d, want %d", name, cname, reached, path[cname])
						}
					}
				}
			}
		}
	}
}

// BenchmarkNativeWalk times the one-party walker against serialWalk on
// random lists of 2^12 to 2^20 nodes, in rank and prefix mode. Each
// call follows a degree pass over its list, as in the engine, and the
// calls rotate over 8 lists so that no call finds its list warm from
// the one before. ns/node times the walk alone.
func BenchmarkNativeWalk(b *testing.B) {
	const lists = 8
	for _, mode := range []string{"rank", "prefix"} {
		for lg := 12; lg <= 20; lg += 2 {
			n := 1 << lg
			ls := make([]*list.List, lists)
			for i := range ls {
				ls[i] = list.RandomList(n, int64(i))
			}
			var vals []int
			if mode == "prefix" {
				vals = walkValues(n)
			}
			m := pram.New(8, pram.WithExec(pram.Native), pram.WithWorkers(1), pram.WithWorkspace(ws.New()))
			w := NewNativeWalker(m)
			out := make([]int, n)
			hasPred := make([]uint64, list.DegreeWords(n))
			for _, impl := range []string{"sweep", "serial"} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", mode, n, impl), func(b *testing.B) {
					var walking time.Duration
					for i := 0; i < b.N; i++ {
						l := ls[i%lists]
						m.Workspace().Reset()
						clear(hasPred)
						if err := l.ValidateDegrees(hasPred); err != nil {
							b.Fatal(err)
						}
						start := time.Now()
						reached := 0
						if impl == "sweep" {
							_, reached = w.Walk(l, vals)
						} else {
							reached = serialWalk(l, vals, out)
						}
						walking += time.Since(start)
						if reached != n {
							b.Fatalf("reached %d of %d", reached, n)
						}
					}
					b.ReportMetric(float64(walking.Nanoseconds())/float64(b.N*n), "ns/node")
				})
			}
			m.Close()
		}
	}
}
