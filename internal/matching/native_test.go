package matching

import (
	"fmt"
	"slices"
	"testing"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// BenchmarkNativeMatch4 times the native Match4 kernel (i = 3) on a
// one-party machine, the width of a pool engine on a small host,
// against T₁, the greedy walk matching.Sequential, from 2^8 to 2^16
// nodes. It rotates over 4 random lists so that no run finds its list
// warm from the one before, and reports ns/node for both.
func BenchmarkNativeMatch4(b *testing.B) {
	const lists = 4
	for lg := 8; lg <= 16; lg += 2 {
		n := 1 << lg
		ls := make([]*list.List, lists)
		for i := range ls {
			ls[i] = list.RandomList(n, int64(i))
		}
		wsp := ws.New()
		m := pram.New(8, pram.WithExec(pram.Native), pram.WithWorkers(1), pram.WithWorkspace(wsp))
		r, err := NewNativeRunner(m, 3)
		if err != nil {
			b.Fatal(err)
		}
		var res Result
		for _, impl := range []string{"kernel", "t1"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, impl), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					l := ls[i%lists]
					if impl == "t1" {
						Sequential(l)
						continue
					}
					wsp.Reset()
					m.Reset()
					if err := r.Run(l, &res); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/node")
			})
		}
		m.Close()
	}
}

// TestNativeRunnerMatchesRunner checks the native kernel against the
// simulated Runner, which runs the paper's literal walks: the same
// matching and the same cover flags, for Run at i = 1–4 and for
// Schedule on a two-application partition and on address labels at
// K = max(n, 6), on teams of 1, 2 and 4 parties. The sizes straddle the
// column edges, and every generator runs at each of them; the largest
// size runs on random lists only.
func TestNativeRunnerMatchesRunner(t *testing.T) {
	gens := []struct {
		name string
		make func(n int) *list.List
	}{
		{"random", func(n int) *list.List { return list.RandomList(n, int64(n)) }},
		{"sequential", list.SequentialList},
		{"reversed", list.ReversedList},
		{"zigzag", list.ZigZagList},
		{"blocked", func(n int) *list.List { return list.BlockedList(n, 16, int64(n)) }},
	}
	ref := pram.New(8, pram.WithWorkspace(ws.New()))
	defer ref.Close()
	for _, parties := range []int{1, 2, 4} {
		m := pram.New(8, pram.WithExec(pram.Native), pram.WithWorkers(parties), pram.WithWorkspace(ws.New()))
		defer m.Close()
		for _, g := range gens {
			for _, n := range []int{2, 3, 5, 6, 7, 13, 64, 257, 1000, 10007} {
				if n > 1000 && g.name != "random" {
					continue
				}
				l := g.make(n)
				check := func(what string, got, want *Result, used, wantUsed []bool) {
					t.Helper()
					if !slices.Equal(got.In, want.In) || got.Size != want.Size || got.Sets != want.Sets {
						t.Fatalf("parties=%d %s n=%d %s: matching differs from Runner's", parties, g.name, n, what)
					}
					if !slices.Equal(used, wantUsed) {
						t.Fatalf("parties=%d %s n=%d %s: cover flags differ from Runner's", parties, g.name, n, what)
					}
				}
				for i := 1; i <= 4; i++ {
					m.Workspace().Reset()
					ref.Workspace().Reset()
					nr, err := NewNativeRunner(m, i)
					if err != nil {
						t.Fatal(err)
					}
					rr, err := NewRunner(ref, i)
					if err != nil {
						t.Fatal(err)
					}
					var got, want Result
					if err := nr.Run(l, &got); err != nil {
						t.Fatal(err)
					}
					if err := rr.Run(l, &want); err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("Run i=%d", i), &got, &want, nr.Used(), rr.used)
				}
				addr := make([]int, n)
				for v := range addr {
					addr[v] = v
				}
				part, K := PartitionIterated(ref, l, nil, 2)
				for _, in := range []struct {
					lab []int
					K   int
				}{{part, K}, {addr, max(n, 6)}} {
					m.Workspace().Reset()
					nr, _ := NewNativeRunner(m, 3)
					var got, want Result
					if err := nr.Schedule(l, in.lab, in.K, &got); err != nil {
						t.Fatal(err)
					}
					rr := newRunner(ref, Match4Config{})
					rr.finish(l, in.lab, in.K, 0, 0, &want)
					check(fmt.Sprintf("Schedule K=%d", in.K), &got, &want, nr.Used(), rr.used)
				}
			}
		}
	}
}
