// Benchmarks regenerating every experiment in EXPERIMENTS.md (one bench
// per table/figure-equivalent; the paper is theory-only, so each lemma
// and theorem maps to a bench — see DESIGN.md's per-experiment index).
//
// Each bench reports, in addition to Go wall-clock, the simulated PRAM
// step count (pram-steps) and, where meaningful, the work and derived
// efficiency, so `go test -bench=.` reproduces the tables' shape.
package parlist

import (
	"context"
	"fmt"
	"testing"
	"time"

	"parlist/internal/bits"
	"parlist/internal/color"
	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/shuffle"
	"parlist/internal/sortint"
	"parlist/internal/table"
)

const benchSeed = 1

// E1 — Lemma 1: one application of f.
func BenchmarkPartitionF(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := list.RandomList(n, benchSeed)
			e := partition.NewEvaluator(partition.MSB, 24)
			var sets int
			for i := 0; i < b.N; i++ {
				m := pram.New(256)
				lab := partition.Iterate(m, l, e, 1)
				sets = partition.DistinctCount(l, lab)
			}
			b.ReportMetric(float64(sets), "sets")
			b.ReportMetric(float64(2*bits.CeilLog2(n)), "bound")
		})
	}
}

// E2 — Lemma 2: iterated applications.
func BenchmarkPartitionIterated(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	e := partition.NewEvaluator(partition.MSB, 24)
	for _, k := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var sets int
			for i := 0; i < b.N; i++ {
				m := pram.New(256)
				lab := partition.Iterate(m, l, e, k)
				sets = partition.DistinctCount(l, lab)
			}
			b.ReportMetric(float64(sets), "sets")
			b.ReportMetric(float64(partition.RangeAfter(n, k)), "range-bound")
		})
	}
}

// E3 — Lemma 3: Match1.
func BenchmarkMatch1(b *testing.B) {
	benchAlgo(b, func(m *pram.Machine, l *list.List) (*matching.Result, error) {
		return matching.Match1(m, l, nil), nil
	})
}

// E4 — Lemma 4: Match2.
func BenchmarkMatch2(b *testing.B) {
	benchAlgo(b, func(m *pram.Machine, l *list.List) (*matching.Result, error) {
		return matching.Match2(m, l, nil), nil
	})
}

// E5 — Lemma 5: Match3 (table lookup, CRCW table build).
func BenchmarkMatch3(b *testing.B) {
	benchAlgo(b, func(m *pram.Machine, l *list.List) (*matching.Result, error) {
		return matching.Match3(m, l, nil, matching.Match3Config{CRCWBuild: true})
	})
}

// E7 — Theorems 1–2: Match4 across i.
func BenchmarkMatch4(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	for _, i := range []int{1, 2, 3, 4} {
		for _, p := range []int{256, n / 8} {
			b.Run(fmt.Sprintf("i=%d/p=%d", i, p), func(b *testing.B) {
				var st pram.Stats
				for it := 0; it < b.N; it++ {
					m := pram.New(p)
					r, err := matching.Match4(m, l, nil, matching.Match4Config{I: i})
					if err != nil {
						b.Fatal(err)
					}
					st = r.Stats
				}
				b.ReportMetric(float64(st.Time), "pram-steps")
				b.ReportMetric(st.Efficiency(int64(n)), "efficiency")
			})
		}
	}
}

// E7b — ablation: Match4 step-1 iterated (Lemma 3) vs table (Lemma 5).
func BenchmarkMatch4PartitionRoute(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	cfgs := map[string]matching.Match4Config{
		"iterated": {I: 5},
		"table":    {I: 5, UseTable: true, CRCWBuild: true},
	}
	for name, cfg := range cfgs {
		b.Run(name, func(b *testing.B) {
			var st pram.Stats
			for it := 0; it < b.N; it++ {
				m := pram.New(1024)
				r, err := matching.Match4(m, l, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				st = r.Stats
			}
			b.ReportMetric(float64(st.Time), "pram-steps")
		})
	}
}

// Ablation: direct greedy admission vs the paper-literal 3-colouring
// pipeline inside Match4.
func BenchmarkMatch4AdmissionMode(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	for _, via := range []bool{false, true} {
		name := "direct"
		if via {
			name = "via-coloring"
		}
		b.Run(name, func(b *testing.B) {
			var st pram.Stats
			for it := 0; it < b.N; it++ {
				m := pram.New(1024)
				r, err := matching.Match4(m, l, nil, matching.Match4Config{I: 3, ViaColoring: via})
				if err != nil {
					b.Fatal(err)
				}
				st = r.Stats
			}
			b.ReportMetric(float64(st.Time), "pram-steps")
		})
	}
}

// Ablation: MSB vs LSB matching partition function.
func BenchmarkPartitionVariant(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	for _, v := range []partition.Variant{partition.MSB, partition.LSB} {
		b.Run(v.String(), func(b *testing.B) {
			e := partition.NewEvaluator(v, 24)
			var sets int
			for i := 0; i < b.N; i++ {
				m := pram.New(256)
				lab := partition.Iterate(m, l, e, 3)
				sets = partition.DistinctCount(l, lab)
			}
			b.ReportMetric(float64(sets), "sets")
		})
	}
}

// Ablation: EREW (aux-copy) vs CREW (direct-read) partition steps — the
// 2× round cost exclusive reads impose.
func BenchmarkPartitionDiscipline(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	e := partition.NewEvaluator(partition.MSB, 24)
	for _, d := range []partition.Discipline{partition.DisciplineEREW, partition.DisciplineCREW} {
		b.Run(d.String(), func(b *testing.B) {
			var st int64
			for i := 0; i < b.N; i++ {
				m := pram.New(256)
				partition.IterateWith(m, l, e, 3, d)
				st = m.Time()
			}
			b.ReportMetric(float64(st), "pram-steps")
		})
	}
}

// Ablation: column-major vs row-major 2-D layout in Match4 (identical
// simulated steps; wall-clock differs with cache behaviour).
func BenchmarkMatch4Layout(b *testing.B) {
	n := 1 << 20
	l := list.RandomList(n, benchSeed)
	for _, rm := range []bool{false, true} {
		name := "column-major"
		if rm {
			name = "row-major"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := pram.New(1024)
				if _, err := matching.Match4(m, l, nil, matching.Match4Config{I: 3, RowMajor: rm}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n * 8))
		})
	}
}

// E13 — shuffle-graph colouring machinery.
func BenchmarkShuffleGraph(b *testing.B) {
	b.Run("build-u16k2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := shuffle.New(16, 2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dsatur-u16k2", func(b *testing.B) {
		g, err := shuffle.New(16, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.GreedyColoring()
		}
	})
}

// E8 — the randomized baseline for the cross-algorithm table.
func BenchmarkRandomizedMatching(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	var rounds int
	for i := 0; i < b.N; i++ {
		m := pram.New(256)
		_, rounds = matching.Randomized(m, l, int64(i))
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// E8 — the sequential baseline T1.
func BenchmarkSequentialMatching(b *testing.B) {
	n := 1 << 20
	l := list.RandomList(n, benchSeed)
	for i := 0; i < b.N; i++ {
		matching.Sequential(l)
	}
}

// E9 — applications.
func BenchmarkThreeColor(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	var st int64
	for i := 0; i < b.N; i++ {
		m := pram.New(256)
		color.ThreeColor(m, l, nil)
		st = m.Time()
	}
	b.ReportMetric(float64(st), "pram-steps")
}

func BenchmarkMIS(b *testing.B) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	var st int64
	for i := 0; i < b.N; i++ {
		m := pram.New(256)
		if _, err := color.MISViaMatching(m, l, matching.Match4Config{I: 3}); err != nil {
			b.Fatal(err)
		}
		st = m.Time()
	}
	b.ReportMetric(float64(st), "pram-steps")
}

// E10 — list ranking.
func BenchmarkRankWyllie(b *testing.B) {
	n := 1 << 16
	l := list.RandomList(n, benchSeed)
	var work int64
	for i := 0; i < b.N; i++ {
		m := pram.New(256)
		rank.WyllieRank(m, l)
		work = m.Work()
	}
	b.ReportMetric(float64(work)/float64(n), "work-per-node")
}

func BenchmarkRankContraction(b *testing.B) {
	n := 1 << 16
	l := list.RandomList(n, benchSeed)
	var work int64
	for i := 0; i < b.N; i++ {
		m := pram.New(256)
		if _, _, err := rank.Rank(m, l, nil); err != nil {
			b.Fatal(err)
		}
		work = m.Work()
	}
	b.ReportMetric(float64(work)/float64(n), "work-per-node")
}

// E10 — the randomized-contraction baseline [13].
func BenchmarkRankRandomMate(b *testing.B) {
	n := 1 << 16
	l := list.RandomList(n, benchSeed)
	var rounds int
	for i := 0; i < b.N; i++ {
		m := pram.New(256)
		_, rounds = rank.RandomMateRank(m, l, int64(i))
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// E10c — the load-balanced splicing scheme ([1]-style).
func BenchmarkRankLoadBalanced(b *testing.B) {
	n := 1 << 16
	l := list.RandomList(n, benchSeed)
	var work int64
	for i := 0; i < b.N; i++ {
		m := pram.New(256)
		if _, _, err := rank.LoadBalancedRank(m, l); err != nil {
			b.Fatal(err)
		}
		work = m.Work()
	}
	b.ReportMetric(float64(work)/float64(n), "work-per-node")
}

// E11 — executor wall-clock.
func BenchmarkWallClockSequentialExec(b *testing.B) {
	benchWallClock(b, pram.Sequential)
}

func BenchmarkWallClockPooledExec(b *testing.B) {
	benchWallClock(b, pram.Pooled)
}

func benchWallClock(b *testing.B, exec pram.Exec) {
	n := 1 << 20
	l := list.RandomList(n, benchSeed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := pram.New(1024, pram.WithExec(exec))
		if _, err := matching.Match4(m, l, nil, matching.Match4Config{I: 3}); err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
	b.SetBytes(int64(n * 8))
}

// BenchmarkExecutorOverhead measures the pure per-round dispatch cost —
// an empty ParFor body over n = 1<<18 items — for the persistent pool
// against inline execution, across simulated processor counts.
// Workers are pinned to 4 so the real parallel dispatch path is
// exercised even on few-core hosts (with the GOMAXPROCS default a
// single-core machine would silently fall back to inline execution).
// The machine is reused across iterations, so the pooled numbers are
// steady-state: no goroutine spawns and ~0 allocs per round. The sequential rows are the inline baseline: subtracting
// them isolates pure dispatch overhead (the body itself — n indirect
// calls — costs the same everywhere when cores are scarce).
func BenchmarkExecutorOverhead(b *testing.B) {
	n := 1 << 18
	for _, exec := range []pram.Exec{pram.Sequential, pram.Pooled} {
		for _, p := range []int{4, 64, 1024} {
			b.Run(fmt.Sprintf("%s/p=%d", exec, p), func(b *testing.B) {
				m := pram.New(p, pram.WithExec(exec), pram.WithWorkers(4))
				defer m.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.ParFor(n, func(int) {})
				}
			})
		}
	}
}

// BenchmarkFusedRounds measures a group of 64 dependent empty rounds
// dispatched one-by-one vs fused through Machine.Batch (one pool wake +
// atomic barriers instead of 64 wake/sleep pairs).
func BenchmarkFusedRounds(b *testing.B) {
	n := 1 << 18
	const group = 64
	for _, fused := range []bool{false, true} {
		name := "unfused"
		if fused {
			name = "fused"
		}
		b.Run(name, func(b *testing.B) {
			m := pram.New(1024, pram.WithExec(pram.Pooled), pram.WithWorkers(4))
			defer m.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if fused {
					m.Batch(func() {
						for r := 0; r < group; r++ {
							m.ParFor(n, func(int) {})
						}
					})
				} else {
					for r := 0; r < group; r++ {
						m.ParFor(n, func(int) {})
					}
				}
			}
		})
	}
}

// E12 — appendix evaluations.
func BenchmarkAppendix(b *testing.B) {
	u := bits.NewUnaryTable(1 << 20)
	rev := bits.NewReverseTable(20)
	b.Run("EvalLog-table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bits.EvalLog(1<<19+i%1000+1, u, rev)
		}
	})
	b.Run("EvalG-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bits.EvalGParallel(1 << 20)
		}
	})
	b.Run("table-build", func(b *testing.B) {
		e := partition.NewEvaluator(partition.MSB, 20)
		p, err := table.Plan(1<<20, 5, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			table.Build(e, p)
		}
	})
}

// E4's substrate — the parallel integer sort on its own.
func BenchmarkParallelSort(b *testing.B) {
	n, K := 1<<18, 16
	keys := make([]int, n)
	for i := range keys {
		keys[i] = (i * 2654435761) % K
	}
	var st int64
	for i := 0; i < b.N; i++ {
		m := pram.New(256)
		sortint.ParallelByKey(m, keys, K)
		st = m.Time()
	}
	b.ReportMetric(float64(st), "pram-steps")
}

// benchAlgo sweeps p for one matching algorithm at n = 2^18,
// reporting the PRAM step count of the last run per p.
func benchAlgo(b *testing.B, run func(m *pram.Machine, l *list.List) (*matching.Result, error)) {
	n := 1 << 18
	l := list.RandomList(n, benchSeed)
	for _, p := range []int{1, 256, n / 8, n} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var st pram.Stats
			for i := 0; i < b.N; i++ {
				m := pram.New(p)
				r, err := run(m, l)
				if err != nil {
					b.Fatal(err)
				}
				st = r.Stats
			}
			b.ReportMetric(float64(st.Time), "pram-steps")
			b.ReportMetric(st.Efficiency(int64(n)), "efficiency")
		})
	}
}

// E-engine — the session layer: steady-state cost of a warm engine at
// fixed n. The "result=reused" rows are the headline number for the
// zero-alloc request path (RunInto with a recycled Result must report
// 0 allocs/op from the second request on); the "result=fresh" rows show
// what the one-line public façade costs on top (Result + output copy).
func BenchmarkEngineReuse(b *testing.B) {
	ctx := context.Background()
	for _, n := range []int{1 << 12, 1 << 16} {
		l := RandomList(n, benchSeed)
		b.Run(fmt.Sprintf("n=%d/result=reused", n), func(b *testing.B) {
			eng := engine.New(engine.Config{Processors: 512})
			defer eng.Close()
			req := engine.Request{List: l}
			var res engine.Result
			if err := eng.RunInto(ctx, req, &res); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.RunInto(ctx, req, &res); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Stats.Time), "pram-steps")
		})
		b.Run(fmt.Sprintf("n=%d/result=fresh", n), func(b *testing.B) {
			eng := NewEngine(EngineConfig{Processors: 512})
			defer eng.Close()
			if _, err := eng.MaximalMatching(l, Options{}); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.MaximalMatching(l, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPoolThroughput drives an EnginePool closed-loop with one
// submitting goroutine per GOMAXPROCS slot and reports requests per
// second at fixed n for 1, 2 and 4 engines. On a multi-core host the
// req/s figure scales with the engine count; on the 1-CPU bench host
// wall-clock scaling is unobservable, so allocs/op and queue-wait are
// the stable metrics (see CHANGES.md PR 1 note).
func BenchmarkPoolThroughput(b *testing.B) {
	ctx := context.Background()
	const n = 1 << 12
	l := RandomList(n, benchSeed)
	for _, engines := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("pool_engines=%d", engines), func(b *testing.B) {
			p := engine.NewPool(engine.PoolConfig{
				Engines:    engines,
				QueueDepth: 64,
				Engine:     engine.Config{Processors: 512},
			})
			defer p.Close()
			req := engine.Request{List: l}
			if _, err := p.Do(ctx, req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := p.Do(ctx, req); err != nil {
						b.Fatal(err)
					}
				}
			})
			elapsed := time.Since(start)
			b.StopTimer()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
			}
			st := p.Stats()
			if st.Requests > 0 {
				b.ReportMetric(float64(st.QueueWait.Nanoseconds())/float64(st.Requests), "queue-wait-ns")
			}
		})
	}
}
