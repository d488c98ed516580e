package harness

import (
	"context"
	"fmt"
	"runtime"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/plan"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/verify"
)

// runE20 measures sharded execution: one rank request fanned out across
// K engine shards (EnginePool.ShardedDo), swept over list size, fan-out
// and pointer structure. Every cell's stitched output is checked
// bit-identical against the whole-request path before it prints — the
// experiment cannot report a cell that broke the equivalence contract.
//
// Signals per cell:
//
//   - segments: the reduced inter-shard list's length. The contraction
//     is exact, so segments = boundary crossings + 1 always; the
//     crossings column makes the identity visible rather than assumed.
//   - exchange: the plan's data-movement volume, 32 B per segment
//     (24 B gathered record + 8 B scattered offset) — the PEM-style
//     cost the recipe is supposed to minimise.
//   - exchange/32n: that volume over the naive bound of shipping every
//     node once. Random lists sit near 1 − 1/K (nearly every pointer
//     crosses a shard cut); sequential lists collapse to K segments
//     and blocked lists to roughly n/64 — locality in the pointer
//     structure, not in the algorithm, is what shrinks the exchange.
//   - imbalance: slowest contract shard over the mean (1.0 = even).
//
// On a 1-CPU host the K shards time-slice one core, so wall-clock
// speedup is not a signal here; exchange volume, segments and the
// imbalance spread are host-independent.
func runE20(cfg Config) ([]*Table, error) {
	sizes := []int{1 << 12, 1 << 14, 1 << 16}
	if cfg.Quick {
		sizes = []int{1 << 10, 1 << 12}
	}
	fanouts := []int{1, 2, 4, 8}
	gens := []string{"random", "sequential", "blocked"}

	pool := engine.NewPool(engine.PoolConfig{
		Engines:    4,
		QueueDepth: 8,
		Engine:     engine.Config{Processors: 256, Exec: cfg.exec(pram.Sequential)},
	})
	defer pool.Close()
	ctx := context.Background()

	t := &Table{
		Title: fmt.Sprintf("E20 — sharded execution: exchange volume and balance across list size × fan-out, 4 engines, GOMAXPROCS = %d",
			runtime.GOMAXPROCS(0)),
		Note: "every cell is verified bit-identical against the whole-request path before printing; " +
			"segments = shard-boundary crossings + 1 exactly (the contraction is exact, not a bound), " +
			"and exchange = 32 B per segment, so exchange/32n < 1 is the recipe's win over shipping every node",
		Header: []string{"generator", "n", "K", "segments", "crossings+1", "exchange", "exchange/32n", "imbalance"},
	}

	for _, gn := range gens {
		var gen list.Generator
		for _, g := range list.Generators() {
			if g.Name == gn {
				gen = g
			}
		}
		for _, n := range sizes {
			l := gen.Make(n, cfg.Seed)
			req := engine.Request{Op: engine.OpRank, List: l}
			want, err := pool.Do(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("E20 %s n=%d whole-request control: %w", gn, n, err)
			}
			for _, k := range fanouts {
				res, err := pool.ShardedDo(ctx, req, k)
				if err != nil {
					return nil, fmt.Errorf("E20 %s n=%d K=%d: %w", gn, n, k, err)
				}
				if err := verify.Stitched(res.Ranks, want.Ranks); err != nil {
					return nil, fmt.Errorf("E20 %s n=%d K=%d: %w", gn, n, k, err)
				}
				if cfg.Verify {
					if err := verify.Ranks(l, res.Ranks); err != nil {
						return nil, fmt.Errorf("E20 %s n=%d K=%d: %w", gn, n, k, err)
					}
				}
				sh := res.Sharding
				kEff := sh.Shards
				bounds := rank.ShardBounds(n, kEff)
				crossings := 0
				for v := 0; v < n; v++ {
					x := l.Next[v]
					if x != list.Nil && shardOfE20(bounds, v) != shardOfE20(bounds, x) {
						crossings++
					}
				}
				if kEff > 1 && sh.Segments != crossings+1 {
					return nil, fmt.Errorf("E20 %s n=%d K=%d: %d segments, want crossings+1 = %d",
						gn, n, k, sh.Segments, crossings+1)
				}
				t.Add(
					gn,
					fmt.Sprintf("%d", n),
					fmt.Sprintf("%d", kEff),
					fmt.Sprintf("%d", sh.Segments),
					fmt.Sprintf("%d", crossings+1),
					fmt.Sprintf("%d B", sh.ExchangeBytes),
					fmt.Sprintf("%.4f", float64(sh.ExchangeBytes)/float64(plan.ExchangeBytes(n))),
					fmt.Sprintf("%.3f", sh.Imbalance),
				)
			}
		}
	}
	return []*Table{t}, nil
}

// shardOfE20 locates v's shard in the bounds split (linear: K ≤ 8).
func shardOfE20(bounds []int, v int) int {
	for k := 0; k+1 < len(bounds); k++ {
		if v >= bounds[k] && v < bounds[k+1] {
			return k
		}
	}
	return -1
}
