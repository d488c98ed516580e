package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"

	"parlist/internal/bits"
	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/load"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/shuffle"
)

// runE13 measures the Remark's story on small universes: the fold
// colouring f^(k) of the shuffle graph versus a DSATUR colouring, the
// exact chromatic number, and the log^(k-1) u lower bound.
func runE13(cfg Config) ([]*Table, error) {
	t := &Table{
		Title: "E13 — shuffle-graph colourings (the Remark, [8,10])",
		Note: "fold = colours used by f^(k) (Lemma 2 ≤ ub); χ = exact chromatic number " +
			"(branch-and-bound; '≤x' = budget exhausted, upper bound shown); lb = log^(k-1) u",
		Header: []string{"u", "k", "vertices", "fold", "fold-ub", "dsatur", "chi", "lb"},
	}
	e := partition.NewEvaluator(partition.MSB, 10)
	cfgs := [][2]int{{4, 2}, {8, 2}, {16, 2}, {32, 2}, {4, 3}, {8, 3}, {4, 4}}
	if cfg.Quick {
		cfgs = [][2]int{{4, 2}, {8, 2}, {4, 3}}
	}
	budget := 1 << 22
	if cfg.Quick {
		budget = 1 << 18
	}
	for _, uc := range cfgs {
		u, k := uc[0], uc[1]
		g, err := shuffle.New(u, k)
		if err != nil {
			return nil, err
		}
		fcol, fcnt := g.ColoringFromEvaluator(e)
		if _, err := g.VerifyColoring(fcol); err != nil {
			return nil, err
		}
		_, gcnt := g.GreedyColoring()
		chi, exact := g.ChromaticNumber(budget)
		if !exact {
			// Budget exhausted: report the best proper colouring seen as
			// an upper bound.
			if fcnt < chi {
				chi = fcnt
			}
			if gcnt < chi {
				chi = gcnt
			}
		}
		chiS := fmt.Sprint(chi)
		if !exact {
			chiS = "≤" + chiS
		}
		t.Add(u, k, g.Vertices(), fcnt, shuffle.FoldUpperBound(u, k), gcnt, chiS, shuffle.LowerBound(u, k))
	}
	return []*Table{t}, nil
}

// runE15 consolidates the design-choice ablations DESIGN.md calls out
// into one table: admission mode, access discipline, bit variant,
// evaluator realization and table-build models.
func runE15(cfg Config) ([]*Table, error) {
	n := 1 << 16
	if cfg.Quick {
		n = 1 << 13
	}
	l := list.RandomList(n, cfg.Seed)
	p := 256
	t := &Table{
		Title:  fmt.Sprintf("E15 — ablations, n = %d, p = %d", n, p),
		Note:   "each pair varies one design choice; steps are total simulated PRAM time",
		Header: []string{"axis", "choice A", "steps A", "choice B", "steps B", "B/A"},
	}
	add := func(axis, na string, ta int64, nb string, tb int64) {
		t.Add(axis, na, ta, nb, tb, float64(tb)/float64(ta))
	}

	// Admission mode inside Match4.
	mA := pram.New(p)
	if _, err := matching.Match4(mA, l, nil, matching.Match4Config{I: 3}); err != nil {
		return nil, err
	}
	mB := pram.New(p)
	if _, err := matching.Match4(mB, l, nil, matching.Match4Config{I: 3, ViaColoring: true}); err != nil {
		return nil, err
	}
	add("match4 admission", "direct", mA.Time(), "via-coloring (paper-literal)", mB.Time())

	// Access discipline of the partition step.
	e := evalFor(n)
	mA = pram.New(p)
	partition.IterateWith(mA, l, e, 3, partition.DisciplineEREW)
	mB = pram.New(p)
	partition.IterateWith(mB, l, e, 3, partition.DisciplineCREW)
	add("partition discipline", "EREW (aux copy)", mA.Time(), "CREW (direct read)", mB.Time())

	// MSB vs LSB variant (identical costs; set counts may differ).
	mA = pram.New(p)
	labM := partition.Iterate(mA, l, partition.NewEvaluator(partition.MSB, 24), 3)
	mB = pram.New(p)
	labL := partition.Iterate(mB, l, partition.NewEvaluator(partition.LSB, 24), 3)
	t.Add("f bit variant (sets)", "msb", partition.DistinctCount(l, labM), "lsb", partition.DistinctCount(l, labL),
		fmt.Sprintf("%d/%d", partition.DistinctCount(l, labL), partition.DistinctCount(l, labM)))

	// Evaluator realization: machine instruction vs appendix tables
	// (tables pay the per-processor replication charge).
	mA = pram.New(p)
	matching.Match1(mA, l, partition.NewEvaluator(partition.LSB, 17))
	mB = pram.New(p)
	matching.Match1(mB, l, partition.NewTableEvaluator(partition.LSB, 17))
	add("f evaluator", "instruction", mA.Time(), "lookup tables + EREW copies", mB.Time())

	// Match3 table-build charging models.
	mA = pram.New(p)
	if _, err := matching.Match3(mA, l, nil, matching.Match3Config{CRCWBuild: true}); err != nil {
		return nil, err
	}
	mB = pram.New(p)
	if _, err := matching.Match3(mB, l, nil, matching.Match3Config{EREWCopies: true}); err != nil {
		return nil, err
	}
	add("match3 table build", "CRCW O(1)", mA.Time(), "EREW build + copies", mB.Time())

	return []*Table{t}, nil
}

// runE14 quantifies §4's open problem: can the pointers be partitioned
// into G(n) matching sets in O(G(n)) time using n/G(n) processors? The
// best known (Lemma 3 with i ≈ G(n)) needs p = n to run in O(G(n))
// time; at p = n/G(n) it takes Θ(G(n)²) steps — the gap the paper
// leaves open.
func runE14(cfg Config) ([]*Table, error) {
	t := &Table{
		Title: "E14 — §4's open problem: constant-range partition at reduced processor counts",
		Note: "time to reach the constant label range via Lemma 3; conjectured (open): O(G(n)) at p = n/G(n); " +
			"measured gap ≈ G(n) (each of the Θ(G) iterations costs Θ(G) at that p)",
		Header: []string{"n", "G(n)", "iters", "time@p=n", "time@p=n/G", "gap", "sets"},
	}
	ns := []int{1 << 12, 1 << 16, 1 << 20}
	if cfg.Quick {
		ns = []int{1 << 12, 1 << 14}
	}
	for _, n := range ns {
		l := list.RandomList(n, cfg.Seed)
		g := bits.G(n)
		iters := partition.IterationsToRange(n, 6)

		mFull := pram.New(n)
		lab := partition.Iterate(mFull, l, evalFor(n), iters)
		if err := partition.Verify(l, lab); err != nil {
			return nil, err
		}
		sets := partition.DistinctCount(l, lab)

		pg := n / g
		if pg < 1 {
			pg = 1
		}
		mRed := pram.New(pg)
		partition.Iterate(mRed, l, evalFor(n), iters)

		gap := float64(mRed.Time()) / float64(mFull.Time())
		t.Add(n, g, iters, mFull.Time(), mRed.Time(), gap, sets)
	}
	return []*Table{t}, nil
}

// runE16 sweeps the serving layer: an EnginePool under closed-loop load
// across an engines × concurrency grid at fixed n. Each cell reports
// achieved request rate and the queue-wait / service split from
// PoolStats, and every pool result is checked bit-identical against a
// reference single-engine run of the same (seed, n, p) request.
func runE16(cfg Config) ([]*Table, error) {
	n, requests := 1<<14, 96
	if cfg.Quick {
		n, requests = 1<<11, 24
	}
	l := list.RandomList(n, cfg.Seed)
	ctx := context.Background()

	// Reference result from a dedicated single engine (same executor as
	// the pool's engines, so the Stats.Time comparison is apples-to-apples
	// under a matchbench -exec override too).
	ref := engine.New(engine.Config{Processors: 256, Exec: cfg.exec(pram.Sequential)})
	want, err := ref.Run(ctx, engine.Request{List: l})
	if err != nil {
		ref.Close()
		return nil, err
	}
	ref.Close()

	t := &Table{
		Title: fmt.Sprintf("E16 — pool scaling, n = %d, p = 256, %d requests per cell, GOMAXPROCS = %d",
			n, requests, runtime.GOMAXPROCS(0)),
		Note:   "req/s scales with engines only when real cores back them; on a 1-CPU host queue-wait is the signal (CHANGES.md PR 1 note)",
		Header: []string{"engines", "conc", "req/s", "avg-queue-wait-us", "avg-service-us", "spilled-engines", "identical"},
	}
	for _, engines := range []int{1, 2, 4} {
		for _, conc := range []int{1, 4, 16} {
			p := engine.NewPool(engine.PoolConfig{
				Engines:    engines,
				QueueDepth: 2 * conc,
				Engine:     engine.Config{Processors: 256, Exec: cfg.exec(pram.Sequential)},
			})
			var differs atomic.Bool
			s := load.Summarize(load.Closed(requests, conc, func(int) error {
				res, err := p.Do(ctx, engine.Request{List: l})
				if err != nil {
					return err
				}
				same := len(res.In) == len(want.In) && res.Stats.Time == want.Stats.Time
				for v := 0; same && v < len(want.In); v++ {
					same = res.In[v] == want.In[v]
				}
				if !same {
					differs.Store(true)
				}
				return nil
			}))
			if s.Err != nil {
				p.Close()
				return nil, s.Err
			}
			st := p.Stats()
			p.Close()
			busy := 0
			for _, pe := range st.PerEngine {
				if pe.Served > 0 {
					busy++
				}
			}
			served := st.Requests
			if served == 0 {
				served = 1
			}
			t.Add(engines, conc, s.Rate,
				float64(st.QueueWait.Microseconds())/float64(served),
				float64(st.Service.Microseconds())/float64(served),
				busy, !differs.Load())
		}
	}
	return []*Table{t}, nil
}
