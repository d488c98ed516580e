package harness

import (
	"fmt"
	"runtime"
	"time"

	"parlist/internal/bits"
	"parlist/internal/color"
	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/pram"
	"parlist/internal/rank"
)

// runE7 traces the headline curve: Match4 step counts across p for
// several i, with the optimal-processor threshold p* = n/log^(i) n.
func runE7(cfg Config) ([]*Table, error) {
	n := 1 << 18
	if cfg.Quick {
		n = 1 << 14
	}
	l := list.RandomList(n, cfg.Seed)
	var tables []*Table
	for _, i := range []int{1, 2, 3, 4} {
		li := bits.LogIter(n, i)
		if li < 1 {
			li = 1
		}
		pstar := n / li
		t := &Table{
			Title:  fmt.Sprintf("E7 — Match4 curve, n = %d, i = %d (log^(i) n = %d, p* = n/log^(i) n ≈ %d)", n, i, li, pstar),
			Note:   "predicted = i·n/p + log^(i) n (iterated-partition route); optimal while p ≤ p*",
			Header: []string{"p", "time", "predicted", "time/pred", "efficiency", "p≤p*"},
		}
		for _, p := range procSweep(n, cfg) {
			m := pram.New(p)
			r, err := matching.Match4(m, l, nil, matching.Match4Config{I: i})
			if err != nil {
				return nil, err
			}
			if err := matching.Verify(l, r.In); err != nil {
				return nil, err
			}
			if err := cfg.checkMatching(l, r.In); err != nil {
				return nil, err
			}
			pred := int64(i)*int64(n)/int64(p) + int64(r.Sets)
			t.Add(p, r.Stats.Time, pred, ratio(r.Stats.Time, pred), r.Stats.Efficiency(int64(n)), fmt.Sprint(p <= pstar))
		}
		tables = append(tables, t)
	}

	// The table route ablation (Lemma 5 partition inside Match4).
	ta := &Table{
		Title:  fmt.Sprintf("E7b — Match4 step-1 ablation at n = %d: iterated (Lemma 3) vs table (Lemma 5)", n),
		Note:   "table route charged with O(1) CRCW build; i = 5",
		Header: []string{"p", "iterated-time", "table-time", "table-size"},
	}
	for _, p := range procSweep(n, cfg) {
		m1 := pram.New(p)
		r1, err := matching.Match4(m1, l, nil, matching.Match4Config{I: 5})
		if err != nil {
			return nil, err
		}
		m2 := pram.New(p)
		r2, err := matching.Match4(m2, l, nil, matching.Match4Config{I: 5, UseTable: true, CRCWBuild: true})
		if err != nil {
			return nil, err
		}
		if err := matching.Verify(l, r2.In); err != nil {
			return nil, err
		}
		if err := cfg.checkMatching(l, r2.In); err != nil {
			return nil, err
		}
		ta.Add(p, r1.Stats.Time, r2.Stats.Time, r2.TableSize)
	}
	return append(tables, ta), nil
}

// runE8 compares all algorithms across p at one n: who wins where.
func runE8(cfg Config) ([]*Table, error) {
	n := 1 << 18
	if cfg.Quick {
		n = 1 << 14
	}
	l := list.RandomList(n, cfg.Seed)
	t := &Table{
		Title:  fmt.Sprintf("E8 — step counts across algorithms, n = %d", n),
		Note:   "Match4 uses i = 3; best per row marked *",
		Header: []string{"p", "match1", "match2", "match3", "match4", "randomized", "best"},
	}
	te := &Table{
		Title:  fmt.Sprintf("E8b — efficiency T1/(p·T) across algorithms, n = %d (T1 = n)", n),
		Note:   "Θ(1) efficiency = optimal; the paper: Match2 optimal to n/log n, Match4 to n/log^(i) n",
		Header: []string{"p", "match1", "match2", "match3", "match4"},
	}
	for _, p := range procSweep(n, cfg) {
		times := make(map[string]int64)
		m := pram.New(p)
		r1 := matching.Match1(m, l, nil)
		times["match1"] = r1.Stats.Time
		m = pram.New(p)
		r2 := matching.Match2(m, l, nil)
		times["match2"] = r2.Stats.Time
		m = pram.New(p)
		r3, err := matching.Match3(m, l, nil, matching.Match3Config{CRCWBuild: true})
		if err != nil {
			return nil, err
		}
		times["match3"] = r3.Stats.Time
		m = pram.New(p)
		r4, err := matching.Match4(m, l, nil, matching.Match4Config{I: 3})
		if err != nil {
			return nil, err
		}
		times["match4"] = r4.Stats.Time
		for _, r := range []*matching.Result{r1, r2, r3, r4} {
			if err := cfg.checkMatching(l, r.In); err != nil {
				return nil, err
			}
		}
		m = pram.New(p)
		_, rounds := matching.Randomized(m, l, cfg.Seed)
		times["randomized"] = m.Time()
		_ = rounds

		best, bestT := "", int64(1)<<62
		for _, name := range []string{"match1", "match2", "match3", "match4"} {
			if times[name] < bestT {
				best, bestT = name, times[name]
			}
		}
		t.Add(p, times["match1"], times["match2"], times["match3"], times["match4"], times["randomized"], best)
		eff := func(tm int64) float64 { return float64(n) / (float64(p) * float64(tm)) }
		te.Add(p, eff(times["match1"]), eff(times["match2"]), eff(times["match3"]), eff(times["match4"]))
	}

	// E8c: the additive floor. At p = n the n/p terms vanish and only
	// the additive terms remain: Match2's grows with log n (the sort),
	// Match4's stays Θ(log^(i) n) = Θ(1) for i ≥ 3 — the separation the
	// paper's optimization buys, measurable as a flat column.
	tf := &Table{
		Title:  "E8c — additive floor: step counts at p = n as n grows",
		Note:   "Match2 column must grow ~ log n; Match4 (i = 3) column must stay flat",
		Header: []string{"n", "log n", "match1", "match2", "match3", "match4"},
	}
	hi := 22
	if cfg.Quick {
		hi = 16
	}
	for _, nn := range pow2s(10, hi, 2) {
		ll := list.RandomList(nn, cfg.Seed)
		m := pram.New(nn)
		r1 := matching.Match1(m, ll, nil)
		m = pram.New(nn)
		r2 := matching.Match2(m, ll, nil)
		m = pram.New(nn)
		r3, err := matching.Match3(m, ll, nil, matching.Match3Config{CRCWBuild: true})
		if err != nil {
			return nil, err
		}
		m = pram.New(nn)
		r4, err := matching.Match4(m, ll, nil, matching.Match4Config{I: 3})
		if err != nil {
			return nil, err
		}
		tf.Add(nn, bits.CeilLog2(nn), r1.Stats.Time, r2.Stats.Time, r3.Stats.Time, r4.Stats.Time)
	}
	return []*Table{t, te, tf}, nil
}

// runE9 exercises the applications over an n sweep.
func runE9(cfg Config) ([]*Table, error) {
	t := &Table{
		Title:  "E9 — 3-colouring and maximal independent set (random lists, p = 256)",
		Note:   "both derived from the matching machinery; a path's MIS holds between 1/3 and 1/2 of the nodes",
		Header: []string{"n", "3col-time", "3col-ok", "mis-size", "mis/n", "mis-ok"},
	}
	hi := 20
	if cfg.Quick {
		hi = 14
	}
	for _, n := range pow2s(10, hi, 2) {
		l := list.RandomList(n, cfg.Seed)
		m := pram.New(256)
		col := color.ThreeColor(m, l, nil)
		colErr := color.VerifyColoring(l, col, 3)
		colOK := "yes"
		if colErr != nil {
			colOK = colErr.Error()
		}
		colTime := m.Time()

		m2 := pram.New(256)
		mis, err := color.MISViaMatching(m2, l, matching.Match4Config{I: 3})
		if err != nil {
			return nil, err
		}
		misErr := color.VerifyMIS(l, mis)
		misOK := "yes"
		if misErr != nil {
			misOK = misErr.Error()
		}
		sz := 0
		for _, b := range mis {
			if b {
				sz++
			}
		}
		t.Add(n, colTime, colOK, sz, float64(sz)/float64(n), misOK)
	}
	return []*Table{t}, nil
}

// runE10 compares Wyllie vs contraction ranking: a p sweep at one n for
// the timing picture, and an n sweep of normalized work showing the
// Θ(n log n) vs Θ(n) separation (Wyllie's work/n column grows with
// log n; contraction's stays flat — their ratio locates the crossover).
func runE10(cfg Config) ([]*Table, error) {
	n := 1 << 16
	if cfg.Quick {
		n = 1 << 13
	}
	l := list.RandomList(n, cfg.Seed)
	pos := l.Position()
	t := &Table{
		Title: fmt.Sprintf("E10 — list ranking time, n = %d", n),
		Note: "Wyllie does Θ(n log n) work; deterministic contraction uses maximal matching (≥1/3 of " +
			"pointers splice per round); randmate is the probabilistic-prefix baseline [13]",
		Header: []string{"p", "wyllie-time", "contract-time", "randmate-time", "rounds", "rm-rounds", "min-shrink"},
	}
	for _, p := range procSweep(n, cfg) {
		mw := pram.New(p)
		w := rank.WyllieRank(mw, l)
		mc := pram.New(p)
		c, st, err := rank.Rank(mc, l, nil)
		if err != nil {
			return nil, err
		}
		mr := pram.New(p)
		rm, rmRounds := rank.RandomMateRank(mr, l, cfg.Seed)
		for v := range c {
			if c[v] != pos[v] || w[v] != pos[v] || rm[v] != pos[v] {
				return nil, fmt.Errorf("E10: rank mismatch at %d", v)
			}
		}
		for _, rk := range [][]int{w, c, rm} {
			if err := cfg.checkRanks(l, rk); err != nil {
				return nil, err
			}
		}
		t.Add(p, mw.Time(), mc.Time(), mr.Time(), st.Rounds, rmRounds, st.MinShrink)
	}

	// E10c: the load-balancing alternative ([1]) — per-processor queues
	// with coin-tossing conflict resolution, avoiding the per-round
	// global compaction entirely.
	tlb := &Table{
		Title:  fmt.Sprintf("E10c — load-balanced splicing ([1]-style) vs matching contraction, n = %d", n),
		Note:   "queue scheme precomputes one 3-colouring, then splices queue heads; no global sort/compaction per round",
		Header: []string{"p", "contract-time", "loadbal-time", "contract-work", "loadbal-work", "lb-rounds", "max-chain"},
	}
	for _, p := range procSweep(n, cfg) {
		mc := pram.New(p)
		if _, _, err := rank.Rank(mc, l, nil); err != nil {
			return nil, err
		}
		mlb := pram.New(p)
		rk, st, err := rank.LoadBalancedRank(mlb, l)
		if err != nil {
			return nil, err
		}
		for v := range rk {
			if rk[v] != pos[v] {
				return nil, fmt.Errorf("E10c: rank mismatch at %d", v)
			}
		}
		if err := cfg.checkRanks(l, rk); err != nil {
			return nil, err
		}
		tlb.Add(p, mc.Time(), mlb.Time(), mc.Work(), mlb.Work(), st.Rounds, st.MaxChain)
	}

	tw := &Table{
		Title: "E10b — normalized work (ops per node) as n grows, p = 256",
		Note: "Wyllie's work/n grows ~2·log n (non-optimal); the optimal schemes stay flat. " +
			"The load-balanced scheme's flat column crosses below Wyllie's growing one — the optimality crossover made visible.",
		Header: []string{"n", "log n", "wyllie-work/n", "contract-work/n", "loadbal-work/n", "wyllie/loadbal"},
	}
	hi := 18
	if cfg.Quick {
		hi = 14
	}
	for _, nn := range pow2s(10, hi, 2) {
		ll := list.RandomList(nn, cfg.Seed)
		mw := pram.New(256)
		rank.WyllieRank(mw, ll)
		mc := pram.New(256)
		if _, _, err := rank.Rank(mc, ll, nil); err != nil {
			return nil, err
		}
		mlb := pram.New(256)
		if _, _, err := rank.LoadBalancedRank(mlb, ll); err != nil {
			return nil, err
		}
		wn := float64(mw.Work()) / float64(nn)
		cn := float64(mc.Work()) / float64(nn)
		ln := float64(mlb.Work()) / float64(nn)
		tw.Add(nn, bits.CeilLog2(nn), wn, cn, ln, wn/ln)
	}
	return []*Table{t, tlb, tw}, nil
}

// runE11 measures wall-clock of the executors.
func runE11(cfg Config) ([]*Table, error) {
	n := 1 << 20
	if cfg.Quick {
		n = 1 << 16
	}
	l := list.RandomList(n, cfg.Seed)
	t := &Table{
		Title:  fmt.Sprintf("E11 — executor wall-clock, n = %d, GOMAXPROCS = %d", n, runtime.GOMAXPROCS(0)),
		Note:   "identical simulated step counts required; wall-clock differs with real cores available",
		Header: []string{"executor", "simulated-p", "steps", "wall-ms", "match-ok"},
	}
	for _, ex := range []pram.Exec{pram.Sequential, pram.Pooled} {
		m := pram.New(1024, pram.WithExec(ex))
		start := time.Now()
		r, err := matching.Match4(m, l, nil, matching.Match4Config{I: 3})
		m.Close()
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		ok := "yes"
		if err := matching.Verify(l, r.In); err != nil {
			ok = err.Error()
		}
		t.Add(ex.String(), 1024, r.Stats.Time, el.Milliseconds(), ok)
	}
	return []*Table{t}, nil
}

// runE12 exercises the appendix's evaluation procedures.
func runE12(cfg Config) ([]*Table, error) {
	t := &Table{
		Title:  "E12 — appendix evaluations",
		Note:   "G/seq/par must agree up to Θ; logG-par = pointer-jumping rounds on the main list",
		Header: []string{"n", "G(n)", "G-seq(table)", "G-par(mainlist)", "logG", "logG-par"},
	}
	u := bits.NewUnaryTable(1 << 20)
	rev := bits.NewReverseTable(20)
	ns := []int{1 << 4, 1 << 8, 1 << 12, 1 << 16, 1<<20 - 1}
	for _, n := range ns {
		par := bits.EvalGParallel(n)
		t.Add(n, bits.G(n), bits.EvalGSequential(n, u, rev), par.G, bits.LogG(n), par.LogG)
	}

	t2 := &Table{
		Title:  "E12b — unary→binary table scheme vs machine instruction",
		Note:   "appendix instruction sequence must equal math/bits on every checked pair",
		Header: []string{"width", "pairs", "lsb-agree", "msb-agree"},
	}
	for _, w := range []int{4, 8, 12} {
		uu := bits.NewUnaryTable(1 << uint(w))
		rv := bits.NewReverseTable(w)
		pairs, lsbOK, msbOK := 0, 0, 0
		for a := 0; a < 1<<uint(w); a += 3 {
			for b := 0; b < 1<<uint(w); b += 7 {
				if a == b {
					continue
				}
				pairs++
				if uu.LSBLookup(a, b) == bits.LSB(a^b) {
					lsbOK++
				}
				if uu.MSBLookup(a, b, rv) == bits.MSB(a^b) {
					msbOK++
				}
			}
		}
		t2.Add(w, pairs, lsbOK, msbOK)
	}
	return []*Table{t, t2}, nil
}
