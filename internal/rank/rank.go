// Package rank implements parallel list ranking and data-dependent
// prefix computation over linked lists — the problem family
// ([9,11,13,16] in the paper) that motivates fast maximal matching: a
// maximal matching identifies ≥ 1/3 of the pointers that can be
// contracted simultaneously, giving an optimal ranking scheme, while
// Wyllie's pointer jumping serves as the classic O(n log n) baseline.
//
// The core primitive is the suffix sum: suffix[v] = Σ val[u] over the
// nodes u from v to the tail. Ranks and prefix sums derive from it:
//
//	rankFromHead[v] = n − suffix[v]          (val ≡ 1)
//	prefix[v]       = total − suffix[v] + val[v]
package rank

import (
	"fmt"

	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/pram"
	"parlist/internal/scan"
	"parlist/internal/ws"
)

// Wyllie computes suffix sums by pointer jumping: O(log n) rounds of
// s[v] += s[next[v]]; next[v] = next[next[v]], each costing 3⌈n/p⌉ time
// with double buffering (EREW). Total work Θ(n log n) — not optimal,
// the baseline the contraction scheme is measured against. Returns the
// suffix sums and the number of rounds.
func Wyllie(m *pram.Machine, l *list.List, vals []int) ([]int, int) {
	n := l.Len()
	m.Phase("wyllie-jump")
	w := m.Workspace()
	// All four buffers are fully written before their first read (the
	// init round seeds s and nxt; the copy rounds seed the aux pair).
	s := ws.IntsNoZero(w, n)
	nxt := ws.IntsNoZero(w, n)
	auxS := ws.IntsNoZero(w, n)
	auxN := ws.IntsNoZero(w, n)
	rounds := 0
	// The whole jump loop is one fused group: Θ(log n) consecutive
	// rounds over the same index range, dispatched to the pool with a
	// single worker wake instead of one spawn per round.
	m.Batch(func() {
		m.ParFor(n, func(v int) {
			s[v] = vals[v]
			nxt[v] = l.Next[v]
		})
		for r := 1; r < n; r *= 2 {
			rounds++
			m.ParFor(n, func(v int) { auxS[v] = s[v]; auxN[v] = nxt[v] })
			m.ParFor(n, func(v int) {
				if w := auxN[v]; w != list.Nil {
					s[v] += auxS[w]
					nxt[v] = auxN[w]
				}
			})
		}
	})
	return s, rounds
}

// SequentialSuffix is the linear-time baseline.
func SequentialSuffix(l *list.List, vals []int) []int {
	order := l.Order()
	s := make([]int, l.Len())
	acc := 0
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		acc += vals[v]
		s[v] = acc
	}
	return s
}

// Config tunes the contraction scheme.
type Config struct {
	// Matcher selects the per-round matching algorithm; nil uses Match4
	// with I = 3 (iterated partition).
	Matcher func(m *pram.Machine, l *list.List) ([]bool, error)
	// Threshold stops contraction once at most this many nodes remain
	// (they are finished with one sequential walk, charged as such).
	// Values < 2 default to 32.
	Threshold int
}

func (c *Config) matcher() func(m *pram.Machine, l *list.List) ([]bool, error) {
	if c != nil && c.Matcher != nil {
		return c.Matcher
	}
	// Match2 is the paper's optimal EREW matcher and has the smallest
	// constant factor per round; "known algorithms for computing maximal
	// matching are good enough for the design of a linked list prefix
	// algorithm with timing O(n/p + log n)" (§3).
	return func(m *pram.Machine, l *list.List) ([]bool, error) {
		return matching.Match2(m, l, nil).In, nil
	}
}

func (c *Config) threshold() int {
	if c == nil || c.Threshold < 2 {
		return 32
	}
	return c.Threshold
}

// ContractStats reports what the contraction scheme did.
type ContractStats struct {
	Rounds          int     // contraction rounds before the threshold
	MinShrink       float64 // smallest per-round node-removal fraction
	TotalSpliced    int     // nodes removed across all rounds
	FinalSequential int     // nodes finished sequentially at the threshold
}

// spliceRecord remembers one removed node for the expansion sweep.
type spliceRecord struct {
	node int // removed node (head of a matched pointer), original id
	next int // its successor at removal time, original id
	val  int // its accumulated value at removal time
}

// ContractFold computes generalized suffix folds
// suffix[v] = val[v] ⊕ val[suc(v)] ⊕ … ⊕ val[tail] for any associative
// (not necessarily commutative) operation ⊕, by matching contraction.
// ContractSuffix is the ⊕ = + instance; scan.Max gives running suffix
// maxima, etc. The splice order preserves operand order, so
// non-commutative operations fold correctly.
//
// The scheme:
//
//	repeat: find a maximal matching of the current list's pointers; for
//	every matched pointer ⟨a,b⟩ splice out b (never the list head),
//	folding b's accumulated value into a; compact the survivors and
//	recurse. A maximal matching covers ≥ 1/3 of the pointers, so each
//	round removes ≥ (m−1)/3 nodes and O(log n) rounds reach the
//	threshold; total work over all rounds is a geometric series, O(n)
//	plus the per-round matching overhead.
//
// The expansion replays the rounds in reverse: suffix[b] = val_b +
// suffix[next_b], where next_b survived b's round by construction (the
// head of a matched pointer is never the tail of another).
func ContractFold(m *pram.Machine, l *list.List, vals []int, op scan.Op, cfg *Config) ([]int, ContractStats, error) {
	n := l.Len()
	match := cfg.matcher()
	thr := cfg.threshold()
	stats := ContractStats{MinShrink: 1}

	w := m.Workspace()

	// Working copy in original ids.
	nxt := ws.IntsNoZero(w, n) // init round writes every cell
	val := ws.IntsNoZero(w, n)
	m.ParFor(n, func(v int) { nxt[v] = l.Next[v]; val[v] = vals[v] })

	active := ws.IntsNoZero(w, n) // original ids of live nodes
	for i := range active {
		active[i] = i
	}
	head := l.Head

	// idx is hoisted out of the contraction loop: it is sparse scratch
	// (only active entries are meaningful, and each round rewrites its
	// own active entries before reading them), so one n-sized buffer
	// serves every round instead of binding a fresh one per round.
	idx := ws.IntsNoZero(w, n)

	var rounds [][]spliceRecord
	for len(active) > thr {
		cnt := len(active)
		// Compact the live sublist into addresses [0, cnt): the matching
		// partition functions need distinct small addresses. idx maps
		// original → compact. The phase marks each contraction round's
		// compaction; the matcher then switches to its own phases, and
		// "splice" below covers the rewiring — so a traced rank request
		// shows the contract/match/splice cadence round by round.
		m.Phase("contract")
		m.ParFor(cnt, func(i int) { idx[active[i]] = i })
		cnext := ws.IntsNoZero(w, cnt)
		m.ParFor(cnt, func(i int) {
			w := nxt[active[i]]
			if w == list.Nil {
				cnext[i] = list.Nil
			} else {
				cnext[i] = idx[w]
			}
		})
		cl := list.New(cnext, idx[head])

		in, err := match(m, cl)
		if err != nil {
			return nil, stats, fmt.Errorf("rank: contraction round %d: %w", len(rounds), err)
		}

		// Splice: for matched compact pointer ⟨i, cnext[i]⟩ remove the
		// head b. Record, fold values, rewire.
		m.Phase("splice")
		removed := make([]bool, cnt)
		var recs []spliceRecord
		m.ParFor(cnt, func(i int) {
			if in[i] {
				removed[cnext[i]] = true
			}
		})
		// Gather records and rewire (each matched tail rewires itself;
		// bodies touch disjoint cells because the matching is a matching).
		recMu := make([]spliceRecord, cnt)
		m.ParFor(cnt, func(i int) {
			if !in[i] {
				return
			}
			a := active[i]
			b := active[cnext[i]]
			recMu[i] = spliceRecord{node: b, next: nxt[b], val: val[b]}
			val[a] = op.Apply(val[a], val[b])
			nxt[a] = nxt[b]
		})
		recIdx := scan.Compact(m, in, nil)
		recs = make([]spliceRecord, len(recIdx))
		m.ParFor(len(recIdx), func(i int) { recs[i] = recMu[recIdx[i]] })

		// Survivors, preserving compact order (stream compaction).
		keep := make([]bool, cnt)
		m.ParFor(cnt, func(i int) { keep[i] = !removed[i] })
		survIdx := scan.Compact(m, keep, nil)
		newActive := make([]int, len(survIdx))
		m.ParFor(len(survIdx), func(i int) { newActive[i] = active[survIdx[i]] })

		if len(recs) == 0 {
			return nil, stats, fmt.Errorf("rank: contraction round %d made no progress (n=%d)", len(rounds), cnt)
		}
		shrink := float64(len(recs)) / float64(cnt)
		if shrink < stats.MinShrink {
			stats.MinShrink = shrink
		}
		stats.TotalSpliced += len(recs)
		rounds = append(rounds, recs)
		active = newActive
	}
	stats.Rounds = len(rounds)
	stats.FinalSequential = len(active)

	// Base case: walk the residual list sequentially (≤ threshold nodes).
	m.Phase("base-walk")
	suffix := make([]int, n)
	resOrder := make([]int, 0, len(active))
	for v := head; v != list.Nil; v = nxt[v] {
		resOrder = append(resOrder, v)
	}
	acc := op.Identity
	for i := len(resOrder) - 1; i >= 0; i-- {
		v := resOrder[i]
		acc = op.Apply(val[v], acc)
		suffix[v] = acc
	}
	m.Charge(int64(len(resOrder)), int64(len(resOrder)))

	// Expansion: reverse the rounds, fused into one dispatch group.
	m.Phase("expand")
	m.Batch(func() {
		for r := len(rounds) - 1; r >= 0; r-- {
			recs := rounds[r]
			m.ParFor(len(recs), func(i int) {
				rec := recs[i]
				if rec.next == list.Nil {
					suffix[rec.node] = rec.val
				} else {
					suffix[rec.node] = op.Apply(rec.val, suffix[rec.next])
				}
			})
		}
	})
	return suffix, stats, nil
}

// ContractSuffix computes suffix sums (ContractFold with addition).
func ContractSuffix(m *pram.Machine, l *list.List, vals []int, cfg *Config) ([]int, ContractStats, error) {
	return ContractFold(m, l, vals, scan.Add, cfg)
}

// Rank returns rankFromHead[v] ∈ [0, n): the distance of v from the
// head, computed via contraction suffix sums.
func Rank(m *pram.Machine, l *list.List, cfg *Config) ([]int, ContractStats, error) {
	n := l.Len()
	ones := make([]int, n)
	m.ParFor(n, func(v int) { ones[v] = 1 })
	suf, st, err := ContractSuffix(m, l, ones, cfg)
	if err != nil {
		return nil, st, err
	}
	rk := make([]int, n)
	m.ParFor(n, func(v int) { rk[v] = n - suf[v] })
	return rk, st, nil
}

// Prefix returns prefix[v] = Σ val[u] from the head to v inclusive.
func Prefix(m *pram.Machine, l *list.List, vals []int, cfg *Config) ([]int, ContractStats, error) {
	suf, st, err := ContractSuffix(m, l, vals, cfg)
	if err != nil {
		return nil, st, err
	}
	total := suf[l.Head]
	n := l.Len()
	out := make([]int, n)
	m.ParFor(n, func(v int) { out[v] = total - suf[v] + vals[v] })
	return out, st, nil
}

// WyllieRank returns rankFromHead via pointer jumping (baseline).
func WyllieRank(m *pram.Machine, l *list.List) []int {
	n := l.Len()
	ones := make([]int, n)
	m.ParFor(n, func(v int) { ones[v] = 1 })
	suf, _ := Wyllie(m, l, ones)
	rk := make([]int, n)
	m.ParFor(n, func(v int) { rk[v] = n - suf[v] })
	return rk
}
