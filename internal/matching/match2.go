package matching

import (
	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/sortint"
	"parlist/internal/ws"
)

// match2CrunchIters is the number of f applications Match2 uses to reach
// an O(log^(2) n)-sized label range (Lemma 2 with k = 3).
const match2CrunchIters = 3

// Match2 computes a maximal matching with the paper's optimal EREW
// algorithm (Lemma 4):
//
//	Step 1. partition the pointers into at most O(log^(2) n) matching
//	        sets (three applications of f);
//	Step 2. sort the pointers by set number so each set is contiguous —
//	        the global integer sort whose cost dominates and whose
//	        inefficiency §3 sets out to remove;
//	Step 3. admit the sets one by one: a pointer enters the matching if
//	        neither endpoint is DONE, then marks both endpoints DONE.
//
// Time O(n/p + log n); optimal for p up to O(n/log n).
func Match2(m *pram.Machine, l *list.List, e *partition.Evaluator) *Result {
	n := l.Len()
	if n < 2 {
		return &Result{Algorithm: "match2", In: make([]bool, n), Stats: m.Snapshot()}
	}
	if e == nil {
		e = partition.NewEvaluator(partition.MSB, width(n))
	}
	chargeEvaluatorReplication(m, e)

	m.Phase("partition")
	lab := partition.Iterate(m, l, e, match2CrunchIters)
	K := partition.RangeAfter(n, match2CrunchIters)

	// The tail has no pointer; give it the spare key K so it sorts last
	// and is skipped by step 3.
	keys := ws.IntsNoZero(m.Workspace(), n) // every cell written below
	m.ParFor(n, func(v int) {
		if l.Next[v] == list.Nil {
			keys[v] = K
		} else {
			keys[v] = lab[v]
		}
	})

	m.Phase("sort")
	perm := sortint.ParallelByKey(m, keys, K+1)

	m.Phase("admit")
	in := admitBySets(m, l, keys, perm, K)

	return &Result{
		Algorithm: "match2",
		In:        in,
		Size:      Count(in),
		Sets:      K,
		Rounds:    match2CrunchIters,
		Stats:     m.Snapshot(),
	}
}

// admitBySets runs Match2's step 3 over the sorted pointer order: sets
// are contiguous in perm; each set is processed with one parallel round.
// Within a set the pointers form a matching (disjoint endpoints), so the
// DONE updates never conflict.
func admitBySets(m *pram.Machine, l *list.List, keys, perm []int, K int) []bool {
	n := l.Len()
	w := m.Workspace()
	in := ws.Bools(w, n)
	done := ws.Bools(w, n)
	m.ParFor(n, func(v int) { done[v] = false })

	// Segment boundaries: start[k] = first position of set k in perm.
	// Computed with one parallel round over positions (a position starts
	// a segment when its key differs from its predecessor's).
	start := ws.IntsNoZero(w, K+2) // every cell written by the -1 fill
	for k := range start {
		start[k] = -1
	}
	m.ParFor(n, func(i int) {
		k := keys[perm[i]]
		if i == 0 || keys[perm[i-1]] != k {
			start[k] = i
		}
	})
	// Fill ends: end of set k = next started segment (host O(K) sweep,
	// charged as one K-length round).
	end := ws.IntsNoZero(w, K+1)
	next := n
	for k := K; k >= 0; k-- {
		if start[k] < 0 {
			start[k] = next
		}
		end[k] = next
		next = start[k]
	}
	m.Charge(int64(K+1), int64(K+1))

	// One fused group for the whole per-set admission sweep: up to K
	// consecutive rounds with one pool wake (the set loop is Match2's
	// round-count hot spot after the sort).
	m.Batch(func() {
		for k := 0; k <= K-1; k++ {
			lo, hi := start[k], end[k]
			if lo >= hi {
				continue
			}
			m.ParFor(hi-lo, func(i int) {
				a := perm[lo+i]
				s := l.Next[a]
				if s == list.Nil {
					return
				}
				if !done[a] && !done[s] {
					done[a] = true
					done[s] = true
					in[a] = true
				}
			})
		}
	})
	return in
}
