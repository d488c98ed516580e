package rank

// This file holds the shard-local kernels and the stitched solver
// behind sharded (one request × K shards) list ranking — the
// distributed list-ranking recipe (Sanders–Schimek–Uhl–Weidmann,
// PAPERS.md) folded into one address space: contract locally per
// shard, exchange boundary segment records, solve the reduced
// inter-shard list, expand locally. The plan shape lives in
// internal/plan; the scheduler that co-schedules these kernels across
// warm engines lives in internal/engine (EnginePool.ShardedDo). Here
// are only the kernels, each runnable on any machine:
//
//   - ContractShard walks shard k's address range [Bounds[k],
//     Bounds[k+1]): every maximal run of nodes whose predecessor stays
//     in-shard forms a segment, contracted to one (head, exit, total)
//     record. All reads and writes stay inside the shard's slice of
//     the shared state, so K contract steps race-freely share arrays.
//   - Exchange (coordinator-side, no machine) gathers the segment
//     records in deterministic shard-then-address order and stitches
//     the reduced inter-shard list: segment s's successor is the
//     segment owning s's exit node.
//   - SolveReduced ranks the reduced list on ONE machine by literally
//     reusing the NativeWalker (a serial walk below its size
//     thresholds, a ruler sweep above) and scatters the solved offsets
//     back onto the segment records.
//   - ExpandShard adds each node's segment offset to its local rank,
//     shard-parallel and shard-local again.
//
// Both modes are exact integer arithmetic over the same operand order
// as the single-machine schemes, so stitched outputs are bit-identical
// to a single-engine run — ranks because positions are unique, prefix
// sums because integer addition is associative. The equivalence suite
// and FuzzShardedRankEquivalence pin this at every n and K.

import (
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// ShardState is the cross-step state of one sharded ranking request:
// the arrays every plan step reads and writes. The coordinator
// allocates it (from an arena — see NewShardState), the contract and
// expand steps touch only their own shard's index ranges, and the
// exchange/solve steps run strictly after the steps whose output they
// read, so no two concurrent writers ever share a cell.
//
// Segment records are indexed by the segment's head node (SegExit,
// SegTotal, SegOffset), so per-shard record storage needs no sizing
// pass; the compacted Red* arrays exist only so the reduced list is a
// dense list.List the solver can walk.
type ShardState struct {
	// List is the input; Vals are the prefix addends (nil = rank mode).
	// Both are read-only for every kernel.
	List *list.List
	Vals []int
	// K is the shard count; Bounds (length K+1) splits the address
	// space: shard k owns [Bounds[k], Bounds[k+1]).
	K      int
	Bounds []int

	// Per-node state (length n). SegOf[v] is the head node of v's
	// segment; Local[v] is v's within-segment rank (rank mode) or
	// inclusive within-segment prefix (prefix mode); Out[v] is the
	// stitched result.
	SegOf, Local, Out []int

	// Per-segment records, indexed by head node (length n, sparse).
	// SegExit is the segment's first out-of-shard successor (or
	// list.Nil); SegTotal its node count (rank) or value sum (prefix);
	// SegOffset the solved exclusive offset; SegIdx the segment's
	// index in the reduced list.
	SegExit, SegTotal, SegOffset, SegIdx []int

	// Heads stores shard k's segment-head nodes, ascending, in
	// [Bounds[k], Bounds[k]+HeadCount[k]).
	Heads     []int
	HeadCount []int

	// The reduced inter-shard list, dense in [0, Segments): RedNext is
	// its successor array, RedVals its per-segment totals, RedHeads
	// maps reduced index back to head node, RedHead is its head index.
	RedNext, RedVals, RedHeads []int
	RedHead                    int
	// Segments is the reduced list's length, set by Exchange.
	Segments int
}

// ShardBounds returns the K+1 even address-range boundaries for n
// nodes: shard k owns [k·n/K, (k+1)·n/K).
func ShardBounds(n, k int) []int {
	b := make([]int, k+1)
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// shardBoundsInto is ShardBounds into arena scratch.
func shardBoundsInto(b []int, n, k int) []int {
	b = b[:k+1]
	for i := 0; i <= k; i++ {
		b[i] = i * n / k
	}
	return b
}

// NewShardState allocates a K-shard state for l from wsp (plain make
// when wsp is nil — the arena path is what keeps repeated sharded
// requests allocation-free). vals selects prefix mode (nil = rank).
// Every array is fully written by the kernels before it is read, so
// no zeroing is needed.
func NewShardState(wsp *ws.Workspace, l *list.List, vals []int, k int) *ShardState {
	n := l.Len()
	return &ShardState{
		List: l, Vals: vals, K: k,
		Bounds:    shardBoundsInto(ws.IntsNoZero(wsp, k+1), n, k),
		SegOf:     ws.IntsNoZero(wsp, n),
		Local:     ws.IntsNoZero(wsp, n),
		Out:       ws.IntsNoZero(wsp, n),
		SegExit:   ws.IntsNoZero(wsp, n),
		SegTotal:  ws.IntsNoZero(wsp, n),
		SegOffset: ws.IntsNoZero(wsp, n),
		SegIdx:    ws.IntsNoZero(wsp, n),
		Heads:     ws.IntsNoZero(wsp, n),
		HeadCount: ws.IntsNoZero(wsp, k),
		RedNext:   ws.IntsNoZero(wsp, n),
		RedVals:   ws.IntsNoZero(wsp, n),
		RedHeads:  ws.IntsNoZero(wsp, n),
	}
}

// ContractShard runs shard k's local contraction on m: mark, collect
// the shard's segment heads in ascending address order, then walk each
// segment recording membership (SegOf), local rank/prefix (Local) and
// its boundary record (SegExit, SegTotal). Only shard k's ranges of
// the shared arrays are touched.
//
// The kernels run as ordinary simulated rounds (ParFor), so fault
// plans, deadline aborts and executor accounting all apply per step
// exactly as they do to whole requests; the segment walks are charged
// one extra pass over the shard for their irregular traversal.
func ContractShard(m *pram.Machine, st *ShardState, k int) {
	lo, hi := st.Bounds[k], st.Bounds[k+1]
	w := hi - lo
	if w == 0 {
		st.HeadCount[k] = 0
		return
	}
	m.Phase("shard-contract")
	next := st.List.Next
	vals := st.Vals

	// A node is a segment head iff it has no in-shard predecessor; mark
	// predecessors into Local (the walk below overwrites every marked
	// cell with the real local rank).
	m.ParFor(w, func(i int) { st.Local[lo+i] = 0 })
	m.ParFor(w, func(i int) {
		if x := next[lo+i]; x != list.Nil && x >= lo && x < hi {
			st.Local[x] = 1
		}
	})

	// Collect heads ascending — a sequential in-shard scan, charged as
	// such (the contract step's only serial part).
	hc := 0
	for u := lo; u < hi; u++ {
		if st.Local[u] == 0 {
			st.Heads[lo+hc] = u
			hc++
		}
	}
	m.Charge(int64(w), int64(w))
	st.HeadCount[k] = hc

	// Walk each segment from its head to the first out-of-shard
	// successor. Segments partition the shard, so all writes are
	// disjoint; the traversal is irregular, charged as one extra pass.
	m.ParFor(hc, func(i int) {
		u := st.Heads[lo+i]
		st.SegOf[u] = u
		cnt, acc := 1, 0
		if vals == nil {
			st.Local[u] = 0
		} else {
			acc = vals[u]
			st.Local[u] = acc
		}
		v := next[u]
		for v != list.Nil && v >= lo && v < hi {
			st.SegOf[v] = u
			if vals == nil {
				st.Local[v] = cnt
			} else {
				acc += vals[v]
				st.Local[v] = acc
			}
			cnt++
			v = next[v]
		}
		st.SegExit[u] = v
		if vals == nil {
			st.SegTotal[u] = cnt
		} else {
			st.SegTotal[u] = acc
		}
	})
	p := int64(m.Processors())
	m.Charge((int64(w)+p-1)/p, int64(w))
}

// Exchange gathers every shard's boundary records into the reduced
// inter-shard list, in deterministic shard-then-address order. It is
// the plan's all-to-one data movement and runs on the coordinator (no
// machine); the moved volume is plan.ExchangeBytes(st.Segments).
func Exchange(st *ShardState) {
	s := 0
	for k := 0; k < st.K; k++ {
		base := st.Bounds[k]
		for i := 0; i < st.HeadCount[k]; i++ {
			u := st.Heads[base+i]
			st.SegIdx[u] = s
			st.RedHeads[s] = u
			st.RedVals[s] = st.SegTotal[u]
			s++
		}
	}
	for i := 0; i < s; i++ {
		x := st.SegExit[st.RedHeads[i]]
		if x == list.Nil {
			st.RedNext[i] = list.Nil
		} else {
			st.RedNext[i] = st.SegIdx[st.SegOf[x]]
		}
	}
	st.Segments = s
	// The global head has no predecessor anywhere, so it is always a
	// segment head.
	st.RedHead = st.SegIdx[st.List.Head]
}

// SolveReduced ranks the reduced list — one node per segment — on one
// machine, reusing the NativeWalker in prefix mode (a serial walk below
// SweepMinPrefix segments, a ruler sweep from it on), and scatters each
// segment's exclusive offset back onto its record. The walker must be
// bound to m; its scratch comes from m's workspace.
func SolveReduced(m *pram.Machine, w *NativeWalker, st *ShardState) {
	s := st.Segments
	m.Phase("reduced-solve")
	rl := list.New(st.RedNext[:s], st.RedHead)
	pref := w.Prefix(rl, st.RedVals[:s])
	m.ParFor(s, func(i int) {
		st.SegOffset[st.RedHeads[i]] = pref[i] - st.RedVals[i]
	})
}

// ExpandShard stitches shard k's final results: every owned node adds
// its segment's solved offset to its local rank/prefix. Shard-local
// and write-disjoint, like ContractShard.
func ExpandShard(m *pram.Machine, st *ShardState, k int) {
	lo, hi := st.Bounds[k], st.Bounds[k+1]
	if lo == hi {
		return
	}
	m.Phase("shard-expand")
	m.ParFor(hi-lo, func(i int) {
		v := lo + i
		st.Out[v] = st.SegOffset[st.SegOf[v]] + st.Local[v]
	})
}
