package rank

import (
	"math/bits"

	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// This file holds the Native executor's list-ranking kernel. Small
// lists take one serial walk in list order. From a size threshold on,
// the kernel is an interleaved ruler sweep — the ruler chasing of
// sparse-ruling-set list ranking (PAPERS.md), used here to overlap
// cache misses inside one core:
//
//   - Rulers sit at every address that is a multiple of 2^rulerShift,
//     plus the head. Each ruler owns the sublist from itself up to the
//     next ruler, exclusive.
//   - Sweep, the one team dispatch: each party keeps one cursor per
//     owned ruler in a compacted array and advances every live cursor
//     by one hop per pass. A cursor stops on reaching a ruler or the
//     tail. The hops of different cursors are independent, so their
//     misses overlap where a serial walk waits out each one. Each hop
//     costs one load and one random store: the output word packs the
//     ruler id and the node's index within the sublist.
//   - Ruler chain, on the calling goroutine: one pass over the rulers
//     in list order from the head's turns sublist lengths into each
//     ruler's rank.
//   - Unpack, on the calling goroutine: one sequential pass turns every
//     word into a rank. In prefix mode the same pass scatters each
//     value to its rank, a sequential scan sums them in list order, and
//     a gather pass reads each node's sum back by its rank.
//
// Random stores, not loads, cap the overlap: the sweep makes exactly
// one per hop, and tests for a ruler with a mask. Prefix mode's scatter
// is a second random store per node, which is why it sweeps only from
// a larger size on.
//
// Both walks count the nodes they reach from the head: the serial walk
// counts its loop, the sweep sums sublist lengths along the ruler
// chain. On a list that passed list.ValidateDegrees that count is the
// reachability check — no node points at the head, every cursor stops
// within n hops (a cursor on a detached cycle stops at a ruler or goes
// unstarted when the cycle holds none), and the count reaches n exactly
// when every node is reachable — so the engine runs only the degree
// pass before a native rank or prefix. When the count falls short the
// unpacking is skipped and the output is unspecified.
//
// Ranks are unique and prefix sums are the same wrapping integer
// additions in list order, so the outputs are bit-identical to the
// simulated schemes' — the equivalence suites assert this.

const (
	// rulerShift sets the ruler stride, 2^rulerShift = 256: a list of n
	// nodes has about n/256 rulers, so each cursor makes ~256 hops and
	// every pass of the sweep has enough independent misses in flight.
	rulerShift = 8
	rulerMask  = 1<<rulerShift - 1
)

// SweepMinRank and SweepMinPrefix are the list sizes from which Walk
// sweeps in rank and prefix mode, at any party count; below them it
// walks serially. At 4,096 nodes both walks run at about 6 ns/node,
// since the list sits in cache. Prefix starts higher because its
// scatter, scan and gather passes cost about 5 ns/node on top of the
// sweep, which they outweigh below 2^16 nodes.
const (
	SweepMinRank   = 1 << 13
	SweepMinPrefix = 1 << 16
)

// NativeWalker is the reusable kernel state: the team closure is bound
// once at construction and per-call parameters travel through fields,
// keeping the steady-state request path allocation-free. A walker is
// single-use-at-a-time, like the machine it wraps.
type NativeWalker struct {
	m     *pram.Machine
	teamF func(*pram.TeamCtx)

	// Per-call state the sweep reads, set by Walk before dispatch.
	next      []int
	out       []int
	head      int
	s         int   // rulers j<<rulerShift for j < s; the head, if not one, is ruler s
	shift     int   // packed word = ruler id<<shift | index within the sublist
	nextRuler []int // per ruler: id of the next ruler on the list, or -1
	count     []int // per ruler: its sublist's node count

	cursors []cursor // per ruler; each party owns a chunk
}

// cursor is one sweep position: the last node reached and the packed
// word written there.
type cursor struct{ node, word int }

// NewNativeWalker returns a reusable native ranking kernel on m.
func NewNativeWalker(m *pram.Machine) *NativeWalker {
	w := &NativeWalker{m: m}
	w.teamF = w.sweep
	return w
}

// rulerID returns the id of ruler v, or -1 for list.Nil.
func (w *NativeWalker) rulerID(v int) int {
	switch {
	case v == list.Nil:
		return -1
	case v&rulerMask == 0:
		return v >> rulerShift
	}
	return w.s // the head
}

// sweep is the SPMD body every party executes: it walks the sublists of
// the party's chunk of rulers. A retired cursor's slot takes the last
// live cursor, so every pass runs over a dense prefix.
func (w *NativeWalker) sweep(ctx *pram.TeamCtx) {
	next, out, shift := w.next, w.out, w.shift
	low := 1<<shift - 1
	lo, hi := ctx.Chunk(len(w.count))
	cur := w.cursors[lo:hi]
	for i := range cur {
		j := lo + i
		u := j << rulerShift
		if j == w.s {
			u = w.head
		}
		cur[i] = cursor{u, j << shift}
		out[u] = j << shift
	}
	for live := len(cur); live > 0; {
		for i := 0; i < live; {
			c := &cur[i]
			v := next[c.node]
			if v != list.Nil && v&rulerMask != 0 {
				c.word++
				out[v] = c.word
				c.node = v
				i++
				continue
			}
			j := c.word >> shift
			w.count[j] = c.word&low + 1
			w.nextRuler[j] = w.rulerID(v)
			live--
			cur[i] = cur[live]
		}
	}
}

// Walk computes, for every node, offset-from-head information, and
// reports how many nodes it reached from the head. In rank mode
// (vals == nil) out[v] is the 0-based distance from the head; in
// prefix mode out[v] is the inclusive prefix sum of vals along the
// list. The returned slice comes from the machine's workspace (valid
// until the next Reset). The list must pass list.ValidateDegrees; out
// is then fully written exactly when reached == l.Len().
func (w *NativeWalker) Walk(l *list.List, vals []int) (out []int, reached int) {
	m := w.m
	n := l.Len()
	m.Phase("rank-walk") // zero-cost span: native charges nothing to Stats
	wsp := m.Workspace()
	out = ws.IntsNoZero(wsp, n) // every reachable node's cell written below
	if n == 0 {
		return out, 0
	}
	next, head := l.Next, l.Head

	// Rulers: nodes j<<rulerShift for j < s, plus the head if it is not
	// already one.
	s := (n + rulerMask) >> rulerShift
	S := s
	if head&rulerMask != 0 {
		S++
	}
	// The packed word's index field holds values below n; the id field
	// above it must keep the word a non-negative int.
	shift := bits.Len(uint(n))
	from := SweepMinRank
	if vals != nil {
		from = SweepMinPrefix
	}
	if n < from || shift+bits.Len(uint(S)) >= bits.UintSize {
		if vals == nil {
			for v := head; v != list.Nil; v = next[v] {
				out[v] = reached
				reached++
			}
		} else {
			acc := 0
			for v := head; v != list.Nil; v = next[v] {
				acc += vals[v]
				out[v] = acc
				reached++
			}
		}
		return out, reached
	}

	w.next, w.out, w.head, w.s, w.shift = next, out, head, s, shift
	w.nextRuler = ws.IntsNoZero(wsp, S)
	w.count = ws.IntsNoZero(wsp, S)
	if cap(w.cursors) < S {
		w.cursors = make([]cursor, S)
	}
	w.cursors = w.cursors[:S]
	m.RunTeam(w.teamF)

	// The rest runs on the calling goroutine: split across parties,
	// these passes measured slower on a 2-vCPU host (DESIGN.md "Native
	// executor"). The ruler chain turns each ruler's count into its
	// rank, and the counts' sum certifies reachability.
	rank := w.count
	for j := w.rulerID(head); j != -1; j = w.nextRuler[j] {
		c := rank[j]
		rank[j] = reached
		reached += c
	}
	// Unpack every word, unless some node is unreachable: its word was
	// never written.
	low := 1<<shift - 1
	switch {
	case reached != n:
	case vals == nil:
		for v, word := range out {
			out[v] = rank[word>>shift] + word&low
		}
	default:
		ordered := ws.IntsNoZero(wsp, n) // the values in list order, then their sums
		for v, word := range out {
			r := rank[word>>shift] + word&low
			out[v] = r
			ordered[r] = vals[v]
		}
		acc := 0
		for r, x := range ordered {
			acc += x
			ordered[r] = acc
		}
		for v, r := range out {
			out[v] = ordered[r]
		}
	}
	w.next, w.out, w.nextRuler, w.count = nil, nil, nil, nil
	return out, reached
}

// Rank computes rank-from-head (0-based distance) with the native
// kernel on a valid list. Output is identical to Rank's and
// WyllieRank's — ranks are unique.
func (w *NativeWalker) Rank(l *list.List) []int {
	out, _ := w.Walk(l, nil)
	return out
}

// Prefix computes inclusive data-dependent prefix sums with the native
// kernel on a valid list. Output is identical to Prefix's.
func (w *NativeWalker) Prefix(l *list.List, vals []int) []int {
	out, _ := w.Walk(l, vals)
	return out
}
