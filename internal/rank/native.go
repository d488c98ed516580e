package rank

import (
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// This file holds the Native executor's list-ranking kernel: the
// chunked splitter-walk scheme (the classic Helman–JáJá decomposition
// the distributed-list-ranking literature builds on) instead of the
// simulated contraction or Wyllie jumping. The list is cut at s
// evenly-addressed splitter nodes into s independent sublists; phase 1
// walks all sublists in parallel (each party owns a chunk of
// splitters, every node belongs to exactly one sublist, so all writes
// are race-free), phase 2 is a sequential base-walk over the s-node
// splitter chain, and phase 3 expands per-node results chunk-parallel.
// Two barriers total, no step charging, no shadow copies.
//
// The walk also counts the nodes it reaches from the head: the serial
// path counts its loop, the team path sums per-sublist node counts
// along the splitter chain in phase 2. On a list that passed
// list.ValidateDegrees that count is the reachability check — every
// walk ends within n steps (a walk started at a splitter stops on its
// return to it), and the count reaches n exactly when every node is
// reachable — so the engine runs only the degree pass before a native
// rank or prefix. When the count falls short, phase 3 is skipped and
// the output is unspecified.
//
// Ranks are unique and prefix sums are plain integer additions over
// the same operand sequence, so the outputs are bit-identical to the
// simulated schemes' — the equivalence suites assert this.

// NativeWalker is the reusable kernel state: the team closure is bound
// once at construction and per-call parameters travel through fields,
// keeping the steady-state request path allocation-free. A walker is
// single-use-at-a-time, like the machine it wraps.
type NativeWalker struct {
	m     *pram.Machine
	teamF func(*pram.TeamCtx)

	// Per-call state, set by Walk before dispatch.
	next      []int
	head, n   int
	vals, out []int // vals nil = rank mode
	s, stride int
	extraHead bool
	subOf     []int // sublist id per node
	local     []int // within-sublist rank / inclusive prefix per node
	nextSplit []int // per splitter: id of the next splitter, or -1
	subTotal  []int // per splitter: sublist node count / value sum
	subCount  []int // per splitter: sublist node count
	offset    []int // per splitter: rank / prefix at the sublist's start
	reached   int   // nodes on the splitter chain from the head (phase 2)
}

// NewNativeWalker returns a reusable native ranking kernel on m.
func NewNativeWalker(m *pram.Machine) *NativeWalker {
	w := &NativeWalker{m: m}
	w.teamF = w.team
	return w
}

func (w *NativeWalker) isSplit(v int) bool {
	return (v%w.stride == 0 && v/w.stride < w.s) || v == w.head
}

func (w *NativeWalker) splitID(v int) int {
	if w.extraHead && v == w.head {
		return w.s
	}
	return v / w.stride
}

func (w *NativeWalker) splitNode(j int) int {
	if j == w.s {
		return w.head
	}
	return j * w.stride
}

// team is the SPMD body every party executes.
func (w *NativeWalker) team(ctx *pram.TeamCtx) {
	next, vals := w.next, w.vals
	S := len(w.nextSplit)

	// Phase 1: walk each owned sublist from its splitter to the next
	// splitter (exclusive), recording sublist membership and the
	// within-sublist rank / inclusive prefix.
	lo, hi := ctx.Chunk(S)
	for j := lo; j < hi; j++ {
		u := w.splitNode(j)
		w.subOf[u] = j
		acc := 0
		if vals == nil {
			w.local[u] = 0
		} else {
			acc = vals[u]
			w.local[u] = acc
		}
		cnt := 1
		v := next[u]
		for v != list.Nil && !w.isSplit(v) {
			w.subOf[v] = j
			if vals == nil {
				w.local[v] = cnt
			} else {
				acc += vals[v]
				w.local[v] = acc
			}
			cnt++
			v = next[v]
		}
		if v == list.Nil {
			w.nextSplit[j] = -1
		} else {
			w.nextSplit[j] = w.splitID(v)
		}
		w.subCount[j] = cnt
		if vals == nil {
			w.subTotal[j] = cnt
		} else {
			w.subTotal[j] = acc
		}
	}
	ctx.Barrier()

	// Phase 2: the base-walk over the reduced splitter chain — S nodes,
	// done once by the coordinator while the others wait. Summing the
	// chain's node counts certifies reachability.
	if ctx.Worker == 0 {
		off, reached := 0, 0
		for j := w.splitID(w.head); j != -1; j = w.nextSplit[j] {
			w.offset[j] = off
			off += w.subTotal[j]
			reached += w.subCount[j]
		}
		w.reached = reached
	}
	ctx.Barrier()

	// Phase 3: expand — every node adds its sublist's offset. Skipped
	// by every party when some node is unreachable: its subOf was never
	// written.
	if w.reached != w.n {
		return
	}
	lo, hi = ctx.Chunk(w.n)
	for v := lo; v < hi; v++ {
		w.out[v] = w.offset[w.subOf[v]] + w.local[v]
	}
}

// Walk computes, for every node, offset-from-head information in one
// splitter-walk pass, and reports how many nodes the walk reached from
// the head. In rank mode (vals == nil) out[v] is the 0-based distance
// from the head; in prefix mode out[v] is the inclusive prefix sum of
// vals along the list. The returned slice comes from the machine's
// workspace (valid until the next Reset). The list must pass
// list.ValidateDegrees; out is then fully written exactly when
// reached == l.Len().
func (w *NativeWalker) Walk(l *list.List, vals []int) (out []int, reached int) {
	m := w.m
	n := l.Len()
	m.Phase("splitter-walk") // zero-cost span: native charges nothing to Stats
	wsp := m.Workspace()
	out = ws.IntsNoZero(wsp, n) // every cell written below
	if n == 0 {
		return out, 0
	}
	next, head := l.Next, l.Head
	parties := m.NativeParties()
	if parties == 1 || n < 64 {
		// Serial fast path: one walk in list order.
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

	// Splitters: nodes j·stride for j < s, plus the head if it is not
	// already one. Addresses are uniform over list positions for the
	// generator families here, so sublists stay balanced in expectation;
	// 8 sublists per party smooth out the tail.
	s := 8 * parties
	if s > n {
		s = n
	}
	stride := n / s
	extraHead := head%stride != 0 || head/stride >= s
	S := s
	if extraHead {
		S++
	}

	w.next, w.head, w.n, w.vals, w.out = next, head, n, vals, out
	w.s, w.stride, w.extraHead = s, stride, extraHead
	w.subOf = ws.IntsNoZero(wsp, n)
	w.local = ws.IntsNoZero(wsp, n)
	w.nextSplit = ws.IntsNoZero(wsp, S)
	w.subTotal = ws.IntsNoZero(wsp, S)
	w.subCount = ws.IntsNoZero(wsp, S)
	w.offset = ws.IntsNoZero(wsp, S)

	m.RunTeam(w.teamF)

	w.next, w.vals, w.out = nil, nil, nil
	w.subOf, w.local, w.nextSplit, w.subTotal, w.subCount, w.offset = nil, nil, nil, nil, nil, nil
	return out, w.reached
}

// Rank computes rank-from-head (0-based distance) with the
// splitter-walk kernel on a valid list. Output is identical to Rank's
// and WyllieRank's — ranks are unique.
func (w *NativeWalker) Rank(l *list.List) []int {
	out, _ := w.Walk(l, nil)
	return out
}

// Prefix computes inclusive data-dependent prefix sums with the
// splitter-walk kernel on a valid list. Output is identical to
// Prefix's.
func (w *NativeWalker) Prefix(l *list.List, vals []int) []int {
	out, _ := w.Walk(l, vals)
	return out
}

// NativeRank is the one-shot convenience form of NativeWalker.Rank (it
// allocates the walker; engines keep a cached one for the zero-alloc
// request path).
func NativeRank(m *pram.Machine, l *list.List) []int {
	return NewNativeWalker(m).Rank(l)
}

// NativePrefix is the one-shot convenience form of NativeWalker.Prefix.
func NativePrefix(m *pram.Machine, l *list.List, vals []int) []int {
	return NewNativeWalker(m).Prefix(l, vals)
}
