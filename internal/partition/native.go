package partition

import (
	"parlist/internal/list"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// NativeRunner computes exactly the labels Iterate produces — k
// applications of the matching partition function starting from
// label[v] = address of v, tail reading the head as pseudo-successor —
// as a direct work-parallel kernel on the machine's team runtime: each
// party owns a contiguous node chunk, every round reads the previous
// round's labels and writes a double buffer (the CREW-style single
// pass; EREW and CREW produce identical labels, which the discipline
// tests assert), and one barrier per application is the only
// synchronization. Nothing is charged to the simulated accounting.
//
// The runner exists so the steady-state request path stays
// allocation-free: the team closure is bound once at construction, and
// per-call state travels through fields rather than captures. A runner
// is single-use-at-a-time, like the machine it wraps.
type NativeRunner struct {
	m     *pram.Machine
	teamF func(*pram.TeamCtx)

	// Per-call state, set by Iterate before dispatch.
	next       []int
	head, n, k int
	e          *Evaluator
	buf0, buf1 []int
}

// NewNativeRunner returns a reusable native partition kernel on m.
func NewNativeRunner(m *pram.Machine) *NativeRunner {
	r := &NativeRunner{m: m}
	r.teamF = r.team
	return r
}

// team is the SPMD body every party executes.
func (r *NativeRunner) team(ctx *pram.TeamCtx) {
	n, k, e, next, head := r.n, r.k, r.e, r.next, r.head
	lo, hi := ctx.Chunk(n)
	lab, out := r.buf0, r.buf1
	for v := lo; v < hi; v++ {
		lab[v] = v
	}
	ctx.Barrier()
	for rd := 0; rd < k; rd++ {
		e.ApplyRange(next, head, lab, out, lo, hi)
		// Round rd+1 reads what this round wrote; every party swaps its
		// local views identically, so the buffers stay in sync.
		ctx.Barrier()
		lab, out = out, lab
	}
}

// Iterate runs k applications of f and returns the final labels,
// identical to Iterate's (CREW ≡ EREW is asserted elsewhere). The
// returned slice comes from the machine's workspace when one is
// attached (valid until the next Reset), like IterateWith's.
func (r *NativeRunner) Iterate(l *list.List, e *Evaluator, k int) []int {
	m := r.m
	n := l.Len()
	m.Phase("partition") // zero-cost span: native charges nothing to Stats
	w := m.Workspace()
	r.buf0 = ws.IntsNoZero(w, n) // address init writes every cell
	r.buf1 = ws.IntsNoZero(w, n) // round 1 writes every cell before reads
	r.next, r.head, r.n, r.k, r.e = l.Next, l.Head, n, k, e
	m.RunTeam(r.teamF)
	out := r.buf0
	if k%2 == 1 {
		out = r.buf1
	}
	r.next, r.e, r.buf0, r.buf1 = nil, nil, nil, nil
	return out
}

// NativeIterate is the one-shot convenience form of NativeRunner (it
// allocates the runner; engines keep a cached one for the zero-alloc
// request path).
func NativeIterate(m *pram.Machine, l *list.List, e *Evaluator, k int) []int {
	return NewNativeRunner(m).Iterate(l, e, k)
}
