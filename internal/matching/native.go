package matching

import (
	"fmt"

	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/sortint"
	"parlist/internal/ws"
)

// NativeRunner is the Native executor's Match4: the same four-stage
// pipeline as Runner — iterated partition, per-column counting sorts,
// WalkDown1, WalkDown2 with direct admission — executed as ONE team
// dispatch on the machine's SPMD runtime instead of ~3x simulated
// round dispatches. Each party owns a contiguous chunk of nodes (for
// the partition rounds) and of columns (for the sorts and WalkDowns),
// and the only synchronization is a barrier per genuine dependence
// edge: one per partition application, one after the sorts, one per
// WalkDown1 row and one per WalkDown2 automaton step. Within a step
// the WalkDown schedule never processes two adjacent pointers (Lemmas
// 6–7), so every step's admission writes touch disjoint node pairs and
// the outcome is bit-identical to the simulated Match4's — a property
// the equivalence suites assert.
//
// Schedule runs the same team body on a caller's matching partition:
// stage 1 copies the labels in and applies f zero times, so §4's
// ScheduleMatching shares stages 2–4 with Match4 here as it does in the
// simulated code.
//
// Nothing is charged to the simulated accounting (Result.Stats carries
// Time = Work = 0); phase spans still flow to an attached observer.
// Scratch comes from the machine's workspace, so steady-state reuse at
// a fixed size performs no heap allocation, matching Runner's
// zero-alloc contract. Not safe for concurrent use; the engine
// serializes requests onto it.
type NativeRunner struct {
	m     *pram.Machine
	iters int

	e      *partition.Evaluator
	eWidth int

	// Per-request bindings read by the team body.
	l          *list.List
	n, x, y    int
	k          int   // label range K: stage 1's labels lie in [0, k)
	rounds     int   // applications of f in stage 1 (0 for Schedule)
	given      []int // Schedule's caller labels; nil = addresses
	lab0, lab1 []int // partition double buffers; parity picks the result

	cellNode, rowOf                    []int
	keyBuf, nodeBuf, permBuf, countBuf []int
	sortedBuf, sortedOff               []int
	in, used                           []bool
	states                             []walkState

	teamF func(*pram.TeamCtx) // the whole pipeline, bound once
}

// NewNativeRunner returns a runner bound to m computing maximal
// matchings equivalent to Match4 with parameter i = iters.
func NewNativeRunner(m *pram.Machine, iters int) (*NativeRunner, error) {
	if iters < 1 {
		return nil, fmt.Errorf("matching: NativeRunner parameter i must be ≥ 1, got %d", iters)
	}
	r := &NativeRunner{m: m, iters: iters}
	r.teamF = r.team
	return r, nil
}

// Machine returns the machine the runner dispatches on.
func (r *NativeRunner) Machine() *pram.Machine { return r.m }

// colLen is the column height in the column-major layout.
func (r *NativeRunner) colLen(c int) int {
	lo := c * r.x
	hi := lo + r.x
	if hi > r.n {
		hi = r.n
	}
	return hi - lo
}

// team is the SPMD body: every party executes it over its own chunks.
func (r *NativeRunner) team(ctx *pram.TeamCtx) {
	l, n, x, y := r.l, r.n, r.x, r.y
	next, head := l.Next, l.Head

	// Stage 1: iterated partition, CREW-style single pass per
	// application (identical labels to the EREW pair, as the discipline
	// tests assert). Each party swaps its buffer views identically, so
	// after the loop `lab` names the same slice in every party.
	lo, hi := ctx.Chunk(n)
	lab, out := r.lab0, r.lab1
	if r.given == nil {
		for v := lo; v < hi; v++ {
			lab[v] = v // Match1 step 1: label[v] := address of v
		}
	} else {
		// The input checks put every pointer's label in [0, k), so only
		// the tail's pseudo-label can be out of range; ScheduleMatching
		// reads it as 0 too.
		for v := lo; v < hi; v++ {
			g := r.given[v]
			if g < 0 || g >= r.k {
				g = 0
			}
			lab[v] = g
		}
	}
	ctx.Barrier()
	for i := 0; i < r.rounds; i++ {
		r.e.ApplyRange(next, head, lab, out, lo, hi)
		ctx.Barrier()
		lab, out = out, lab
	}

	// Stage 2: per-column counting sorts plus the in/used clear, all
	// chunk-owned, one barrier before the WalkDowns read any of it.
	if ctx.Worker == 0 {
		r.m.Phase("column-sort")
	}
	cLo, cHi := ctx.Chunk(y)
	for c := cLo; c < cHi; c++ {
		ln := r.colLen(c)
		keys := r.keyBuf[c*x : c*x+ln]
		nodes := r.nodeBuf[c*x : c*x+ln]
		for j := 0; j < ln; j++ {
			v := c*x + j
			nodes[j] = v
			keys[j] = lab[v]
		}
		perm := sortint.SequentialByKeyInto(keys, x, r.permBuf[c*x:(c+1)*x], r.countBuf[c*(x+1):(c+1)*(x+1)])
		sorted := r.sortedBuf[r.sortedOff[c]:r.sortedOff[c+1]]
		for j := 0; j < ln; j++ {
			v := nodes[perm[j]]
			r.cellNode[c*x+j] = v
			r.rowOf[v] = j
			sorted[j] = keys[perm[j]]
		}
		r.states[c] = walkState{}
	}
	for v := lo; v < hi; v++ {
		r.in[v] = false
		r.used[v] = false
	}
	ctx.Barrier()

	// Stage 3: WalkDown1 (Lemma 6) — inter-row pointers, row by row.
	// One barrier per row keeps the simulated schedule's step structure;
	// within a row no two processed pointers are adjacent, so the
	// cross-chunk admission writes are conflict-free.
	if ctx.Worker == 0 {
		r.m.Phase("walkdown1")
	}
	for row := 0; row < x; row++ {
		for c := cLo; c < cHi; c++ {
			if row >= r.colLen(c) {
				continue
			}
			v := r.cellNode[c*x+row]
			s := next[v]
			if s == list.Nil || r.rowOf[v] == r.rowOf[s] {
				continue
			}
			r.admit(v, s)
		}
		ctx.Barrier()
	}

	// Stage 4: WalkDown2 (Lemma 7) — intra-row pointers, 2x-1 pipelined
	// automaton steps; the final step needs no barrier (the team join
	// publishes it).
	if ctx.Worker == 0 {
		r.m.Phase("walkdown2")
	}
	for step := 0; step <= 2*x-2; step++ {
		for c := cLo; c < cHi; c++ {
			a := r.sortedBuf[r.sortedOff[c]:r.sortedOff[c+1]]
			row := r.states[c].advance(a, len(a))
			if row < 0 {
				continue
			}
			v := r.cellNode[c*x+row]
			s := next[v]
			if s == list.Nil || r.rowOf[v] != r.rowOf[s] {
				continue
			}
			r.admit(v, s)
		}
		if step < 2*x-2 {
			ctx.Barrier()
		}
	}
}

// admit is the direct-admission process(v); safe because the WalkDown
// schedule never processes adjacent pointers in the same step.
func (r *NativeRunner) admit(v, s int) {
	if !r.used[v] && !r.used[s] {
		r.used[v] = true
		r.used[s] = true
		r.in[v] = true
	}
}

// Run computes a maximal matching of l into res. res.In aliases the
// machine's workspace (valid until the next workspace reset); callers
// that retain the matching must copy it. The machine is NOT reset here
// — the caller owns the Reset/workspace lifecycle, exactly as with
// Runner.
func (r *NativeRunner) Run(l *list.List, res *Result) error {
	if l == nil {
		return fmt.Errorf("matching: NativeRunner.Run with nil list")
	}
	n := l.Len()
	if n < 2 {
		r.empty(n, "match4", res)
		return nil
	}
	if wd := width(n); r.e == nil || r.eWidth != wd {
		r.e = partition.NewEvaluator(partition.MSB, wd)
		r.eWidth = wd
	}
	r.run(l, nil, partition.RangeAfter(n, r.iters), r.iters, "match4", res)
	return nil
}

// Used reports, per node, whether the last Run's or Schedule's
// matching covers it, as the tail or the head of a matched pointer.
// For a node v outside res.In, used[v] says that v's predecessor is a
// matched tail. It aliases the workspace, as res.In does.
func (r *NativeRunner) Used() []bool { return r.used }

// Schedule is ScheduleMatching on the team runtime: the same input
// checks and errors, then stages 2–4 on the caller's labels. The
// result matches ScheduleMatching's bit for bit; res.In aliases the
// workspace, as with Run.
func (r *NativeRunner) Schedule(l *list.List, lab []int, K int, res *Result) error {
	if l == nil {
		return fmt.Errorf("matching: NativeRunner.Schedule with nil list")
	}
	if err := checkSchedule(l, lab, K); err != nil {
		return err
	}
	n := l.Len()
	if n < 2 {
		r.empty(n, "schedule", res)
		return nil
	}
	r.run(l, lab, K, 0, "schedule", res)
	return nil
}

// empty answers a list too short to hold two pointers: nothing matched.
func (r *NativeRunner) empty(n int, algo string, res *Result) {
	res.Algorithm = algo
	res.In = ws.Bools(r.m.Workspace(), n)
	r.used = ws.Bools(r.m.Workspace(), n)
	res.Size, res.Sets, res.Rounds, res.TableSize = 0, 0, 0, 0
	r.m.SnapshotInto(&res.Stats)
}

// run binds one request — labels given (nil = addresses) in [0, K),
// then `rounds` applications of f — dispatches stages 1–4 as one team
// run, and fills res.
func (r *NativeRunner) run(l *list.List, given []int, K, rounds int, algo string, res *Result) {
	m := r.m
	w := m.Workspace()
	n := l.Len()
	r.l, r.n = l, n
	r.given, r.k, r.rounds = given, K, rounds

	x := K
	if x < 2 {
		x = 2
	}
	r.x = x
	r.y = (n + x - 1) / x
	y := r.y

	if given == nil {
		m.Phase("partition") // Schedule's copy-in is no partition stage
	}
	r.lab0 = ws.IntsNoZero(w, n)
	r.lab1 = ws.IntsNoZero(w, n)
	r.cellNode = ws.IntsNoZero(w, n)
	r.rowOf = ws.IntsNoZero(w, n)
	r.keyBuf = ws.IntsNoZero(w, y*x)
	r.nodeBuf = ws.IntsNoZero(w, y*x)
	r.permBuf = ws.IntsNoZero(w, y*x)
	r.countBuf = ws.IntsNoZero(w, y*(x+1))
	r.sortedBuf = ws.IntsNoZero(w, n)
	r.sortedOff = ws.IntsNoZero(w, y+1)
	r.sortedOff[0] = 0
	for c := 0; c < y; c++ {
		r.sortedOff[c+1] = r.sortedOff[c] + r.colLen(c)
	}
	r.in = ws.BoolsNoZero(w, n)   // cleared chunk-parallel in the team
	r.used = ws.BoolsNoZero(w, n) // likewise
	if cap(r.states) < y {
		r.states = make([]walkState, y)
	}
	r.states = r.states[:y]

	m.RunTeam(r.teamF)
	r.given = nil

	res.Algorithm = algo
	res.In = r.in
	res.Size = Count(r.in)
	res.Sets = K
	res.Rounds = rounds
	res.TableSize = 0
	m.SnapshotInto(&res.Stats)
}
