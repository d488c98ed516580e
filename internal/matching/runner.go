package matching

import (
	"fmt"

	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/sortint"
	"parlist/internal/ws"
)

// Runner is Match4's one implementation: steps 1–5 of §3 on a machine,
// with every PRAM round body bound once, at construction, to a closure
// that reads the Runner's fields. Match4 and ScheduleMatching build one
// per call; the engine keeps one per machine, and since per Run only
// the fields change, a warm machine + workspace pair executes an entire
// maximal matching without heap allocation.
//
// Output and scratch live in the machine's workspace: Result.In is only
// valid until the workspace is next reset. A Runner is not safe for
// concurrent use; the engine serializes requests onto it.
type Runner struct {
	m   *pram.Machine
	cfg Match4Config

	e *partition.Evaluator // step 1's f

	// Per-request bindings read by the bound closures.
	l    *list.List
	n    int
	x, y int

	lab, aux, out []int // partition label + double buffers

	cellNode, rowOf                    []int
	keyBuf, nodeBuf, permBuf, countBuf []int
	sortedBuf, sortedOff               []int
	pred, color                        []int
	in, used                           []bool
	states                             []walkState
	row                                int // current WalkDown1 row

	// Round bodies and batch groups, bound once.
	copyF, applyF                    func(int)
	sortF                            func(int)
	predInitF, predSetF, colorInitF  func(int)
	wd1F, wd2F                       func(int)
	partitionF, wd1BatchF, wd2BatchF func()
}

// NewRunner returns a Runner bound to m for Match4's default
// configuration with parameter i = iters: iterated partition with the
// direct MSB evaluator, column-major layout, direct admission.
func NewRunner(m *pram.Machine, iters int) (*Runner, error) {
	if iters < 1 {
		return nil, fmt.Errorf("matching: Runner parameter i must be ≥ 1, got %d", iters)
	}
	return newRunner(m, Match4Config{I: iters}), nil
}

// newRunner binds a Runner's round bodies for cfg. Step 1's route is
// the caller's choice: iterate runs Lemma 3's, and finish takes a
// partition computed elsewhere.
func newRunner(m *pram.Machine, cfg Match4Config) *Runner {
	r := &Runner{m: m, cfg: cfg}

	// Step 1: partition.StepWith's EREW pair, reading fields so the double-buffer
	// swap between rounds is visible.
	r.copyF = func(v int) { r.aux[v] = r.lab[v] }
	r.applyF = func(v int) {
		s := r.l.Next[v]
		if s == list.Nil {
			s = r.l.Head
		}
		r.out[v] = r.e.Apply(r.lab[v], r.aux[s])
	}
	r.partitionF = func() {
		for i := 0; i < r.cfg.I; i++ {
			r.m.ParFor(r.n, r.copyF)
			r.m.ParFor(r.n, r.applyF)
			r.lab, r.out = r.out, r.lab
		}
	}

	// Step 2: one column's counting sort. Before sorting, the node at a
	// cell is the cell's own index; sorting permutes the column's
	// pointers by set number. cellNode[idx] = node whose pointer
	// occupies cell idx afterwards; rowOf[v] = the row of node v's
	// cell; the column's window of sortedBuf = its sorted set numbers
	// (the A array driving WalkDown2). Columns touch disjoint ranges of
	// the flat scratch, so the parallel executors stay race-free.
	r.sortF = func(c int) {
		x := r.x
		ln := r.colLen(c)
		keys := r.keyBuf[c*x : c*x+ln]
		nodes := r.nodeBuf[c*x : c*x+ln]
		for j := 0; j < ln; j++ {
			v := r.cell(c, j)
			nodes[j] = v
			keys[j] = r.lab[v]
		}
		perm := sortint.SequentialByKeyInto(keys, x, r.permBuf[c*x:(c+1)*x], r.countBuf[c*(x+1):(c+1)*(x+1)])
		sorted := r.sortedBuf[r.sortedOff[c]:r.sortedOff[c+1]]
		for j := 0; j < ln; j++ {
			v := nodes[perm[j]]
			r.cellNode[r.cell(c, j)] = v
			r.rowOf[v] = j
			sorted[j] = keys[perm[j]]
		}
	}

	// predPar's two rounds, and the colouring mode's init round.
	r.predInitF = func(v int) { r.pred[v] = list.Nil }
	r.predSetF = func(v int) {
		if s := r.l.Next[v]; s != list.Nil {
			r.pred[s] = v
		}
	}
	r.colorInitF = func(v int) { r.color[v] = -1 }

	// Step 3: WalkDown1 over inter-row pointers at the current row.
	r.wd1F = func(c int) {
		if r.row >= r.colLen(c) {
			return
		}
		v := r.cellNode[r.cell(c, r.row)]
		s := r.l.Next[v]
		if s == list.Nil || r.rowOf[v] == r.rowOf[s] {
			return
		}
		r.process(v, s)
	}
	r.wd1BatchF = func() {
		for r.row = 0; r.row < r.x; r.row++ {
			r.m.ParFor(r.y, r.wd1F)
		}
	}

	// Step 4: WalkDown2 automaton step over intra-row pointers.
	r.wd2F = func(c int) {
		a := r.sortedBuf[r.sortedOff[c]:r.sortedOff[c+1]]
		row := r.states[c].advance(a, len(a))
		if row < 0 {
			return
		}
		v := r.cellNode[r.cell(c, row)]
		s := r.l.Next[v]
		if s == list.Nil || r.rowOf[v] != r.rowOf[s] {
			return
		}
		r.process(v, s)
	}
	r.wd2BatchF = func() {
		for step := 0; step <= 2*r.x-2; step++ {
			r.m.ParFor(r.y, r.wd2F)
		}
	}
	return r
}

// cell maps (column c, row j) to a storage index, and colLen gives
// column c's height; together they partition the cells [0, n) exactly.
// The default column-major layout keeps each column contiguous; the
// RowMajor ablation strides it — identical step counts (the PRAM model
// is uniform), different cache behaviour.
func (r *Runner) cell(c, j int) int {
	if r.cfg.RowMajor {
		return j*r.y + c
	}
	return c*r.x + j
}

func (r *Runner) colLen(c int) int {
	if r.cfg.RowMajor {
		h := r.n / r.y
		if c < r.n%r.y {
			h++
		}
		return h
	}
	return min(r.x, r.n-c*r.x)
}

// process handles pointer ⟨v, s⟩ when its WalkDown step arrives. The
// schedule never processes adjacent pointers in the same step, so both
// modes may read and update their neighbours' state without conflicts.
func (r *Runner) process(v, s int) {
	if !r.cfg.ViaColoring {
		// Direct admission: a pointer joins the matching iff neither
		// endpoint is taken; every pointer is processed exactly once,
		// so the result is maximal by the usual greedy argument.
		if !r.used[v] && !r.used[s] {
			r.used[v] = true
			r.used[s] = true
			r.in[v] = true
		}
		return
	}
	// Paper-literal: greedy 3-colouring, converted by Match1 steps 3–4
	// in step 5.
	var taken [3]bool
	if p := r.pred[v]; p != list.Nil && r.color[p] >= 0 {
		taken[r.color[p]] = true
	}
	if r.l.Next[s] != list.Nil && r.color[s] >= 0 {
		taken[r.color[s]] = true
	}
	for c, t := range taken {
		if !t {
			r.color[v] = c
			return
		}
	}
	panic("match4: no free colour (greedy invariant violated)")
}

// Run computes a maximal matching of l into res. res.In aliases the
// machine's workspace (valid until the next workspace reset); callers
// that retain the matching must copy it. The machine is NOT reset here —
// the caller owns Reset/workspace lifecycle, exactly as with Match4.
func (r *Runner) Run(l *list.List, res *Result) error {
	if l == nil {
		return fmt.Errorf("matching: Runner.Run with nil list")
	}
	n := l.Len()
	if n < 2 {
		*res = Result{Algorithm: "match4", In: ws.Bools(r.m.Workspace(), n), Stats: res.Stats}
		r.m.SnapshotInto(&res.Stats)
		return nil
	}
	// A direct evaluator has no tables to replicate, so unlike Match4
	// there is nothing to charge before step 1.
	if wd := width(n); r.e == nil || r.e.Width() != wd {
		r.e = partition.NewEvaluator(partition.MSB, wd)
	}
	r.iterate(l, r.e, res)
	return nil
}

// iterate runs step 1 by Lemma 3 — cfg.I applications of e's f, fused
// into one dispatch group — and then steps 2–5.
func (r *Runner) iterate(l *list.List, e *partition.Evaluator, res *Result) {
	m, w, n := r.m, r.m.Workspace(), l.Len()
	r.l, r.n, r.e = l, n, e
	m.Phase("partition")
	r.lab = ws.IntsNoZero(w, n)
	for i := range r.lab {
		r.lab[i] = i // Match1 step 1: label[v] := address of v
	}
	r.aux = ws.IntsNoZero(w, n)
	r.out = ws.IntsNoZero(w, n)
	m.Batch(r.partitionF)
	r.finish(l, r.lab, partition.RangeAfter(n, r.cfg.I), r.cfg.I, 0, res)
}

// finish runs steps 2–5 on lab, a matching partition of l's n ≥ 2
// pointers with label range K, into res; rounds and tableSize record
// how step 1 computed it.
func (r *Runner) finish(l *list.List, lab []int, K, rounds, tableSize int, res *Result) {
	m, w, n := r.m, r.m.Workspace(), l.Len()
	r.l, r.n, r.lab = l, n, lab
	// x rows = the label range (set numbers must lie in [0, x) for the
	// WalkDown2 automaton); short final/only columns are handled by
	// colLen, so x may exceed n for tiny lists.
	x := max(K, 2)
	y := (n + x - 1) / x
	r.x, r.y = x, y

	// Step 2: per-column counting sorts. Each column costs O(x); with p
	// processors the round is ⌈y/p⌉·O(x) = O(n/p + x) time.
	m.Phase("column-sort")
	r.cellNode = ws.IntsNoZero(w, n) // the sort round writes every cell
	r.rowOf = ws.IntsNoZero(w, n)
	r.keyBuf = ws.IntsNoZero(w, y*x)
	r.nodeBuf = ws.IntsNoZero(w, y*x)
	r.permBuf = ws.IntsNoZero(w, y*x)
	r.countBuf = ws.IntsNoZero(w, y*(x+1)) // SequentialByKeyInto zeroes its window
	r.sortedBuf = ws.IntsNoZero(w, n)
	r.sortedOff = ws.IntsNoZero(w, y+1)
	r.sortedOff[0] = 0
	for c := 0; c < y; c++ {
		r.sortedOff[c+1] = r.sortedOff[c] + r.colLen(c)
	}
	m.ParForCost(y, int64(4*x+4), r.sortF)

	r.pred = ws.IntsNoZero(w, n)
	m.ParFor(n, r.predInitF)
	m.ParFor(n, r.predSetF)
	if r.cfg.ViaColoring {
		r.color = ws.IntsNoZero(w, n) // the init round writes every cell
		m.ParFor(n, r.colorInitF)
	} else {
		r.in = ws.Bools(w, n)
		r.used = ws.Bools(w, n)
	}

	// Step 3: WalkDown1 over inter-row pointers, row by row (Lemma 6).
	// The x row sweeps are consecutive rounds over the same column
	// range — one fused pool dispatch for the whole walk.
	m.Phase("walkdown1")
	m.Batch(r.wd1BatchF)

	// Step 4: WalkDown2 over intra-row pointers, 2x-1 pipelined steps
	// (Lemma 7; Corollary 1 guarantees every cell is reached), likewise
	// fused. The automaton states are the one scratch the workspace
	// cannot serve (struct-typed); the slice persists on the Runner and
	// is re-zeroed in place.
	m.Phase("walkdown2")
	if cap(r.states) < y {
		r.states = make([]walkState, y)
	}
	r.states = r.states[:y]
	clear(r.states)
	m.Batch(r.wd2BatchF)

	// Step 5: in colouring mode, convert the proper 3-colouring into a
	// maximal matching with Match1 steps 3–4; in direct mode the
	// admission is already maximal.
	if r.cfg.ViaColoring {
		m.Phase("cut+walk")
		r.in = CutAndWalk(m, l, r.color, 3, r.pred)
	}

	res.Algorithm = "match4"
	res.In = r.in
	res.Size = Count(r.in)
	res.Sets = K
	res.Rounds = rounds
	res.TableSize = tableSize
	m.SnapshotInto(&res.Stats)
}
