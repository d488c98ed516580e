package matching

import (
	"errors"
	"fmt"

	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/sortint"
	"parlist/internal/ws"
)

// Match4Config tunes the optimized algorithm of §3.
type Match4Config struct {
	// I is the adjustable parameter i: step 1 produces an
	// O(log^(i) n)-set partition. Must be ≥ 1; 3 is a good default.
	I int
	// UseTable selects Lemma 5's O(n·log i/p + log i) partition for
	// step 1; otherwise Lemma 3's O(i·n/p) iterated partition is used.
	UseTable bool
	// MaxTableSize and CRCWBuild configure the table route.
	MaxTableSize int
	CRCWBuild    bool
	// ViaColoring follows the paper's literal pipeline: WalkDown1/2
	// 3-colour the pointers, then Match1 steps 3–4 convert the colouring
	// into a maximal matching. The default (false) admits the matching
	// greedily inside the WalkDowns themselves — the same schedule and
	// the same safety argument (adjacent pointers are never processed in
	// the same step), with a smaller constant factor. Both modes yield a
	// verified maximal matching; the ablation bench compares them.
	ViaColoring bool
	// RowMajor stores the 2-D view row-major instead of column-major.
	// Simulated step counts are identical (the PRAM model is uniform);
	// wall-clock differs because column-major keeps each processor's
	// column sort contiguous in memory — the layout ablation DESIGN.md
	// calls out.
	RowMajor bool
}

// Match4 computes a maximal matching with the paper's processor
// scheduling optimization (§3, Theorems 1–2):
//
//	Step 1. partition the pointers into x = O(log^(i) n) matching sets;
//	Step 2. view the array as x rows × y = ⌈n/x⌉ columns (column-major,
//	        so each column is contiguous) and let each processor sort
//	        its columns' pointers by set number with a sequential
//	        counting sort — O(x) per column, no global sort;
//	Step 3. WalkDown1: sweep the rows top to bottom 3-colouring the
//	        inter-row pointers (Lemma 6);
//	Step 4. WalkDown2: run each column's count/index automaton for
//	        2x-1 steps, 3-colouring the intra-row pointers in pipelined
//	        fashion (Lemma 7, Corollaries 1–2);
//	Step 5. cut at local colour minima and walk the constant-length
//	        sublists (Match1 steps 3–4).
//
// Total time O(n·log i/p + log^(i) n + log i) with the table route
// (Theorem 2), and O(n/p + log^(i) n) for constant i — optimal using up
// to p = O(n / log^(i) n) processors (Theorem 1).
func Match4(m *pram.Machine, l *list.List, e *partition.Evaluator, cfg Match4Config) (*Result, error) {
	n := l.Len()
	if cfg.I < 1 {
		return nil, fmt.Errorf("match4: parameter i must be ≥ 1, got %d", cfg.I)
	}
	if e == nil {
		e = partition.NewEvaluator(partition.MSB, width(n))
	}
	if n < 2 {
		return &Result{Algorithm: "match4", In: make([]bool, n), Stats: m.Snapshot()}, nil
	}
	chargeEvaluatorReplication(m, e)

	// Step 1: the partition (Lemma 5 table route or Lemma 3 iteration).
	if cfg.UseTable {
		lab, rng, t, jr, err := PartitionTable(m, l, e, cfg.I, Match3Config{MaxTableSize: cfg.MaxTableSize, CRCWBuild: cfg.CRCWBuild})
		if err != nil {
			return nil, fmt.Errorf("match4: %w", err)
		}
		return match4Finish(m, l, lab, rng, jr, t.Size(), cfg)
	}
	m.Phase("partition")
	lab, K := PartitionIterated(m, l, e, cfg.I)
	return match4Finish(m, l, lab, K, cfg.I, 0, cfg)
}

// ScheduleMatching is §4's takeaway as a standalone primitive: "The
// processor scheduling technique presented in this paper is powerful
// enough to yield an optimal algorithm with timing O(t) for computing a
// maximal matching set for a linked list provided that the pointers of
// the list ha[ve] already been partitioned into O(t) matching sets."
// Given ANY matching partition of l's pointers — labels in [0, K) with
// consecutive pointers labelled differently — it runs Match4's steps
// 2–5 (column sorts + WalkDown1/WalkDown2 + admission) and returns a
// maximal matching in O(n/p + K) time. The partition may come from the
// f machinery, from Bisection, or from any external source.
func ScheduleMatching(m *pram.Machine, l *list.List, lab []int, K int) (*Result, error) {
	n := l.Len()
	if err := checkSchedule(l, lab, K); err != nil {
		return nil, err
	}
	// The partition check is one O(n/p) round.
	m.Charge(int64((n+m.Processors()-1)/m.Processors()), int64(n))
	if n < 2 {
		return &Result{Algorithm: "schedule", In: make([]bool, n), Stats: m.Snapshot()}, nil
	}
	// The WalkDown automaton indexes the tail's cell too; its pseudo
	// label only needs to be in range.
	tail := l.Tail()
	if lab[tail] < 0 || lab[tail] >= K {
		lab = append([]int(nil), lab...)
		lab[tail] = 0
	}
	r, err := match4Finish(m, l, lab, K, 0, 0, Match4Config{})
	if err != nil {
		return nil, err
	}
	r.Algorithm = "schedule"
	return r, nil
}

// ErrBadSchedule is the sentinel every ScheduleMatching input error
// wraps: callers test errors.Is(err, ErrBadSchedule) to tell a
// malformed partition, the caller's fault, from a failure.
var ErrBadSchedule = errors.New("matching: invalid ScheduleMatching input")

// scheduleError is a ScheduleMatching input error: its own message,
// ErrBadSchedule's identity.
type scheduleError struct{ msg string }

func (e *scheduleError) Error() string { return e.msg }
func (e *scheduleError) Unwrap() error { return ErrBadSchedule }

func badSchedule(format string, args ...any) error {
	return &scheduleError{msg: fmt.Sprintf(format, args...)}
}

// checkSchedule is ScheduleMatching's input contract, shared by the
// simulated and native paths: one label per node, 1 ≤ K ≤ max(n, 6),
// every pointer's label in [0, K) (the tail's pseudo-label is free),
// and the labels a matching partition. Every error wraps
// ErrBadSchedule.
//
// The bound on K: address labels need K ≤ n, and every f-range
// RangeAfter(n, k ≥ 1) is at most max(n, 6). Both schedule paths size
// their column-sort scratch by K, so a larger K would only buy memory
// that no pointer fills — at K = 2^30 enough to end the process. The
// WalkDown safety argument (no two adjacent pointers processed in one
// step) relies on the partition property, so inputs that lack it are
// rejected rather than risking an unsafe schedule.
func checkSchedule(l *list.List, lab []int, K int) error {
	n := l.Len()
	if len(lab) != n {
		return badSchedule("matching: ScheduleMatching labels %d, want %d", len(lab), n)
	}
	if K < 1 {
		return badSchedule("matching: ScheduleMatching range %d < 1", K)
	}
	if mx := max(n, 6); K > mx {
		return badSchedule("matching: ScheduleMatching range %d > max(n, 6) = %d", K, mx)
	}
	for v, s := range l.Next {
		if s == list.Nil {
			continue
		}
		if lab[v] < 0 || lab[v] >= K {
			return badSchedule("matching: label %d of pointer %d outside [0,%d)", lab[v], v, K)
		}
	}
	if err := partition.Verify(l, lab); err != nil {
		return badSchedule("matching: ScheduleMatching input is not a matching partition: %v", err)
	}
	return nil
}

// match4Finish runs steps 2–5 on a computed partition with label range K.
func match4Finish(m *pram.Machine, l *list.List, lab []int, K, rounds, tableSize int, cfg Match4Config) (*Result, error) {
	viaColoring := cfg.ViaColoring
	n := l.Len()
	// x rows = the label range (set numbers must lie in [0, x) for the
	// WalkDown2 automaton); short final/only columns are handled by
	// colLen, so x may exceed n for tiny lists.
	x := K
	if x < 2 {
		x = 2
	}
	y := (n + x - 1) / x
	// cell maps (column, row-within-column) to a storage index, and
	// colLen gives the column height; together they partition the cells
	// [0, n) exactly. The default column-major layout keeps each column
	// contiguous; the row-major ablation strides it — identical step
	// counts (the PRAM model is uniform), different cache behaviour.
	cell := func(c, j int) int { return c*x + j }
	colLen := func(c int) int {
		lo := c * x
		hi := lo + x
		if hi > n {
			hi = n
		}
		return hi - lo
	}
	if cfg.RowMajor {
		cell = func(c, j int) int { return j*y + c }
		colLen = func(c int) int {
			full := n / y
			if c < n%y {
				full++
			}
			return full
		}
	}

	// Step 2: per-column counting sorts. Before sorting, the node at a
	// cell is the cell's own index; sorting permutes the column's
	// pointers by set number. cellNode[idx] = node whose pointer occupies
	// cell idx afterwards; rowOf[v] = the row of node v's cell;
	// colKeys[c] = the column's sorted set numbers (the A array driving
	// WalkDown2). Each column costs O(x); with p processors the round is
	// ⌈y/p⌉·O(x) = O(n/p + x) time.
	m.Phase("column-sort")
	wk := m.Workspace()
	cellNode := ws.IntsNoZero(wk, n) // the sort round writes every cell
	rowOf := ws.IntsNoZero(wk, n)
	colKeys := make([][]int, y)
	// Flat per-column scratch, sliced by column index: columns touch
	// disjoint ranges, so the parallel executors stay race-free, and the
	// round performs O(1) allocations instead of O(y) per-column ones
	// (the in-body counting sort still allocates its counters).
	keyBuf := ws.IntsNoZero(wk, y*x)
	nodeBuf := ws.IntsNoZero(wk, y*x)
	permBuf := ws.IntsNoZero(wk, y*x)
	countBuf := ws.IntsNoZero(wk, y*(x+1)) // SequentialByKeyInto zeroes its window
	sortedBuf := ws.IntsNoZero(wk, n)
	sortedOff := ws.IntsNoZero(wk, y+1)
	sortedOff[0] = 0
	for c := 0; c < y; c++ {
		sortedOff[c+1] = sortedOff[c] + colLen(c)
	}
	sortCost := int64(4*x + 4)
	m.ParForCost(y, sortCost, func(c int) {
		ln := colLen(c)
		keys := keyBuf[c*x : c*x+ln]
		nodes := nodeBuf[c*x : c*x+ln]
		for j := 0; j < ln; j++ {
			v := cell(c, j)
			nodes[j] = v
			keys[j] = lab[v]
		}
		perm := sortint.SequentialByKeyInto(keys, x, permBuf[c*x:(c+1)*x], countBuf[c*(x+1):(c+1)*(x+1)])
		sorted := sortedBuf[sortedOff[c]:sortedOff[c+1]]
		for j := 0; j < ln; j++ {
			v := nodes[perm[j]]
			cellNode[cell(c, j)] = v
			rowOf[v] = j
			sorted[j] = keys[perm[j]]
		}
		colKeys[c] = sorted
	})

	pred := predPar(m, l)

	isPtr := func(v int) bool { return l.Next[v] != list.Nil }
	intraRow := func(v int) bool { return rowOf[v] == rowOf[l.Next[v]] }

	// process(v) handles pointer ⟨v, suc(v)⟩ when its WalkDown step
	// arrives. The schedule guarantees adjacent pointers are never
	// processed in the same step, so both modes may read/update their
	// neighbours' state without conflicts.
	var process func(v int)
	var color []int
	var in []bool
	if viaColoring {
		// Paper-literal: greedy 3-colouring, converted by Match1 steps
		// 3–4 afterwards.
		color = ws.IntsNoZero(wk, n) // init round writes every cell
		m.ParFor(n, func(v int) { color[v] = -1 })
		process = func(v int) {
			used := [3]bool{}
			if p := pred[v]; p != list.Nil && color[p] >= 0 {
				used[color[p]] = true
			}
			if s := l.Next[v]; isPtr(s) && color[s] >= 0 {
				used[color[s]] = true
			}
			for c := 0; c < 3; c++ {
				if !used[c] {
					color[v] = c
					return
				}
			}
			panic("match4: no free colour (greedy invariant violated)")
		}
	} else {
		// Direct admission: a pointer joins the matching iff neither
		// endpoint is taken; every pointer is processed exactly once, so
		// the result is maximal by the usual greedy argument.
		in = ws.Bools(wk, n)
		used := ws.Bools(wk, n)
		process = func(v int) {
			s := l.Next[v]
			if !used[v] && !used[s] {
				used[v] = true
				used[s] = true
				in[v] = true
			}
		}
	}

	// Step 3: WalkDown1 over inter-row pointers, row by row (Lemma 6).
	// The x row sweeps are consecutive rounds over the same column range
	// — one fused pool dispatch for the whole walk.
	m.Phase("walkdown1")
	m.Batch(func(b *pram.Batch) {
		for r := 0; r < x; r++ {
			b.ParFor(y, func(c int) {
				if r >= colLen(c) {
					return
				}
				v := cellNode[cell(c, r)]
				if !isPtr(v) || intraRow(v) {
					return
				}
				process(v)
			})
		}
	})

	// Step 4: WalkDown2 over intra-row pointers, 2x-1 pipelined steps
	// (Lemma 7; Corollary 1 guarantees every cell is reached), likewise
	// fused into a single dispatch group.
	m.Phase("walkdown2")
	states := make([]walkState, y)
	m.Batch(func(b *pram.Batch) {
		for step := 0; step <= 2*x-2; step++ {
			b.ParFor(y, func(c int) {
				r := states[c].advance(colKeys[c], colLen(c))
				if r < 0 {
					return
				}
				v := cellNode[cell(c, r)]
				if !isPtr(v) || !intraRow(v) {
					return
				}
				process(v)
			})
		}
	})

	// Step 5: in colouring mode, convert the proper 3-colouring into a
	// maximal matching with Match1 steps 3–4; in direct mode the
	// admission is already maximal.
	if viaColoring {
		m.Phase("cut+walk")
		in = CutAndWalk(m, l, color, 3, pred)
	}

	return &Result{
		Algorithm: "match4",
		In:        in,
		Size:      Count(in),
		Sets:      K,
		Rounds:    rounds,
		TableSize: tableSize,
		Stats:     m.Snapshot(),
	}, nil
}
