package matching

import (
	"errors"
	"fmt"

	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
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
// to p = O(n / log^(i) n) processors (Theorem 1). Each call builds a
// Runner, Match4's one implementation; the engine keeps a warm one.
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
	r, res := newRunner(m, cfg), new(Result)
	if cfg.UseTable {
		lab, rng, t, jr, err := PartitionTable(m, l, e, cfg.I, Match3Config{MaxTableSize: cfg.MaxTableSize, CRCWBuild: cfg.CRCWBuild})
		if err != nil {
			return nil, fmt.Errorf("match4: %w", err)
		}
		r.finish(l, lab, rng, jr, t.Size(), res)
		return res, nil
	}
	r.iterate(l, e, res)
	return res, nil
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
	res := new(Result)
	newRunner(m, Match4Config{}).finish(l, lab, K, 0, 0, res)
	res.Algorithm = "schedule"
	return res, nil
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
