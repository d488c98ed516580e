package matching

import (
	"fmt"

	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/ws"
)

// NativeRunner is the Native executor's Match4: Runner's pipeline —
// iterated partition, column-sorted labels, WalkDown1, WalkDown2 with
// direct admission — run as ONE team dispatch on the machine's SPMD
// runtime, with every pointer's WalkDown step computed in closed form
// instead of simulated:
//
//   - Stage 1 labels the nodes: `rounds` applications of f, one
//     barrier each.
//   - Stage 2 gives each node v its row, rowOf[v]: its stable rank by
//     label within its column of x nodes, one counting pass per column.
//   - Stage 3 computes each pointer's step. Lemma 6 processes an
//     inter-row pointer v→s (rowOf[s] ≠ rowOf[v]) at its row's step of
//     WalkDown1, rowOf[v]. Lemma 7 puts a column's WalkDown2 in row r at
//     step A[r] + r, so an intra-row pointer runs at step
//     x + lab[v] + rowOf[v]: WalkDown2's steps follow WalkDown1's x.
//   - Stage 4 buckets the pointers by step on party 0, in one
//     histogram of the 3x-1 steps that the whole team shares.
//   - Stage 5 admits the pointers bucket by bucket, with a barrier
//     between non-empty steps and none inside one.
//
// No two pointers of one step are adjacent: in WalkDown1 an inter-row
// pointer's successor sits in another row, and in WalkDown2 adjacent
// pointers share a row but not a label. So the order inside a step
// cannot matter, and the matching is the simulated Match4's bit for
// bit — a property the equivalence suites assert.
//
// Schedule runs the same team body on a caller's matching partition:
// stage 1 copies the labels in and applies f zero times, so §4's
// ScheduleMatching shares stages 2–5 with Match4 here as it does in the
// simulated code.
//
// Nothing is charged to the simulated accounting (Result.Stats carries
// Time = Work = 0); phase spans still flow to an attached observer.
// Scratch comes from the machine's workspace and stays O(n + K) at any
// party count, so steady-state reuse at a fixed size performs no heap
// allocation. Not safe for concurrent use; the engine serializes
// requests onto it.
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
	lab0, lab1 []int // partition double buffers, then the steps and the order
	rowOf      []int // node → its row in its column
	count      []int // x label counters per party that owns a column
	bucket     []int // step → end of its bucket in the order array
	in, used   []bool

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

// team is the SPMD body: every party executes it over its own chunks.
func (r *NativeRunner) team(ctx *pram.TeamCtx) {
	l, n, x := r.l, r.n, r.x
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

	// Stage 2: rows. Column c holds nodes [c·x, c·x+x); a node's row is
	// its stable rank by label there, the row the simulated column sort
	// moves it to. The in/used clear rides along.
	if ctx.Worker == 0 {
		r.m.Phase("column-sort")
	}
	if cLo, cHi := ctx.Chunk(r.y); cLo < cHi {
		cnt := r.count[ctx.Worker*x : ctx.Worker*x+x]
		for c := cLo; c < cHi; c++ {
			col := lab[c*x : min(c*x+x, n)]
			rows := r.rowOf[c*x : c*x+len(col)]
			clear(cnt)
			for _, a := range col {
				cnt[a]++
			}
			sum := 0
			for a, k := range cnt {
				cnt[a] = sum
				sum += k
			}
			for j, a := range col {
				rows[j] = cnt[a]
				cnt[a]++
			}
		}
	}
	clear(r.in[lo:hi])
	clear(r.used[lo:hi])
	ctx.Barrier()

	// Stage 3: each pointer's step, written over its own label (no
	// other party reads lab[v] from here on); -1 marks the tail.
	for v := lo; v < hi; v++ {
		t := -1
		if s := next[v]; s != list.Nil {
			t = r.rowOf[v]
			if r.rowOf[s] == t {
				t += x + lab[v]
			}
		}
		lab[v] = t
	}
	ctx.Barrier()

	// Stage 4: a counting sort of the pointers by step into `out`, the
	// free partition buffer; bucket[t] ends step t's run. It runs on
	// party 0 alone: two streaming passes, where a histogram per party
	// would cost 3x words a party.
	order, bucket := out, r.bucket
	if ctx.Worker == 0 {
		clear(bucket)
		for _, t := range lab {
			if t >= 0 {
				bucket[t]++
			}
		}
		sum := 0
		for t, k := range bucket {
			bucket[t] = sum
			sum += k
		}
		for v, t := range lab {
			if t >= 0 {
				order[bucket[t]] = v
				bucket[t]++
			}
		}
		r.m.Phase("walkdown1")
	}
	ctx.Barrier()

	// Stage 5: admission, step by step. Steps below x are WalkDown1's,
	// the rest WalkDown2's. The last non-empty step needs no barrier
	// (the team join publishes it).
	start, last := 0, bucket[len(bucket)-1]
	for t, end := range bucket {
		if t == x && ctx.Worker == 0 {
			r.m.Phase("walkdown2")
		}
		if end == start {
			continue
		}
		bLo, bHi := ctx.Chunk(end - start)
		for _, v := range order[start+bLo : start+bHi] {
			r.admit(v, next[v])
		}
		start = end
		if end < last {
			ctx.Barrier()
		}
	}
}

// admit is the direct-admission process(v); safe because no two
// pointers of one step are adjacent.
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
// checks and errors, then stages 2–5 on the caller's labels. The
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
// then `rounds` applications of f — dispatches stages 1–5 as one team
// run, and fills res.
func (r *NativeRunner) run(l *list.List, given []int, K, rounds int, algo string, res *Result) {
	m := r.m
	w := m.Workspace()
	n := l.Len()
	r.l, r.n = l, n
	r.given, r.k, r.rounds = given, K, rounds
	// x rows = the label range, so that a column's sorted labels drive
	// WalkDown2 (Lemma 7); x may exceed n for tiny lists.
	x := max(K, 2)
	r.x, r.y = x, (n+x-1)/x

	if given == nil {
		m.Phase("partition") // Schedule's copy-in is no partition stage
	}
	r.lab0 = ws.IntsNoZero(w, n)
	r.lab1 = ws.IntsNoZero(w, n)
	r.rowOf = ws.IntsNoZero(w, n)
	// Only the parties that own a column count labels: at most
	// min(parties, y), so the counters take ≤ y·x < n + x words.
	r.count = ws.IntsNoZero(w, min(m.NativeParties(), r.y)*x)
	r.bucket = ws.IntsNoZero(w, 3*x-1) // party 0 clears it in the team
	r.in = ws.BoolsNoZero(w, n)        // cleared chunk-parallel in the team
	r.used = ws.BoolsNoZero(w, n)      // likewise

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
