package engine

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"parlist/internal/color"
	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/verify"
)

// nativeEngines returns a native-executor engine (4 real workers, so
// the team kernels actually fan out) and a sequential reference engine.
func nativeEngines(t *testing.T) (native, seq *Engine) {
	t.Helper()
	native = New(Config{Processors: 8, Exec: pram.Native, Workers: 4})
	t.Cleanup(func() { native.Close() })
	seq = New(Config{Processors: 8})
	t.Cleanup(func() { seq.Close() })
	return native, seq
}

// TestNativeMatchesSequentialAllOps is the acceptance-level equivalence
// suite: every request shape — all four matching algorithms plus the
// sequential and randomized baselines, partition under both variants,
// both native-served rank schemes and both fallback schemes, prefix,
// 3-colouring, MIS, and schedule — returns outputs bit-identical to the
// sequential engine's, on native engines of 1, 2 and 4 workers.
// Requests served by native kernels (Match4 default, partition,
// contraction/wyllie ranks, prefix, 3-colouring, MIS without the table
// route, schedule) must report zero simulated Time/Work; requests on
// the simulated fallback must report Stats bit-identical to
// sequential's.
func TestNativeMatchesSequentialAllOps(t *testing.T) {
	seq := New(Config{Processors: 8})
	defer seq.Close()
	l := list.RandomList(3000, 42)
	zz := list.ZigZagList(701)

	vals := make([]int, l.Len())
	for i := range vals {
		vals[i] = i%13 - 6
	}
	pm := pram.New(4)
	labels, K := matching.PartitionIterated(pm, l, nil, 3)
	zzLabels, zzK := matching.PartitionIterated(pm, zz, nil, 2)
	pm.Close()
	// The tail has no pointer, so its pseudo-label may lie outside
	// [0, K); schedule reads it as 0.
	tailFree := append([]int(nil), labels...)
	tailFree[l.Tail()] = K + 7

	type opCase struct {
		name   string
		req    Request
		kernel bool // served by a native kernel (zero simulated cost)
	}
	cases := []opCase{
		{"match1", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch1}, false},
		{"match2", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch2}, false},
		{"match3", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch3}, false},
		{"match4", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch4}, true},
		{"match4-zigzag", Request{Op: OpMatching, List: zz, Algorithm: AlgoMatch4}, true},
		{"match4-i1", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch4, I: 1}, true},
		{"match4-table", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch4, UseTable: true}, false},
		{"match4-lsb", Request{Op: OpMatching, List: l, Algorithm: AlgoMatch4, Variant: partition.LSB}, false},
		{"sequential", Request{Op: OpMatching, List: l, Algorithm: AlgoSequential}, false},
		{"randomized", Request{Op: OpMatching, List: l, Algorithm: AlgoRandomized, Seed: 9}, false},
		{"partition-i1", Request{Op: OpPartition, List: l, Iters: 1}, true},
		{"partition-i3", Request{Op: OpPartition, List: l, Iters: 3}, true},
		{"partition-lsb", Request{Op: OpPartition, List: l, Iters: 2, Variant: partition.LSB}, true},
		{"threecolor", Request{Op: OpThreeColor, List: l}, true},
		{"threecolor-lsb", Request{Op: OpThreeColor, List: l, Variant: partition.LSB}, true},
		{"threecolor-zigzag", Request{Op: OpThreeColor, List: zz}, true},
		{"mis", Request{Op: OpMIS, List: l}, true},
		{"mis-i1", Request{Op: OpMIS, List: l, I: 1}, true},
		{"mis-table", Request{Op: OpMIS, List: l, UseTable: true}, false},
		{"rank-contraction", Request{Op: OpRank, List: l, Rank: RankContraction}, true},
		{"rank-wyllie", Request{Op: OpRank, List: l, Rank: RankWyllie}, true},
		{"rank-loadbalanced", Request{Op: OpRank, List: l, Rank: RankLoadBalanced}, false},
		{"rank-randommate", Request{Op: OpRank, List: l, Rank: RankRandomMate, Seed: 5}, false},
		{"prefix", Request{Op: OpPrefix, List: l, Values: vals}, true},
		{"schedule", Request{Op: OpSchedule, List: l, Labels: labels, K: K}, true},
		{"schedule-zigzag", Request{Op: OpSchedule, List: zz, Labels: zzLabels, K: zzK}, true},
		{"schedule-tail-label", Request{Op: OpSchedule, List: l, Labels: tailFree, K: K}, true},
	}
	// Rank and prefix on both sides of the walker's sweep thresholds,
	// every generator at 2^16 nodes; prefix values go negative.
	for _, gen := range list.Generators() {
		for _, n := range []int{rank.SweepMinRank - 1, rank.SweepMinRank, rank.SweepMinRank + 1,
			rank.SweepMinPrefix - 1, rank.SweepMinPrefix, rank.SweepMinPrefix + 1} {
			if gen.Name != "random" && n != rank.SweepMinPrefix {
				continue
			}
			big := gen.Make(n, int64(n))
			bigVals := make([]int, n)
			for i := range bigVals {
				bigVals[i] = i%13 - 6
			}
			suffix := fmt.Sprintf("-%s-n=%d", gen.Name, n)
			cases = append(cases,
				opCase{"rank" + suffix, Request{Op: OpRank, List: big}, true},
				opCase{"prefix" + suffix, Request{Op: OpPrefix, List: big, Values: bigVals}, true})
		}
	}
	natives := map[int]*Engine{}
	for _, workers := range []int{1, 2, 4} {
		natives[workers] = New(Config{Processors: 8, Exec: pram.Native, Workers: workers})
		defer natives[workers].Close()
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					testNativeCase(t, natives[workers], seq, tc.req, tc.kernel)
				})
			}
		})
	}
}

// testNativeCase runs req on native and seq and checks that the outputs
// are identical, that the accounting is 0/0 for a kernel and
// Sequential's for a fallback, and the native output against an
// independent checker where the op has one.
func testNativeCase(t *testing.T, native, seq *Engine, req Request, kernel bool) {
	t.Helper()
	got, err := native.Run(bg, req)
	if err != nil {
		t.Fatalf("native: %v", err)
	}
	want, err := seq.Run(bg, req)
	if err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if !reflect.DeepEqual(got.In, want.In) {
		t.Error("In diverges from sequential")
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Error("Labels diverge from sequential")
	}
	if !reflect.DeepEqual(got.Ranks, want.Ranks) {
		t.Error("Ranks diverge from sequential")
	}
	if got.Size != want.Size || got.Sets != want.Sets || got.Rounds != want.Rounds ||
		got.TableSize != want.TableSize || got.Algorithm != want.Algorithm {
		t.Errorf("detail diverges: got %q %d/%d/%d/%d want %q %d/%d/%d/%d",
			got.Algorithm, got.Size, got.Sets, got.Rounds, got.TableSize,
			want.Algorithm, want.Size, want.Sets, want.Rounds, want.TableSize)
	}
	if kernel {
		if got.Stats.Time != 0 || got.Stats.Work != 0 {
			t.Errorf("native kernel charged %d/%d, want 0/0",
				got.Stats.Time, got.Stats.Work)
		}
	} else if got.Stats.Time != want.Stats.Time || got.Stats.Work != want.Stats.Work {
		t.Errorf("fallback accounting %d/%d diverges from sequential %d/%d",
			got.Stats.Time, got.Stats.Work, want.Stats.Time, want.Stats.Work)
	}

	lst := req.List
	switch req.Op {
	case OpMatching, OpSchedule:
		if err := verify.MaximalMatching(lst, got.In); err != nil {
			t.Errorf("independent checker: %v", err)
		}
	case OpPartition:
		if err := verify.Partition(lst, got.Labels, got.Sets); err != nil {
			t.Errorf("independent checker: %v", err)
		}
	case OpRank:
		if err := verify.Ranks(lst, got.Ranks); err != nil {
			t.Errorf("independent checker: %v", err)
		}
	case OpThreeColor:
		if err := verify.Partition(lst, got.Labels, 3); err != nil {
			t.Errorf("independent checker: %v", err)
		}
	case OpMIS:
		if err := color.VerifyMIS(lst, got.In); err != nil {
			t.Errorf("MIS checker: %v", err)
		}
	}
}

// TestNativeKernelEdgeSizes sweeps the kernel-served ops over the sizes
// that straddle the kernels' serial-fast-path and chunking thresholds
// (n < 64 splitter cutoff, n ≤ parties, singletons) and over generator
// families with adversarial address orders, on native engines of 1, 2
// and 4 workers. The sizes also straddle the Match4 kernel's column
// height x (x = 6 from 5 to 256 nodes at i = 3, 8 above): n = x-1, x
// and x+1, and columns whose last one is short (13 = 2·6 + 1,
// 257 = 32·8 + 1). Schedule runs on the reference partition and on
// address labels at K = max(n, 6), the largest range the engine
// admits, where one column holds the whole list (a short one below six
// nodes).
func TestNativeKernelEdgeSizes(t *testing.T) {
	seq := New(Config{Processors: 8})
	t.Cleanup(func() { seq.Close() })
	gens := []struct {
		name string
		make func(n int) *list.List
	}{
		{"random", func(n int) *list.List { return list.RandomList(n, 3) }},
		{"reversed", list.ReversedList},
		{"zigzag", list.ZigZagList},
	}
	for _, workers := range []int{1, 2, 4} {
		native := New(Config{Processors: 8, Exec: pram.Native, Workers: workers})
		t.Cleanup(func() { native.Close() })
		for _, g := range gens {
			for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 13, 63, 64, 65, 257, 1000} {
				l := g.make(n)
				vals := make([]int, n)
				addr := make([]int, n)
				for i := range vals {
					vals[i] = (i*7)%19 - 9
					addr[i] = i
				}
				labels, K := scheduleInput(t, seq, l)
				reqs := []Request{
					{Op: OpMatching, List: l},
					{Op: OpRank, List: l, Rank: RankContraction},
					{Op: OpRank, List: l, Rank: RankWyllie},
					{Op: OpPrefix, List: l, Values: vals},
					{Op: OpThreeColor, List: l},
					{Op: OpMIS, List: l},
					{Op: OpSchedule, List: l, Labels: labels, K: K},
					{Op: OpSchedule, List: l, Labels: addr, K: max(n, 6)},
				}
				if n > 1 {
					// OpPartition is undefined at n = 1 on every executor
					// (TestOneNodePartitionRejected).
					reqs = append(reqs, Request{Op: OpPartition, List: l, Iters: 2})
				}
				for _, req := range reqs {
					got, err := native.Run(bg, req)
					if err != nil {
						t.Fatalf("workers=%d/%s/n=%d/%s K=%d: native: %v", workers, g.name, n, req.Op, req.K, err)
					}
					want, err := seq.Run(bg, req)
					if err != nil {
						t.Fatalf("workers=%d/%s/n=%d/%s K=%d: sequential: %v", workers, g.name, n, req.Op, req.K, err)
					}
					if !sameOutput(got, want) {
						t.Errorf("workers=%d/%s/n=%d/%s K=%d: output diverges from sequential", workers, g.name, n, req.Op, req.K)
					}
				}
			}
		}
	}
}

// sameOutput reports whether two results carry the same outputs —
// everything but the simulated Stats.
func sameOutput(a, b *Result) bool {
	return reflect.DeepEqual(a.In, b.In) && reflect.DeepEqual(a.Labels, b.Labels) &&
		reflect.DeepEqual(a.Ranks, b.Ranks) && a.Size == b.Size && a.Sets == b.Sets &&
		a.Rounds == b.Rounds && a.TableSize == b.TableSize && a.Algorithm == b.Algorithm
}

// scheduleInput returns an OpSchedule partition of l: the reference
// engine's two-application partition, or the lone label 0 for a
// one-node list, which has no partition.
func scheduleInput(t testing.TB, ref *Engine, l *list.List) ([]int, int) {
	t.Helper()
	if l.Len() < 2 {
		return []int{0}, 1
	}
	part, err := ref.Run(bg, Request{Op: OpPartition, List: l, Iters: 2})
	if err != nil {
		t.Fatalf("reference partition: %v", err)
	}
	return part.Labels, part.Sets
}

// TestNativeSteadyStateZeroAlloc extends the engine's headline number to
// the native executor: after warmup, kernel-served requests at a fixed
// n — all seven ops at 4,096 nodes, and the ops the walker serves or
// that read Match4's cover flags at 2^16, where the ruler sweep runs —
// allocate nothing.
func TestNativeSteadyStateZeroAlloc(t *testing.T) {
	eng := New(Config{Processors: 8, Exec: pram.Native, Workers: 4})
	defer eng.Close()
	l := list.RandomList(4096, 5)
	vals := make([]int, l.Len())
	for i := range vals {
		vals[i] = i % 5
	}
	big := list.RandomList(rank.SweepMinPrefix, 6)
	bigVals := make([]int, big.Len())
	for i := range bigVals {
		bigVals[i] = i%5 - 2
	}
	part, err := eng.Run(bg, Request{Op: OpPartition, List: l, Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"matching", Request{List: l}},
		{"partition", Request{Op: OpPartition, List: l, Iters: 2}},
		{"threecolor", Request{Op: OpThreeColor, List: l}},
		{"mis", Request{Op: OpMIS, List: l}},
		{"rank", Request{Op: OpRank, List: l, Rank: RankContraction}},
		{"prefix", Request{Op: OpPrefix, List: l, Values: vals}},
		{"schedule", Request{Op: OpSchedule, List: l, Labels: part.Labels, K: part.Sets}},
		{"mis-65536", Request{Op: OpMIS, List: big}},
		{"rank-65536", Request{Op: OpRank, List: big}},
		{"prefix-65536", Request{Op: OpPrefix, List: big, Values: bigVals}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var res Result
			run := func() {
				if err := eng.RunInto(bg, tc.req, &res); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm free lists, result capacity, stats buffers
			run()
			if avg := testing.AllocsPerRun(20, run); avg != 0 {
				t.Errorf("steady-state allocs/request = %v, want 0", avg)
			}
		})
	}
}

// TestNativeRejectsFaultPlans: fault coordinates are (round, worker)
// positions in the simulated round stream, which the native kernels
// bypass — the engine must refuse rather than silently not inject.
func TestNativeRejectsFaultPlans(t *testing.T) {
	eng := New(Config{Processors: 8, Exec: pram.Native, Workers: 4})
	defer eng.Close()
	l := list.RandomList(256, 1)
	_, err := eng.Run(bg, Request{List: l, Faults: &pram.FaultPlan{}})
	if !errors.Is(err, ErrNativeUnsupported) {
		t.Fatalf("err = %v, want ErrNativeUnsupported", err)
	}
	// The engine stays serviceable after the rejection.
	res, err := eng.Run(bg, Request{List: l})
	if err != nil {
		t.Fatalf("after rejection: %v", err)
	}
	if err := verify.MaximalMatching(l, res.In); err != nil {
		t.Errorf("after rejection: %v", err)
	}
}

// FuzzNativeEquivalence fuzzes the kernel-served request shapes through
// a native engine against a sequential reference: outputs must be
// bit-identical and pass the independent checkers.
func FuzzNativeEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(100), uint8(2))
	f.Add(int64(7), uint16(0), uint8(1))  // singleton list
	f.Add(int64(3), uint16(63), uint8(3)) // below the splitter cutoff
	f.Add(int64(9), uint16(64), uint8(1)) // at the splitter cutoff
	f.Add(int64(42), uint16(4999), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, nn uint16, ii uint8) {
		n := int(nn)%5000 + 1
		iters := int(ii)%4 + 1
		l := list.RandomList(n, seed)
		vals := make([]int, n)
		for i := range vals {
			vals[i] = int(seed+int64(i))%11 - 5
		}
		native := New(Config{Processors: 8, Exec: pram.Native, Workers: 4})
		defer native.Close()
		seq := New(Config{Processors: 8})
		defer seq.Close()
		labels, K := scheduleInput(t, seq, l)
		reqs := []Request{
			{Op: OpMatching, List: l, I: iters},
			{Op: OpPartition, List: l, Iters: iters},
			{Op: OpThreeColor, List: l},
			{Op: OpMIS, List: l, I: iters},
			{Op: OpRank, List: l, Rank: RankContraction},
			{Op: OpRank, List: l, Rank: RankWyllie},
			{Op: OpPrefix, List: l, Values: vals},
			{Op: OpSchedule, List: l, Labels: labels, K: K},
		}
		for _, req := range reqs {
			got, err := native.Run(bg, req)
			want, werr := seq.Run(bg, req)
			if req.Op == OpPartition && n == 1 {
				// f(a,a) is undefined, so a one-node partition is refused
				// on every executor, with the same error.
				if !errors.Is(err, ErrListTooShort) || werr == nil || err.Error() != werr.Error() {
					t.Fatalf("one-node partition: native %v, sequential %v; want ErrListTooShort on both", err, werr)
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d iters=%d %s: native: %v", n, iters, req.Op, err)
			}
			if werr != nil {
				t.Fatalf("n=%d iters=%d %s: sequential: %v", n, iters, req.Op, werr)
			}
			if !sameOutput(got, want) {
				t.Fatalf("n=%d iters=%d %s: native output diverges from sequential", n, iters, req.Op)
			}
			switch req.Op {
			case OpMatching, OpSchedule:
				if err := verify.MaximalMatching(l, got.In); err != nil {
					t.Fatalf("n=%d %s: %v", n, req.Op, err)
				}
			case OpPartition:
				if err := verify.Partition(l, got.Labels, got.Sets); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			case OpThreeColor:
				if err := verify.Partition(l, got.Labels, 3); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			case OpMIS:
				if err := color.VerifyMIS(l, got.In); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			case OpRank:
				if err := verify.Ranks(l, got.Ranks); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
			}
		}
	})
}

// TestNativeScheduleInputErrors: the native schedule kernel runs
// ScheduleMatching's input checks, so every malformed partition fails
// with the sequential engine's exact error, wrapping ErrBadSchedule —
// and leaves the native engine serviceable. K is bounded by max(n, 6):
// both paths size their scratch by K, so K = 2^30 on four nodes would
// otherwise exhaust memory. K at the bound is served.
func TestNativeScheduleInputErrors(t *testing.T) {
	native, seq := nativeEngines(t)
	l := list.RandomList(200, 4)
	labels, K := scheduleInput(t, seq, l)
	four := list.RandomList(4, 9)
	fourLabels, _ := scheduleInput(t, seq, four)
	outOfRange := append([]int(nil), labels...)
	outOfRange[l.Head] = K
	negative := append([]int(nil), labels...)
	negative[l.Head] = -1
	// Copying the head's label onto its successor gives two consecutive
	// pointers one label: not a matching partition.
	improper := append([]int(nil), labels...)
	improper[l.Next[l.Head]] = improper[l.Head]
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"short labels", Request{Op: OpSchedule, List: l, Labels: labels[:10], K: K}},
		{"no labels", Request{Op: OpSchedule, List: l, K: K}},
		{"K zero", Request{Op: OpSchedule, List: l, Labels: labels, K: 0}},
		{"K above n", Request{Op: OpSchedule, List: l, Labels: labels, K: 201}},
		{"K above 6 on four nodes", Request{Op: OpSchedule, List: four, Labels: fourLabels, K: 7}},
		{"K 2^30 on four nodes", Request{Op: OpSchedule, List: four, Labels: fourLabels, K: 1 << 30}},
		{"label too large", Request{Op: OpSchedule, List: l, Labels: outOfRange, K: K}},
		{"negative label", Request{Op: OpSchedule, List: l, Labels: negative, K: K}},
		{"not a partition", Request{Op: OpSchedule, List: l, Labels: improper, K: K}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := native.Run(bg, tc.req)
			_, want := seq.Run(bg, tc.req)
			if !errors.Is(want, ErrBadSchedule) {
				t.Fatalf("sequential err = %v, want ErrBadSchedule", want)
			}
			if !errors.Is(err, ErrBadSchedule) || err.Error() != want.Error() {
				t.Fatalf("native err = %v, want %q", err, want)
			}
		})
	}
	for _, req := range []Request{
		{Op: OpSchedule, List: l, Labels: labels, K: K},
		{Op: OpSchedule, List: l, Labels: labels, K: 200},
		{Op: OpSchedule, List: four, Labels: fourLabels, K: 6},
	} {
		res, err := native.Run(bg, req)
		if err != nil {
			t.Fatalf("n=%d K=%d after rejections: %v", req.List.Len(), req.K, err)
		}
		want, err := seq.Run(bg, req)
		if err != nil {
			t.Fatalf("n=%d K=%d sequential: %v", req.List.Len(), req.K, err)
		}
		if !sameOutput(res, want) {
			t.Errorf("n=%d K=%d: native output diverges from sequential", req.List.Len(), req.K)
		}
		if err := verify.MaximalMatching(req.List, res.In); err != nil {
			t.Errorf("n=%d K=%d: %v", req.List.Len(), req.K, err)
		}
	}
}

// TestOneNodePartitionRejected: a one-node OpPartition — and a one-node
// Match3 — is refused with ErrListTooShort before any kernel runs, on
// every executor at one worker and at four. The machine is not
// degraded, so the refusal rebuilds nothing, and the engine serves the
// next request.
func TestOneNodePartitionRejected(t *testing.T) {
	one := list.New([]int{list.Nil}, 0)
	l := list.RandomList(64, 2)
	for _, ex := range []pram.Exec{pram.Sequential, pram.Pooled, pram.Native} {
		for _, workers := range []int{1, 4} {
			eng := New(Config{Processors: 4, Exec: ex, Workers: workers})
			if _, err := eng.Run(bg, Request{List: l}); err != nil {
				t.Fatalf("%v/%d: warm-up: %v", ex, workers, err)
			}
			before := eng.Stats().Rebuilds
			for _, req := range []Request{
				{Op: OpPartition, List: one, Iters: 1},
				{Op: OpPartition, List: one, Iters: 3, Variant: partition.LSB},
				{Op: OpMatching, List: one, Algorithm: AlgoMatch3},
			} {
				if _, err := eng.Run(bg, req); !errors.Is(err, ErrListTooShort) {
					t.Errorf("%v/%d: %v %s: err = %v, want ErrListTooShort", ex, workers, req.Op, req.Algorithm, err)
				}
			}
			res, err := eng.Run(bg, Request{Op: OpPartition, List: l, Iters: 1})
			if err != nil {
				t.Fatalf("%v/%d: after rejection: %v", ex, workers, err)
			}
			if err := verify.Partition(l, res.Labels, res.Sets); err != nil {
				t.Errorf("%v/%d: after rejection: %v", ex, workers, err)
			}
			if got := eng.Stats().Rebuilds; got != before {
				t.Errorf("%v/%d: Rebuilds %d → %d, want unchanged", ex, workers, before, got)
			}
			eng.Close()
		}
	}
}

// match4Words is the arena a fresh native engine of the given width
// holds after two warm-up runs of req: Engine.Stats().Arena's fresh
// bytes, in 8-byte words per node.
func match4Words(t *testing.T, workers int, req Request) float64 {
	t.Helper()
	eng := New(Config{Processors: 8, Exec: pram.Native, Workers: workers})
	defer eng.Close()
	var res Result
	for i := 0; i < 2; i++ {
		if err := eng.RunInto(bg, req, &res); err != nil {
			t.Fatalf("%v n=%d workers=%d: %v", req.Op, req.List.Len(), workers, err)
		}
	}
	return float64(eng.Stats().Arena.BytesAllocated) / 8 / float64(req.List.Len())
}

// TestNativeMatch4Footprint bounds the scratch of the Match4-family
// requests, all of which run the native Match4 kernel: one warm
// matching, MIS or schedule request holds at most 6 words/node of
// arena from 256 to 65,536 nodes, at one party and at four. Schedule
// at K = n, the largest label range the engine admits, holds the same
// arena at one and four parties and at most 12 words/node: the step
// histogram is shared by the team, so its 3K words do not grow with the
// party count.
func TestNativeMatch4Footprint(t *testing.T) {
	seq := New(Config{Processors: 8})
	defer seq.Close()
	for _, n := range []int{256, 1024, 4096, 65536} {
		l := list.RandomList(n, int64(n)+3)
		labels, K := scheduleInput(t, seq, l)
		for _, req := range []Request{
			{Op: OpMatching, List: l},
			{Op: OpMIS, List: l},
			{Op: OpSchedule, List: l, Labels: labels, K: K},
		} {
			for _, workers := range []int{1, 4} {
				words := match4Words(t, workers, req)
				t.Logf("%v n=%d workers=%d: %.2f words/node", req.Op, n, workers, words)
				if words > 6 {
					t.Errorf("%v n=%d workers=%d: arena %.2f words/node, want ≤ 6", req.Op, n, workers, words)
				}
			}
		}
	}
	const n = 4096
	l := list.RandomList(n, 11)
	addr := make([]int, n)
	for v := range addr {
		addr[v] = v
	}
	req := Request{Op: OpSchedule, List: l, Labels: addr, K: n}
	one, four := match4Words(t, 1, req), match4Words(t, 4, req)
	t.Logf("schedule K=n=%d: %.2f words/node at 1 party, %.2f at 4", n, one, four)
	if one != four {
		t.Errorf("schedule K=n: arena %.2f words/node at 1 party, %.2f at 4: want equal", one, four)
	}
	if four > 12 {
		t.Errorf("schedule K=n: arena %.2f words/node, want ≤ 12", four)
	}
}
