package parlist_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"parlist"
)

// These tests exercise the library exactly as an external user would:
// only through the root package's exported API.

func TestPublicMaximalMatchingEndToEnd(t *testing.T) {
	l := parlist.RandomList(10000, 1)
	for _, algo := range []parlist.Algorithm{
		parlist.Match1, parlist.Match2, parlist.Match3, parlist.Match4,
		parlist.Sequential, parlist.Randomized,
	} {
		res, err := parlist.MaximalMatching(l, parlist.Options{
			Algorithm:  algo,
			Processors: 128,
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if err := parlist.Verify(l, res.In); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
		if res.Size == 0 || res.Stats.Time == 0 {
			t.Errorf("%s: empty result %+v", algo, res.Stats)
		}
	}
}

func TestPublicGenerators(t *testing.T) {
	n := 500
	lists := map[string]*parlist.List{
		"random":     parlist.RandomList(n, 2),
		"sequential": parlist.SequentialList(n),
		"reversed":   parlist.ReversedList(n),
		"zigzag":     parlist.ZigZagList(n),
		"blocked":    parlist.BlockedList(n, 16, 2),
	}
	order := make([]int, n)
	for i := range order {
		order[i] = n - 1 - i
	}
	lists["fromorder"] = parlist.FromOrder(order)
	for name, l := range lists {
		if err := l.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if l.Len() != n {
			t.Errorf("%s: len %d", name, l.Len())
		}
	}
}

func TestPublicApplications(t *testing.T) {
	l := parlist.RandomList(2000, 3)
	opts := parlist.Options{Processors: 64}

	col, stats, err := parlist.ThreeColor(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Time == 0 {
		t.Error("no colouring stats")
	}
	for v, s := range l.Next {
		if s >= 0 && col[v] == col[s] {
			t.Fatal("improper colouring via public API")
		}
	}

	mis, _, err := parlist.MIS(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	cnt := 0
	for _, b := range mis {
		if b {
			cnt++
		}
	}
	if cnt < 2000/3 || cnt > 1000 {
		t.Errorf("MIS size %d outside path bounds", cnt)
	}

	rk, _, err := parlist.Rank(l, opts)
	if err != nil {
		t.Fatal(err)
	}
	pos := l.Position()
	for v := range rk {
		if rk[v] != pos[v] {
			t.Fatal("public Rank mismatch")
		}
	}

	vals := make([]int, l.Len())
	for i := range vals {
		vals[i] = 2
	}
	pre, _, err := parlist.Prefix(l, vals, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := range pre {
		if pre[v] != 2*(pos[v]+1) {
			t.Fatalf("prefix[%d] = %d, want %d", v, pre[v], 2*(pos[v]+1))
		}
	}
}

func TestPublicPartition(t *testing.T) {
	l := parlist.RandomList(4096, 4)
	lab, rng, err := parlist.Partition(l, 2, parlist.Options{Processors: 32})
	if err != nil {
		t.Fatal(err)
	}
	if rng <= 0 {
		t.Fatalf("range %d", rng)
	}
	for v, s := range l.Next {
		if s >= 0 && l.Next[s] >= 0 && lab[v] == lab[s] {
			t.Fatal("partition property violated via public API")
		}
		if l.Next[v] >= 0 && lab[v] >= rng {
			t.Fatalf("label %d outside range %d", lab[v], rng)
		}
	}
}

func TestPublicOptimalityHeadline(t *testing.T) {
	// The paper's Theorem 1 observable through the public API: with
	// p = n/log^(3) n the efficiency stays above a constant floor.
	n := 1 << 16
	l := parlist.RandomList(n, 5)
	res, err := parlist.MaximalMatching(l, parlist.Options{Processors: n / 8, I: 3})
	if err != nil {
		t.Fatal(err)
	}
	if eff := res.Stats.Efficiency(int64(n)); eff < 0.02 {
		t.Errorf("efficiency %.4f at the optimal threshold", eff)
	}
}

func TestPublicRankSchemes(t *testing.T) {
	l := parlist.RandomList(2000, 6)
	pos := l.Position()
	for _, s := range []parlist.RankScheme{
		parlist.RankContraction, parlist.RankWyllie,
		parlist.RankLoadBalanced, parlist.RankRandomMate,
	} {
		rk, _, err := parlist.Rank(l, parlist.Options{Processors: 16, Rank: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		for v := range rk {
			if rk[v] != pos[v] {
				t.Fatalf("%s: mismatch at %d", s, v)
			}
		}
	}
}

func TestPublicTypeAliases(t *testing.T) {
	// External users must be able to name every Options field's type via
	// the root package (the underlying types live under internal/).
	tr := &parlist.Tracer{}
	l := parlist.RandomList(1000, 9)
	res, err := parlist.MaximalMatching(l, parlist.Options{
		Processors: 16,
		Exec:       parlist.ExecPooled,
		Variant:    parlist.VariantLSB,
		Tracer:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := parlist.Verify(l, res.In); err != nil {
		t.Fatal(err)
	}
	if len(tr.Entries()) == 0 {
		t.Error("tracer recorded nothing")
	}
	var ph parlist.PhaseStat
	for _, p := range res.Stats.Phases {
		if p.Name == "partition" {
			ph = p
		}
	}
	if ph.Time == 0 {
		t.Error("no partition phase in public stats")
	}
}

func TestPublicScheduleMatching(t *testing.T) {
	l := parlist.RandomList(5000, 8)
	lab, K, err := parlist.Partition(l, 2, parlist.Options{Processors: 16})
	if err != nil {
		t.Fatal(err)
	}
	res, err := parlist.ScheduleMatching(l, lab, K, parlist.Options{Processors: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := parlist.Verify(l, res.In); err != nil {
		t.Fatal(err)
	}
	if res.Size == 0 {
		t.Error("empty matching")
	}
}

func TestPublicShardedDo(t *testing.T) {
	l := parlist.RandomList(5000, 9)
	pool := parlist.NewEnginePool(parlist.PoolConfig{Engines: 2})
	defer pool.Close()
	want, err := pool.Do(context.Background(), parlist.EngineRequest{Op: parlist.OpRank, List: l})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.ShardedDo(context.Background(), parlist.EngineRequest{Op: parlist.OpRank, List: l}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Ranks, want.Ranks) {
		t.Fatal("sharded ranks differ from the whole-request path")
	}
	var sh *parlist.ShardStats = res.Sharding
	if sh.Shards != 4 || sh.ExchangeBytes != 32*int64(sh.Segments) {
		t.Fatalf("ShardStats = %+v", sh)
	}
	if _, err := pool.ShardedDo(context.Background(), parlist.EngineRequest{Op: parlist.OpRank, List: l}, 0); !errors.Is(err, parlist.ErrBadShards) {
		t.Fatalf("zero shards: %v, want ErrBadShards", err)
	}
	if _, err := pool.ShardedDo(context.Background(), parlist.EngineRequest{Op: parlist.OpMatching, List: l}, 2); !errors.Is(err, parlist.ErrShardUnsupported) {
		t.Fatalf("matching op: %v, want ErrShardUnsupported", err)
	}
}
