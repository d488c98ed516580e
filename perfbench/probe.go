package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"parlist/internal/engine"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/ws"
)

// probeSeed fixes the probe pass's inputs, so its timings and simulated
// counts compare like for like across runs and seeds.
const probeSeed = 20260817

// probeLane is the Chrome trace lane probe spans land on.
const probeLane = 1000

// classKeys lists the (op, n) classes w sends.
func classKeys(w *workload) []string {
	var keys []string
	for _, n := range w.sizes {
		for _, op := range w.ops {
			keys = append(keys, classKey(op, n))
		}
	}
	return keys
}

// probeClasses lists every (op, n) class any workload sends.
func probeClasses() []string {
	var keys []string
	for _, w := range workloads {
		for _, k := range classKeys(w) {
			if !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// probe times direct calls into each layer's public functions on a
// fixed sample of inputs, after the timed phases so it perturbs none of
// them: Engine.RunInto on a private warm engine configured like the
// pool's, List.Validate, the native kernels, and the sharded plan's
// steps. Every output is checked against its reference.
func probe(v map[string]float64, tr *tracer) error {
	byKey := map[string]*entry{}
	var classes []*entry
	for _, w := range workloads {
		if !slices.ContainsFunc(classKeys(w), func(k string) bool { return byKey[k] == nil }) {
			continue
		}
		c, err := buildCorpus(w, probeSeed, 1)
		if err != nil {
			return err
		}
		for _, e := range c.classes {
			if byKey[e.key] == nil {
				byKey[e.key] = e
				classes = append(classes, e)
			}
		}
	}

	eng := engine.New(engine.Config{Processors: processors, Exec: pram.Native})
	defer eng.Close()
	res := new(engine.Result)
	for _, e := range classes {
		us, err := timeCalls(tr, "Engine.RunInto "+e.key, e.nodes, nil, func() error {
			return eng.RunInto(context.Background(), e.req, res)
		})
		if err == nil {
			err = e.check(res)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.key, err)
		}
		v["engine.run_us."+e.key] = us
		if e.nodes == 1024 {
			// Exact simulated counts of the ops without a native kernel.
			v["pram.sim_time."+e.req.Op.String()] = float64(res.Stats.Time)
			v["pram.sim_work."+e.req.Op.String()] = float64(res.Stats.Work)
		}
	}

	rk, pf := byKey["rank.65536"], byKey["prefix.65536"]
	mt, pt := byKey["matching.4096"], byKey["partition.4096"]
	l := rk.req.List
	us, err := timeCalls(tr, "List.Validate 65536", l.Len(), nil, l.Validate)
	if err != nil {
		return err
	}
	v["list.validate_us.65536"] = us

	wsp := ws.New()
	m := pram.New(processors, pram.WithExec(pram.Native), pram.WithWorkspace(wsp))
	defer m.Close()
	reset := func() { wsp.Reset(); m.Reset() }
	walker := rank.NewNativeWalker(m)
	mr, err := matching.NewNativeRunner(m, 3)
	if err != nil {
		return err
	}
	pr := partition.NewNativeRunner(m)
	ev := partition.NewEvaluator(partition.MSB, labelWidth(pt.nodes))
	var out []int
	var mres matching.Result
	kernels := []struct {
		name string
		e    *entry
		run  func() error
		ok   func() bool
	}{
		{"kernel.rank_us.65536", rk, func() error { out = walker.Rank(l); return nil },
			func() bool { return slices.Equal(out, rk.ref.Ranks) }},
		{"kernel.prefix_us.65536", pf, func() error { out = walker.Prefix(pf.req.List, pf.req.Values); return nil },
			func() bool { return slices.Equal(out, pf.ref.Ranks) }},
		{"kernel.match4_us.4096", mt, func() error { return mr.Run(mt.req.List, &mres) },
			func() bool { return slices.Equal(mres.In, mt.ref.In) }},
		{"kernel.partition_us.4096", pt, func() error { out = pr.Iterate(pt.req.List, ev, partitionIters); return nil },
			func() bool { return slices.Equal(out, pt.ref.Labels) }},
	}
	for _, k := range kernels {
		us, err := timeCalls(tr, k.name, k.e.nodes, reset, k.run)
		if err != nil {
			return err
		}
		if !k.ok() {
			return fmt.Errorf("%s: output differs from reference", k.name)
		}
		v[k.name] = us
	}
	return probeShardSteps(v, tr, rk, m, walker, reset)
}

// probeShardSteps times the K=2 plan's steps one by one on the private
// machine, the shard state coming from its own arena as the pool's
// coordinator does it.
func probeShardSteps(v map[string]float64, tr *tracer, rk *entry, m *pram.Machine, walker *rank.NativeWalker, reset func()) error {
	const k = 2
	stws := ws.New()
	names := [4]string{"contract", "exchange", "solve", "expand"}
	var steps [4][]float64
	var st *rank.ShardState
	step := func(i int, fn func()) {
		reset()
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		tr.t.Span("shard."+names[i], "probe", probeLane, t0, d)
		steps[i] = append(steps[i], float64(d)/1e3)
	}
	for i := 0; i < reps(rk.nodes); i++ {
		stws.Reset()
		st = rank.NewShardState(stws, rk.req.List, nil, k)
		for s := 0; s < k; s++ {
			step(0, func() { rank.ContractShard(m, st, s) })
		}
		step(1, func() { rank.Exchange(st) })
		step(2, func() { rank.SolveReduced(m, walker, st) })
		for s := 0; s < k; s++ {
			step(3, func() { rank.ExpandShard(m, st, s) })
		}
	}
	if !slices.Equal(st.Out, rk.ref.Ranks) {
		return fmt.Errorf("sharded steps: output differs from reference")
	}
	for i, name := range names {
		v["shard.step_us."+name] = median(steps[i])
	}
	return nil
}

// timeCalls runs fn twice untimed, then times it reps(n) times (prep
// untimed before each), recording a span per timed call, and returns
// the median in microseconds.
func timeCalls(tr *tracer, name string, n int, prep func(), fn func() error) (float64, error) {
	us := make([]float64, 0, reps(n))
	for i := -2; i < reps(n); i++ {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d := time.Since(t0)
		if i >= 0 {
			tr.t.Span(name, "probe", probeLane, t0, d)
			us = append(us, float64(d)/1e3)
		}
	}
	return median(us), nil
}

// reps is the probe repetition count for an input of n nodes.
func reps(n int) int {
	if n >= 65536 {
		return 15
	}
	return 31
}

// labelWidth is the partition evaluator width the engine uses for n.
func labelWidth(n int) int {
	w := 1
	for x := 2; x < n; x *= 2 {
		w++
	}
	return max(w, 2)
}
