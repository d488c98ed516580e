package harness

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/load"
	"parlist/internal/matching"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/verify"
)

// runE17 profiles the serving layer with the observability collector:
// an EnginePool under closed-loop load at fixed n, across pool sizes,
// with every engine's machine on the Pooled executor so barrier waits
// flow. Two signals per cell, both wall-clock side channels (the
// simulated Stats are untouched, as the equivalence tests assert):
//
//   - queue-wait histogram quantiles: time requests spent queued before
//     an engine picked them up, the saturation signal;
//   - per-worker barrier-wait totals: how long each executor
//     participant (0 = coordinator, ≥ 1 = pool workers) sat at
//     synchronization points, whose spread is the load-imbalance
//     signal inside a single machine.
//
// On a 1-CPU host the absolute waits are scheduling artifacts — workers
// time-slice one core, so barrier waits are inflated and req/s does not
// scale with engines (CHANGES.md PR 1 note); the comparison across pool
// sizes and the queue/service split are the portable signals.
func runE17(cfg Config) ([]*Table, error) {
	n, requests, conc := 1<<16, 48, 8
	if cfg.Quick {
		n, requests, conc = 1<<12, 16, 4
	}
	l := list.RandomList(n, cfg.Seed)
	ctx := context.Background()

	t := &Table{
		Title: fmt.Sprintf("E17 — observed queue-wait and barrier-wait imbalance, n = %d, conc = %d, %d requests per cell, GOMAXPROCS = %d",
			n, conc, requests, runtime.GOMAXPROCS(0)),
		Note: "wall-clock side channel only (Stats identical observer-on/off); on a 1-CPU host absolute " +
			"waits are time-slicing artifacts — compare across pool sizes, not against real-parallel hosts",
		Header: []string{"engines", "queue-p50-us", "queue-p99-us", "service-p50-us", "service-p99-us", "barrier-waits", "coord-wait-ms", "worker-wait-spread"},
	}
	for _, engines := range []int{1, 2, 4} {
		c := obs.NewCollector(obs.NewRegistry())
		p := engine.NewPool(engine.PoolConfig{
			Engines:    engines,
			QueueDepth: 2 * conc,
			Observer:   c,
			Engine: engine.Config{
				Processors: 256,
				Exec:       cfg.exec(pram.Pooled),
				Workers:    4,
			},
		})
		s := load.Summarize(load.Closed(requests, conc, func(int) error {
			res, err := p.Do(ctx, engine.Request{List: l})
			if err != nil {
				return err
			}
			return cfg.checkMatching(l, res.In)
		}))
		p.Close()
		if s.Err != nil {
			return nil, s.Err
		}

		var qw, bw obs.HistSnapshot
		c.QueueWait().Snapshot(&qw)
		c.BarrierWait().Snapshot(&bw)
		var svc obs.HistSnapshot
		c.RequestLatency("matching").Snapshot(&svc)

		// Imbalance: spread of per-worker barrier-wait totals, reported
		// as max/min across the participants that waited at all. The
		// coordinator's total is its own column — it waits for the
		// slowest worker, so it dominates when bodies are imbalanced.
		ww := c.WorkerWaitNs()
		var coordMs float64
		minW, maxW := int64(-1), int64(0)
		for i, w := range ww {
			if i == 0 {
				coordMs = float64(w) / 1e6
				continue
			}
			if w <= 0 {
				continue
			}
			if minW < 0 || w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
		}
		spread := "-"
		if minW > 0 {
			spread = fmt.Sprintf("%.2f", float64(maxW)/float64(minW))
		}
		t.Add(engines,
			fmt.Sprintf("%.1f", float64(qw.Quantile(0.50))/1e3),
			fmt.Sprintf("%.1f", float64(qw.Quantile(0.99))/1e3),
			fmt.Sprintf("%.1f", float64(svc.Quantile(0.50))/1e3),
			fmt.Sprintf("%.1f", float64(svc.Quantile(0.99))/1e3),
			bw.Count, fmt.Sprintf("%.2f", coordMs), spread)
	}
	return []*Table{t}, nil
}

// runE18 ablates the native fast-path executor against the pooled
// simulated executor on the steady-state serving path: one warm engine
// per (op, exec, parties) cell, a recycled Result, wall-clock and
// process CPU per request after warm-up. It deliberately ignores the
// matchbench -exec override — the executor IS the axis here, like E11.
//
// Four signals per cell:
//
//   - ns-per-req: end-to-end request wall time. The native rows bound
//     the simulation tax — same outputs, no per-round step charging, no
//     round dispatch, kernels restructured around barriers instead of
//     rounds.
//   - cpu-ns-per-req: process CPU (user + system) per request, spin
//     barriers included. Native rows run at 4, 2 and 1 parties, so
//     wall time against CPU time shows whether a team's extra parties
//     buy speed or only burn cores — the work-efficiency question the
//     pool's worker split (DESIGN.md "Native executor") answers.
//   - allocs-per-req: must be 0 on every native row (the zero-alloc
//     request path extends to all seven ops' native kernels; CI guards
//     this). The pooled executor is only zero-alloc for the default
//     matching configuration — its other paths take the general route.
//   - steps-per-req: the simulated accounting. Pooled rows charge the
//     model's step counts; native kernel rows charge nothing, which is
//     the executor's contract, not a measurement artifact.
//
// Outputs are re-checked bit-identical against a Sequential engine per
// cell (the `identical` column), the same reproduction criterion as
// E16.
func runE18(cfg Config) ([]*Table, error) {
	n, requests := 1<<16, 32
	if cfg.Quick {
		n, requests = 1<<12, 8
	}
	l := list.RandomList(n, cfg.Seed)
	vals := make([]int, n)
	for i := range vals {
		vals[i] = (i % 7) - 3
	}
	ctx := context.Background()
	// Schedule's input: the Sequential engine's k = 3 partition.
	seq := engine.New(engine.Config{Processors: 256})
	part, err := seq.Run(ctx, engine.Request{Op: engine.OpPartition, List: l, Iters: 3})
	seq.Close()
	if err != nil {
		return nil, fmt.Errorf("E18 schedule input: %w", err)
	}

	ops := []struct {
		name string
		req  engine.Request
	}{
		{"match4/i=3", engine.Request{List: l}},
		{"partition/k=3", engine.Request{Op: engine.OpPartition, List: l, Iters: 3}},
		{"threecolor", engine.Request{Op: engine.OpThreeColor, List: l}},
		{"mis/i=3", engine.Request{Op: engine.OpMIS, List: l}},
		{"rank/contraction", engine.Request{Op: engine.OpRank, List: l}},
		{"prefix", engine.Request{Op: engine.OpPrefix, List: l, Values: vals}},
		{"schedule/k=3", engine.Request{Op: engine.OpSchedule, List: l, Labels: part.Labels, K: part.Sets}},
	}
	cells := []struct {
		ex      pram.Exec
		parties int
	}{{pram.Pooled, 4}, {pram.Native, 4}, {pram.Native, 2}, {pram.Native, 1}}

	t := &Table{
		Title: fmt.Sprintf("E18 — native vs pooled executor on the warm-engine path, n = %d, p = 256, %d requests per cell, GOMAXPROCS = %d",
			n, requests, runtime.GOMAXPROCS(0)),
		Note: "parties = real workers (Config.Workers); cpu = process user+system time, spin barriers included; " +
			"steps-per-req = simulated accounting (native kernels charge none by contract)",
		Header: []string{"op", "exec", "parties", "ns-per-req", "cpu-ns-per-req", "allocs-per-req", "steps-per-req", "×pooled", "identical"},
	}

	for _, op := range ops {
		// Reference outputs from a Sequential engine: the equivalence
		// baseline every cell is checked against.
		seq := engine.New(engine.Config{Processors: 256})
		ref, err := seq.Run(ctx, op.req)
		seq.Close()
		if err != nil {
			return nil, fmt.Errorf("E18 %s: sequential reference: %w", op.name, err)
		}

		var pooledNs float64
		for _, c := range cells {
			eng := engine.New(engine.Config{Processors: 256, Exec: c.ex, Workers: c.parties})
			var res engine.Result
			for i := 0; i < 2; i++ { // warm the arena and kernel caches
				if err := eng.RunInto(ctx, op.req, &res); err != nil {
					eng.Close()
					return nil, fmt.Errorf("E18 %s/%s: %w", op.name, c.ex, err)
				}
			}
			identical := reflect.DeepEqual(res.In, ref.In) &&
				reflect.DeepEqual(res.Labels, ref.Labels) &&
				reflect.DeepEqual(res.Ranks, ref.Ranks)
			var reqErr error
			allocs := testing.AllocsPerRun(5, func() {
				if err := eng.RunInto(ctx, op.req, &res); err != nil {
					reqErr = err
				}
			})
			start, cpu0 := time.Now(), processCPU()
			for i := 0; i < requests; i++ {
				if err := eng.RunInto(ctx, op.req, &res); err != nil {
					reqErr = err
					break
				}
			}
			elapsed, cpu := time.Since(start), processCPU()-cpu0
			eng.Close()
			if reqErr != nil {
				return nil, fmt.Errorf("E18 %s/%s: %w", op.name, c.ex, reqErr)
			}
			nsPer := float64(elapsed.Nanoseconds()) / float64(requests)
			cpuPer := "-"
			if cpu > 0 {
				cpuPer = fmt.Sprintf("%.0f", float64(cpu.Nanoseconds())/float64(requests))
			}
			ratio := "-"
			if c.ex == pram.Pooled {
				pooledNs = nsPer
			} else if nsPer > 0 {
				ratio = fmt.Sprintf("%.2f", pooledNs/nsPer)
			}
			t.Add(op.name, c.ex.String(), c.parties,
				fmt.Sprintf("%.0f", nsPer), cpuPer,
				fmt.Sprintf("%.1f", allocs),
				res.Stats.Time, ratio, identical)
		}
	}
	sizes, err := runE18Sizes(cfg)
	if err != nil {
		return nil, err
	}
	return []*Table{t, sizes}, nil
}

// runE18Sizes is E18's size sweep at one party, the width of a pool
// engine on a small host: Match4, rank and prefix requests on random
// lists from 2^12 to 2^20 nodes (2^14 in quick mode), rotating over 8
// lists so that no request finds its list warm from the one before.
// The walk column names the path the request takes at that size: the
// Match4 kernel, or the rank walker's serial walk below
// rank.SweepMinRank (prefix: rank.SweepMinPrefix) and its ruler sweep
// from there on, so the rows show where the sweep starts to pay. Every
// request includes the degree pass. Each row is set against T₁, a
// serial algorithm run over the same lists: the greedy walk
// matching.Sequential for Match4, and for rank and prefix serialWalk
// into a buffer sized once per size; ×T1 is how many times T₁ the
// request costs.
func runE18Sizes(cfg Config) (*Table, error) {
	maxLog, requests := 20, 16
	if cfg.Quick {
		maxLog, requests = 14, 8
	}
	const lists = 8
	t := &Table{
		Title: fmt.Sprintf("E18 — one-party native Match4, rank and prefix by list size, %d lists rotated, %d requests per cell", lists, requests),
		Note: "walk = the path the request takes at this size; ns-per-node = request wall time / n, degree pass included; " +
			"t1 = the serial algorithm (greedy matching walk, serial rank/prefix walk); ok = rank/prefix equal T₁'s output, Match4's a maximal matching",
		Header: []string{"op", "n", "walk", "ns-per-req", "ns-per-node", "t1-ns-per-node", "×T1", "ok"},
	}
	ctx := context.Background()
	eng := engine.New(engine.Config{Processors: 256, Exec: pram.Native, Workers: 1})
	defer eng.Close()
	for lg := 12; lg <= maxLog; lg += 2 {
		n := 1 << lg
		ls := make([]*list.List, lists)
		for i := range ls {
			ls[i] = list.RandomList(n, cfg.Seed+int64(i))
		}
		vals := make([]int, n)
		for i := range vals {
			vals[i] = i%7 - 3
		}
		walkOut := make([]int, n)
		for _, op := range []engine.Op{engine.OpMatching, engine.OpRank, engine.OpPrefix} {
			req := engine.Request{Op: op}
			walk := "match4"
			// check verifies a response on list l: a maximal matching,
			// or T₁'s ranks or sums.
			check := func(l *list.List, res *engine.Result) bool {
				return verify.MaximalMatching(l, res.In) == nil
			}
			t1 := func(l *list.List) { matching.Sequential(l) }
			if op != engine.OpMatching {
				from := rank.SweepMinRank
				if op == engine.OpPrefix {
					req.Values, from = vals, rank.SweepMinPrefix
				}
				walk = "serial"
				if n >= from {
					walk = "sweep"
				}
				check = func(l *list.List, res *engine.Result) bool {
					return reflect.DeepEqual(res.Ranks, walkReference(l, req.Values))
				}
				t1 = func(l *list.List) { serialWalk(l, req.Values, walkOut) }
			}
			var res engine.Result
			ok := true
			for i := 0; i < lists; i++ { // warm up, and check every list
				req.List = ls[i]
				if err := eng.RunInto(ctx, req, &res); err != nil {
					return nil, fmt.Errorf("E18 %v n=%d: %w", op, n, err)
				}
				ok = ok && check(ls[i], &res)
			}
			start := time.Now()
			for i := 0; i < requests; i++ {
				req.List = ls[i%lists]
				if err := eng.RunInto(ctx, req, &res); err != nil {
					return nil, fmt.Errorf("E18 %v n=%d: %w", op, n, err)
				}
			}
			nsPer := float64(time.Since(start).Nanoseconds()) / float64(requests)
			start = time.Now()
			for i := 0; i < requests; i++ {
				t1(ls[i%lists])
			}
			t1Per := float64(time.Since(start).Nanoseconds()) / float64(requests)
			t.Add(op.String(), n, walk, fmt.Sprintf("%.0f", nsPer), fmt.Sprintf("%.2f", nsPer/float64(n)),
				fmt.Sprintf("%.2f", t1Per/float64(n)), fmt.Sprintf("%.1f", nsPer/t1Per), ok)
		}
	}
	return t, nil
}

// serialWalk ranks l (vals nil) or sums vals along it into out, one
// pass from the head: E18's T₁ for rank and prefix.
func serialWalk(l *list.List, vals, out []int) {
	acc := 0
	for v, r := l.Head, 0; v != list.Nil; v, r = l.Next[v], r+1 {
		if vals == nil {
			out[v] = r
		} else {
			acc += vals[v]
			out[v] = acc
		}
	}
}

// walkReference ranks l (vals nil) or sums vals along it in list
// order: the oracle for E18's size sweep, where a simulated one would
// dominate the run at 2^20 nodes.
func walkReference(l *list.List, vals []int) []int {
	out := l.Position()
	if vals != nil {
		acc := 0
		for _, v := range l.Order() {
			acc += vals[v]
			out[v] = acc
		}
	}
	return out
}
