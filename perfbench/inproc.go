package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"parlist/internal/engine"
	"parlist/internal/obs"
	"parlist/internal/pram"
	"parlist/internal/server"
)

// inprocStack is the engine pool driven directly, configured as the
// daemon configures it, with the collector attached as cmd/loadgen
// attaches it.
type inprocStack struct {
	reg  *obs.Registry
	pool *engine.EnginePool
}

// upInproc builds the pool and returns once every class has been
// answered and verified both whole (K=1) and sharded (K=2), all warm-up
// calls in flight at once.
func upInproc(c *corpus, _ int64) (stack, int, []error, error) {
	reg := obs.NewRegistry()
	s := &inprocStack{reg: reg, pool: engine.NewPool(engine.PoolConfig{
		Engines:    2,
		QueueDepth: 64,
		Observer:   newCollector(reg),
		Engine:     engine.Config{Processors: processors, Exec: pram.Native},
	})}
	var items []warmItem
	for _, e := range c.classes {
		items = append(items, warmItem{e, 1}, warmItem{e, 2})
	}
	sent, fails, err := warmUp(items, s.warmRound)
	if err != nil {
		s.close()
		return nil, sent, fails, err
	}
	return s, sent, fails, nil
}

// warmRound makes every item's call concurrently and verifies it.
func (s *inprocStack) warmRound(items []warmItem) []error {
	errs := make([]error, len(items))
	var wg sync.WaitGroup
	for i, it := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rec{e: it.e, k: it.k}
			s.call(&r)
			errs[i] = r.err
		}()
	}
	wg.Wait()
	return errs
}

func (s *inprocStack) close() error { return s.pool.Close() }

// drive runs one closed-loop block: two callers each issue calls back
// to back for d, whole through Submit/Wait when k is 1 and through
// ShardedDo with fan-out k otherwise.
func (s *inprocStack) drive(c *corpus, k float64, d time.Duration, seed int64, tr *tracer) []rec {
	const callers = 2
	out := make([][]rec, callers)
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)*104729))
			for time.Now().Before(end) {
				r := rec{e: c.pick(rng), lane: g, k: int(k)}
				s.call(&r)
				if r.ok() && tr.on(r.due) {
					tr.spans(&r)
				}
				out[g] = append(out[g], r)
			}
		}()
	}
	wg.Wait()
	return slices.Concat(out...)
}

// call makes one pool call and completes its record.
func (s *inprocStack) call(r *rec) {
	ctx := context.Background()
	r.due = time.Now()
	var res *engine.Result
	var err error
	var m engine.RequestMetrics
	if r.k == 1 {
		var f *engine.Future
		if f, err = s.pool.Submit(ctx, r.e.req); err == nil {
			res, err = f.Wait(ctx)
			m = f.Metrics()
		}
	} else {
		res, err = s.pool.ShardedDo(ctx, r.e.req, r.k)
	}
	r.lat = time.Since(r.due)
	r.root = r.lat
	switch {
	case errors.Is(err, engine.ErrQueueFull):
		r.status, r.err = server.StatusShed, err
		return
	case err != nil:
		r.status, r.err = server.StatusInternal, err
		return
	}
	if r.err = r.e.check(res); r.err != nil {
		return
	}
	if r.k == 1 {
		r.class = classPool
		r.parts[0], r.parts[1] = m.QueueWait, m.Service
		r.parts[2] = r.root - m.QueueWait - m.Service
		return
	}
	if res.Sharding == nil {
		r.err = fmt.Errorf("K=%d call ran unsharded", r.k)
		return
	}
	r.class, r.shard = classSharded, res.Sharding
	r.parts[0] = slices.Max(res.Sharding.ContractWall)
	r.parts[1] = r.root - r.parts[0]
}

// snap reads the stack's cumulative counters, the collector's sharded
// step walls included.
func (s *inprocStack) snap() snapshot {
	sn := baseSnap(s.pool, s.reg)
	for _, kind := range []string{"contract", "solve", "expand"} {
		sn.addHist("step."+kind, s.reg.Histogram("parlist_shard_step_wall_ns", "", "kind", "step-"+kind))
	}
	return sn
}
