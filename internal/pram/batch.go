package pram

// Batch is the fused-round fast path: inside Machine.Batch, consecutive
// synchronous primitives over the pool are dispatched with a single
// worker wake/park pair for the whole group, with a lightweight atomic
// barrier (instead of a goroutine spawn + WaitGroup cycle) between
// rounds. Accounting is unchanged — every logical round is still charged
// separately, in order, with the same Time/Work/phase attribution as the
// unfused primitives, so Stats stay bit-identical across executors.
//
// The methods mirror the Machine primitives one-for-one. Each fused
// round remains a full synchronization point: round k+1 observes every
// write of round k regardless of which worker made it, exactly as the
// synchronous PRAM model requires. Host code between calls runs on the
// coordinating goroutine in program order, so loops whose trip count or
// bounds depend on earlier rounds' results work unchanged.
//
// On the Sequential executor (and on a Pooled or Native machine with a
// single worker or after Close) Batch is a transparent
// wrapper: the primitives execute exactly as their Machine counterparts.
// On a Native machine, fusing applies to the simulated fallback rounds;
// RunTeam refuses to dispatch inside an open batch.
type Batch struct {
	m *Machine
}

// Batch runs f with fused-round dispatch on the pooled executor: the
// worker pool is checked out once, every primitive issued through b (or
// directly through the machine) inside f becomes a fused round, and the
// workers are released when f returns. Nested Batch calls fuse into the
// enclosing group.
func (m *Machine) Batch(f func(b *Batch)) {
	if (m.exec == Pooled || m.exec == Native) && m.pool != nil && m.workers > 1 && !m.fused {
		m.pool.beginBatch()
		m.fused = true
		defer func() {
			m.fused = false
			// A dispatch failure inside the batch already tore the pool
			// down (failPool) — nothing left to release then.
			if m.pool == nil {
				return
			}
			if st := m.pool.endBatch(); st != nil {
				m.pool = nil
				m.note("pram: barrier watchdog abandoned the worker pool while closing a batch: %v", st)
				panic(st)
			}
		}()
	}
	m.batch.m = m
	f(&m.batch)
}

// Machine returns the machine the batch dispatches on.
func (b *Batch) Machine() *Machine { return b.m }

// ParFor is Machine.ParFor as a fused round.
func (b *Batch) ParFor(n int, body func(i int)) { b.m.ParFor(n, body) }

// ParForCost is Machine.ParForCost as a fused round.
func (b *Batch) ParForCost(n int, cost int64, body func(i int)) {
	b.m.ParForCost(n, cost, body)
}

// ProcFor is Machine.ProcFor as a fused round.
func (b *Batch) ProcFor(body func(q int)) { b.m.ProcFor(body) }

// ProcRun is Machine.ProcRun as a fused round.
func (b *Batch) ProcRun(steps int64, body func(q int)) { b.m.ProcRun(steps, body) }
