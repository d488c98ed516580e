package pram

// Batch runs f with fused-round dispatch, the fast path for a group of
// consecutive synchronous primitives: on the pooled executor the worker
// pool is checked out once, every primitive the machine runs inside f
// becomes a fused round — one worker wake/park pair for the whole
// group, with a lightweight atomic barrier (instead of a goroutine
// spawn + WaitGroup cycle) between rounds — and the workers are
// released when f returns. Nested Batch calls fuse into the enclosing
// group.
//
// Accounting is unchanged: every logical round is still charged
// separately, in order, with the same Time/Work/phase attribution as
// outside a batch, so Stats stay bit-identical across executors. Each
// fused round remains a full synchronization point: round k+1 observes
// every write of round k regardless of which worker made it, exactly as
// the synchronous PRAM model requires. Host code between primitives
// runs on the coordinating goroutine in program order, so loops whose
// trip count or bounds depend on earlier rounds' results work
// unchanged.
//
// On the Sequential executor (and on a Pooled or Native machine with a
// single worker or after Close) Batch just calls f. On a Native
// machine, fusing applies to the simulated fallback rounds; RunTeam
// refuses to dispatch inside an open batch.
func (m *Machine) Batch(f func()) {
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
	f()
}
