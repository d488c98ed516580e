package pram

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"parlist/internal/obs"
)

// pool is the persistent executor behind Exec == Pooled: for a machine
// with w real workers it keeps w-1 long-lived background goroutines,
// woken per round instead of spawned per round, while the coordinating
// goroutine always executes chunk 0 itself — so a round costs w-1 wakes
// (not w spawns plus a WaitGroup) and useful work starts before the
// scheduler has run a single background worker. Two dispatch modes:
//
//   - single rounds (pool.run): the coordinator publishes the round,
//     sends one wake message per participating background worker, runs
//     its own chunk and blocks on the completion channel — zero
//     allocations in steady state;
//
//   - fused batches (beginBatch / runFused / endBatch): the background
//     workers are checked out once and then driven through consecutive
//     rounds by a sense-reversing spin barrier over workers+coordinator,
//     so a group of k logical rounds costs one wake per worker plus 2k
//     cheap atomic barriers instead of k spawn/WaitGroup cycles.
//
// Both modes use the same cache-aware contiguous chunking (chunk j
// covers [j·c, (j+1)·c) with c = ⌈n/active⌉), so each participant
// visits one contiguous memory range and ranges stay disjoint.
//
// Failure semantics: every chunk runs under runChunkSafe, which
// recovers panics and records the first one as a WorkerPanic; the
// round's synchronization (completion channel or barrier) always
// drains, so the surviving workers park cleanly and run/runFused can
// hand the failure to the owning Machine, which re-panics it on the
// coordinator. A coordinator barrier wait that exceeds the optional
// watchdog deadline raises a BarrierStall naming the missing workers
// and flips aborted, which makes every barrier spinner exit its
// goroutine instead of spinning forever.
type pool struct {
	background int // long-lived worker goroutines (machine workers - 1)
	slots      []workerSlot
	done       chan struct{}

	// pending counts background workers still running the current
	// single-mode round; the last one to finish signals done.
	pending atomic.Int32

	// op is the currently published round. In single mode it is written
	// before the wake sends and read after the receives; in batch mode
	// it is written before a barrier arrival and read after the release,
	// so both modes have a happens-before edge covering it.
	op poolOp

	// Sense-reversing barrier over background workers + the coordinator:
	// arriving increments arrived; the last arrival resets the count and
	// bumps the generation, releasing the spinners.
	parties int32
	arrived atomic.Int32
	gen     atomic.Uint32

	// failure holds the first WorkerPanic recovered from any chunk;
	// aborted tells barrier spinners to exit their goroutines (set by
	// the watchdog when a barrier is declared stalled).
	failure atomic.Pointer[WorkerPanic]
	aborted atomic.Bool

	// rounds counts dispatched rounds (coordinator-only writes); faults
	// and watchdog are the optional robustness knobs (see faults.go and
	// failure.go).
	rounds   uint64
	faults   *FaultPlan
	watchdog time.Duration

	// obsv receives per-participant barrier-wait observations (worker 0
	// = coordinator); nil means no measurement, so the unobserved spin
	// paths never read a clock.
	obsv obs.Observer

	// spmd is the team body published by RunTeam (native.go); teamCtxs
	// are the pre-allocated per-party contexts (index 0 = coordinator),
	// so dispatching a team performs no allocation. teamStall is the
	// coordinator-side stall captured when its barrier gave up mid-team.
	spmd      func(*TeamCtx)
	teamCtxs  []TeamCtx
	teamStall *BarrierStall

	closed bool
}

// poolOp is one synchronous round: body over [0, n) split into `active`
// contiguous chunks — chunk 0 for the coordinator, chunk q for
// background worker q, unless perm reassigns them. end marks the
// batch-termination sentinel.
type poolOp struct {
	n      int
	active int
	body   func(i int)
	end    bool
	round  uint64
	perm   []int // optional participant→chunk permutation (fault plans)
}

// poolMsg wakes a parked background worker into one of the dispatch
// modes.
type poolMsg uint8

const (
	msgRun   poolMsg = iota // execute the published op, then re-park
	msgBatch                // enter the barrier-driven batch loop
	msgSPMD                 // run the published team body once (native.go)
)

// workerSlot is per-worker state, padded to a cache line so adjacent
// workers' hot fields (the wake channel pointer, the round counter and
// the barrier-arrival generation, which only its own worker writes)
// never share a line.
type workerSlot struct {
	wake    chan poolMsg
	rounds  uint64        // rounds executed by this worker (diagnostics)
	lastGen atomic.Uint32 // barrier generation of the latest arrival (watchdog)
	_       [44]byte
}

// newPool starts `background` parked goroutines; the effective
// parallelism is background+1 because the coordinator always works too.
// background must be ≥ 1 (with zero the Machine runs inline instead).
func newPool(background int) *pool {
	p := &pool{
		background: background,
		slots:      make([]workerSlot, background),
		// The one-slot buffer lets the last worker of an abandoned team
		// post its completion signal without blocking (native.go); the
		// single-round mode's strict send/receive alternation is
		// unaffected.
		done:    make(chan struct{}, 1),
		parties: int32(background) + 1,
	}
	p.teamCtxs = make([]TeamCtx, background+1)
	for i := range p.teamCtxs {
		p.teamCtxs[i] = TeamCtx{pool: p, Worker: i, Workers: background + 1}
	}
	for q := range p.slots {
		p.slots[q].wake = make(chan poolMsg, 1)
		// "Never arrived": distinguishable from generation 0 so the
		// watchdog's missing-worker report is right from the first
		// barrier on.
		p.slots[q].lastGen.Store(^uint32(0))
		go p.worker(q)
	}
	return p
}

// worker is one background goroutine: parked on its wake channel
// between dispatches, terminated by closing the channel (or by the
// aborted flag when a batch barrier was declared stalled).
func (p *pool) worker(q int) {
	slot := &p.slots[q]
	for msg := range slot.wake {
		switch msg {
		case msgRun:
			op := p.op
			p.runChunkSafe(q+1, op)
			slot.rounds++
			if p.pending.Add(-1) == 0 {
				p.done <- struct{}{}
			}
		case msgBatch:
			for {
				if !p.workerBarrier(q) { // wait for the next op
					return
				}
				op := p.op
				if !op.end {
					p.runChunkSafe(q+1, op)
					slot.rounds++
				}
				if !p.workerBarrier(q) { // round complete / op consumed
					return
				}
				if op.end {
					break
				}
			}
		case msgSPMD:
			if !p.runTeamParty(q + 1) {
				return
			}
			slot.rounds++
		}
	}
}

// runChunkSafe executes the participant's chunk with panic recovery and
// fault injection. A recovered panic (from the body or an injected
// fault) is recorded once per dispatch — first writer wins — and the
// function returns normally so the round's synchronization drains.
func (p *pool) runChunkSafe(party int, op poolOp) {
	defer func() {
		if r := recover(); r != nil {
			p.failure.CompareAndSwap(nil, &WorkerPanic{
				Value:  r,
				Worker: party,
				Round:  op.round,
				Stack:  debug.Stack(),
			})
		}
	}()
	if f := p.faults; f != nil {
		if d := f.stall(op.round, party); d > 0 {
			time.Sleep(d)
		}
		if v, ok := f.injected(op.round, party); ok {
			panic(v)
		}
	}
	p.runChunk(party, op)
}

// runChunk executes the participant's chunk of op (contiguous
// ⌈n/active⌉ items); with a fault-plan permutation the participant may
// be assigned a different chunk index than its own.
func (p *pool) runChunk(party int, op poolOp) {
	idx := party
	if op.perm != nil && party < len(op.perm) {
		idx = op.perm[party]
	}
	if idx >= op.active {
		return
	}
	c := (op.n + op.active - 1) / op.active
	lo := idx * c
	hi := lo + c
	if hi > op.n {
		hi = op.n
	}
	for i := lo; i < hi; i++ {
		op.body(i)
	}
}

// publish stores the next round as the current op and advances the
// dispatch-round counter, deriving the fault-plan permutation when one
// is installed.
func (p *pool) publish(n, active int, body func(i int)) {
	p.op = poolOp{n: n, active: active, body: body, round: p.rounds}
	if f := p.faults; f != nil && f.PermuteSchedule {
		p.op.perm = f.perm(p.rounds, active)
	}
	p.rounds++
}

// run dispatches one round outside a batch: wake the background
// workers, run the coordinator's chunk, block until the last worker
// finishes. Returns the recorded WorkerPanic if any chunk panicked.
func (p *pool) run(n int, body func(i int)) error {
	active := p.background + 1
	if active > n {
		active = n
	}
	p.publish(n, active, body)
	woken := active - 1
	if woken > 0 {
		p.pending.Store(int32(woken))
		for q := 0; q < woken; q++ {
			p.slots[q].wake <- msgRun
		}
	}
	p.runChunkSafe(0, p.op)
	if woken > 0 {
		// The coordinator's wait for the slowest background worker is
		// this mode's imbalance signal (the workers themselves park
		// without waiting on each other).
		var t0 time.Time
		if p.obsv != nil {
			t0 = time.Now()
		}
		<-p.done
		if p.obsv != nil {
			p.obsv.Observe(obs.Event{Kind: obs.KindBarrierWait, Dur: time.Since(t0)})
		}
	}
	p.op.body = nil // do not retain the caller's closure between rounds
	if rec := p.failure.Load(); rec != nil {
		return rec
	}
	return nil
}

// beginBatch checks every background worker out into the barrier-driven
// loop. All of them participate in the barriers even when an op's active
// count is smaller; idle workers just pass through.
func (p *pool) beginBatch() {
	for q := range p.slots {
		p.slots[q].wake <- msgBatch
	}
}

// runFused dispatches one round inside a batch: publish, release the
// workers through the barrier, run the coordinator's chunk, rejoin at
// the completion barrier. The coordinator stays a barrier participant,
// so host code between fused rounds runs exactly where it runs between
// single rounds — fusion changes the synchronization cost, never the
// schedule. Returns a WorkerPanic if a chunk panicked, or a
// BarrierStall if the watchdog declared a barrier stalled.
func (p *pool) runFused(n int, body func(i int)) error {
	active := p.background + 1
	if active > n {
		active = n
	}
	p.publish(n, active, body)
	if st := p.coordBarrier(); st != nil { // release: workers read op and run
		return st
	}
	p.runChunkSafe(0, p.op)
	if st := p.coordBarrier(); st != nil { // join: all chunks done
		return st
	}
	p.op.body = nil
	if rec := p.failure.Load(); rec != nil {
		return rec
	}
	return nil
}

// endBatch publishes the termination sentinel and re-parks the workers.
// A non-nil return means the watchdog gave up waiting for a worker.
func (p *pool) endBatch() *BarrierStall {
	p.op = poolOp{end: true}
	if st := p.coordBarrier(); st != nil {
		return st
	}
	return p.coordBarrier()
}

// workerBarrier is a background worker's sense-reversing rendezvous.
// Waiters spin hot briefly (the common case: every participant is
// already running), then yield, then back off to short sleeps so a long
// host-code section between fused rounds does not burn CPU. Returns
// false when the pool was aborted, telling the worker to exit its
// goroutine.
func (p *pool) workerBarrier(q int) bool {
	var t0 time.Time
	if p.obsv != nil {
		t0 = time.Now()
	}
	gen := p.gen.Load()
	p.slots[q].lastGen.Store(gen)
	if p.arrived.Add(1) == p.parties {
		p.arrived.Store(0)
		p.gen.Add(1)
		if p.obsv != nil {
			p.obsv.Observe(obs.Event{Kind: obs.KindBarrierWait, Index: q + 1, Dur: time.Since(t0)})
		}
		return true
	}
	for spins := 0; p.gen.Load() == gen; spins++ {
		switch {
		case spins < 128:
			// hot spin
		case spins < 4096:
			runtime.Gosched()
		default:
			if p.aborted.Load() {
				return false
			}
			time.Sleep(5 * time.Microsecond)
		}
	}
	if p.obsv != nil {
		p.obsv.Observe(obs.Event{Kind: obs.KindBarrierWait, Index: q + 1, Dur: time.Since(t0)})
	}
	return true
}

// coordBarrier is the coordinator's rendezvous, with the optional
// watchdog: once the wait exceeds the deadline the pool is aborted and
// a BarrierStall naming the missing workers is returned.
func (p *pool) coordBarrier() *BarrierStall {
	var t0 time.Time
	if p.obsv != nil {
		t0 = time.Now()
	}
	gen := p.gen.Load()
	if p.arrived.Add(1) == p.parties {
		p.arrived.Store(0)
		p.gen.Add(1)
		if p.obsv != nil {
			p.obsv.Observe(obs.Event{Kind: obs.KindBarrierWait, Dur: time.Since(t0)})
		}
		return nil
	}
	var start time.Time
	for spins := 0; p.gen.Load() == gen; spins++ {
		switch {
		case spins < 128:
			// hot spin
		case spins < 4096:
			runtime.Gosched()
		default:
			if p.aborted.Load() {
				// Another party failed and will never arrive (a team
				// party's recovered panic sets aborted; batch-mode chunk
				// recovery does not, so this branch is team-only).
				return &BarrierStall{Round: p.rounds, Missing: p.missing(gen)}
			}
			if p.watchdog > 0 {
				now := time.Now()
				if start.IsZero() {
					start = now
				} else if waited := now.Sub(start); waited >= p.watchdog {
					p.aborted.Store(true)
					return &BarrierStall{
						Round:   p.rounds - 1,
						Waited:  waited,
						Missing: p.missing(gen),
					}
				}
			}
			time.Sleep(5 * time.Microsecond)
		}
	}
	if p.obsv != nil {
		p.obsv.Observe(obs.Event{Kind: obs.KindBarrierWait, Dur: time.Since(t0)})
	}
	return nil
}

// missing lists the barrier participants (q ≥ 1, background worker ids)
// that have not arrived at generation gen.
func (p *pool) missing(gen uint32) []int {
	var out []int
	for q := range p.slots {
		if int32(p.slots[q].lastGen.Load()-gen) < 0 {
			out = append(out, q+1)
		}
	}
	return out
}

// close terminates the background workers. Idempotent; only called from
// the owning Machine (Close, failure teardown, or the finalizer), never
// concurrently with dispatch.
func (p *pool) close() {
	if p.closed {
		return
	}
	p.closed = true
	for q := range p.slots {
		close(p.slots[q].wake)
	}
}
