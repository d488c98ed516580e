// Package engine provides the session layer of parlist: a long-lived
// Engine owning one simulated PRAM machine (with its persistent worker
// pool) and one workspace arena, serving algorithm requests through a
// single serialized entry point.
//
// The engine keeps the machine warm and recycles the scratch, so at a
// fixed size the second and later requests run without heap
// allocation when the default Match4 or a native kernel serves them
// (BenchmarkEngineReuse and the steady-state tests assert this); every
// other simulated path allocates per request, 719 times for rank by
// contraction at 4,096 nodes (DESIGN.md lists them). parlist's
// package-level functions share one lazily created engine per
// executor. N concurrent callers may share one Engine: requests are
// serialized onto the machine, and every output is copied out of the
// workspace before the next request can reset it.
package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"parlist/internal/color"
	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/obs"
	"parlist/internal/partition"
	"parlist/internal/pram"
	"parlist/internal/rank"
	"parlist/internal/ws"
)

// Algorithm names a maximal-matching algorithm.
type Algorithm string

// The available algorithms.
const (
	AlgoMatch1     Algorithm = "match1"     // iterated coin tossing, O(nG(n)/p + G(n))
	AlgoMatch2     Algorithm = "match2"     // sort-based optimal EREW, O(n/p + log n)
	AlgoMatch3     Algorithm = "match3"     // table lookup, O(n·logG(n)/p + logG(n))
	AlgoMatch4     Algorithm = "match4"     // §3 scheduling, O(n·log i/p + log^(i) n + log i)
	AlgoSequential Algorithm = "sequential" // greedy walk baseline, O(n)
	AlgoRandomized Algorithm = "randomized" // random coin tossing baseline
)

// RankScheme names a list-ranking algorithm.
type RankScheme string

// The available ranking schemes.
const (
	// RankContraction splices via per-round maximal matchings (default).
	RankContraction RankScheme = "contraction"
	// RankWyllie is pointer jumping, Θ(n log n) work.
	RankWyllie RankScheme = "wyllie"
	// RankLoadBalanced is the Anderson–Miller-style queue scheme.
	RankLoadBalanced RankScheme = "loadbalanced"
	// RankRandomMate is randomized contraction.
	RankRandomMate RankScheme = "randommate"
)

// Op selects what a Request computes.
type Op int

// The request operations.
const (
	// OpMatching computes a maximal matching (Request.Algorithm).
	OpMatching Op = iota
	// OpPartition computes an O(log^(i) n)-set matching partition
	// (Request.Iters applications of f).
	OpPartition
	// OpThreeColor computes a proper 3-colouring of the nodes.
	OpThreeColor
	// OpMIS computes a maximal independent set via maximal matching.
	OpMIS
	// OpRank computes rank-from-head for every node (Request.Rank).
	OpRank
	// OpPrefix computes data-dependent prefix sums (Request.Values).
	OpPrefix
	// OpSchedule converts an externally supplied matching partition
	// (Request.Labels, Request.K) into a maximal matching (§4).
	OpSchedule
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpMatching:
		return "matching"
	case OpPartition:
		return "partition"
	case OpThreeColor:
		return "threecolor"
	case OpMIS:
		return "mis"
	case OpRank:
		return "rank"
	case OpPrefix:
		return "prefix"
	case OpSchedule:
		return "schedule"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// MaxIterations caps OpPartition's Iters and Match4's I. Each unit
// costs one more application of f over the whole list, and no useful
// input needs many: IterationsToRange(n, 6) ≤ 4 and G(n) ≤ 5 for every
// n up to 2^62. Without the cap one request could hold an engine for
// hours.
const MaxIterations = 64

// MaxProcessors caps the simulated processor count a request may ask
// for. The simulated fallback sizes scratch by p — Match2's p×K count
// matrix, scan's and LoadBalancedSuffix's per-processor arrays — so
// without the cap one request could ask for hundreds of GiB and end the
// process. 2^20 is above every p the experiments sweep (E3–E5 reach
// 2^18, one processor per node).
const MaxProcessors = 1 << 20

// Typed request-validation errors. Callers test with errors.Is; the
// returned errors carry request detail around these sentinels.
var (
	// ErrClosed reports a request against a closed engine.
	ErrClosed = errors.New("engine closed")
	// ErrNilList reports a request with no input list.
	ErrNilList = errors.New("nil list")
	// ErrInvalidList reports a malformed input list — out-of-range
	// pointers, a self-loop, not exactly one tail, a node with two
	// predecessors, or nodes unreachable from the head. It is
	// list.ErrInvalid, which every structural validation error wraps.
	ErrInvalidList = list.ErrInvalid
	// ErrBadProcessors reports a simulated processor count outside
	// [1, MaxProcessors]. It is checked before any machine work, on
	// every executor.
	ErrBadProcessors = fmt.Errorf("processors must be in [1, %d]", MaxProcessors)
	// ErrUnknownAlgorithm reports an Algorithm outside the known set.
	ErrUnknownAlgorithm = errors.New("unknown algorithm")
	// ErrUnknownRankScheme reports a RankScheme outside the known set.
	ErrUnknownRankScheme = errors.New("unknown ranking scheme")
	// ErrBadValues reports an OpPrefix value slice of the wrong length.
	ErrBadValues = errors.New("values length mismatch")
	// ErrBadIterations reports an iteration count outside
	// [1, MaxIterations]: OpPartition's Iters, or Match4's I on
	// OpMatching and OpMIS (where I < 1 selects the default 3). It is
	// checked before any kernel runs, on every executor.
	ErrBadIterations = fmt.Errorf("iterations must be in [1, %d]", MaxIterations)
	// ErrListTooShort reports a one-node list for an operation that
	// needs a pointer between two distinct nodes: OpPartition (the lone
	// node is its own pseudo-successor, and f(a, a) is undefined) and
	// Match3 (its table plan needs n ≥ 2). It is checked before any
	// kernel runs, on every executor.
	ErrListTooShort = errors.New("list needs at least 2 nodes")
	// ErrBadSchedule reports an OpSchedule input that fails
	// ScheduleMatching's checks: labels of the wrong length, K outside
	// [1, max(n, 6)], a pointer label outside [0, K), or labels that are
	// not a matching partition. It is matching.ErrBadSchedule, which
	// every such error wraps; Sequential and Native fail alike.
	ErrBadSchedule = matching.ErrBadSchedule
	// ErrUnknownOp reports a Request.Op outside the known set.
	ErrUnknownOp = errors.New("unknown operation")
	// ErrNativeUnsupported reports a request feature the Native executor
	// cannot honour (currently: per-request fault plans, whose
	// (round, worker) coordinates are defined by the simulated round
	// stream the native kernels bypass).
	ErrNativeUnsupported = errors.New("not supported by the native executor")
	// ErrDeadlineExceeded reports a request that ran out of budget —
	// Request.Deadline or the context deadline — whether it was still
	// queued or already mid-service (the machine aborts between rounds;
	// see pram.DeadlineExceeded). Distinct from ErrQueueFull: a shed is
	// the pool protecting itself, a deadline is the caller bounding its
	// own wait.
	ErrDeadlineExceeded = errors.New("request deadline exceeded")
)

// Config fixes an Engine's machine shape. The simulated processor count
// can still be overridden per request; everything else is engine-wide.
type Config struct {
	// Processors is the default simulated PRAM processor count
	// (default 1); Request.Processors overrides it per request.
	Processors int
	// Exec selects the simulator executor (default pram.Sequential).
	Exec pram.Exec
	// Workers caps the real worker count for the parallel executors,
	// the native team's parties included (default GOMAXPROCS for a
	// standalone engine; an EnginePool splits GOMAXPROCS across its
	// engines, see PoolConfig.Engine). At 1 every kernel runs inline on
	// the calling goroutine: no worker goroutines, no barrier.
	Workers int
	// Watchdog arms the fused-round barrier watchdog on the pooled
	// executor (0 = disabled).
	Watchdog time.Duration
	// Observer, when non-nil, receives one KindRequest event per served
	// request (latency, outcome, arena churn) and is attached to the
	// engine's machine, so its rounds, barrier waits and phases flow to
	// the same sink. A *pram.Tracer here logs every request's rounds
	// (entries accumulate across requests). Detached (nil) observation
	// costs nothing on the request path.
	Observer obs.Observer
}

// Request describes one computation. The zero value of every field is a
// sensible default; only Op and List are always meaningful.
type Request struct {
	// Op selects the computation (default OpMatching).
	Op Op
	// List is the input linked list (required).
	List *list.List
	// Processors overrides the engine's simulated processor count for
	// this request (0 = engine default; negative is an error).
	Processors int

	// Algorithm selects the maximal-matching algorithm for OpMatching
	// and the matching rounds beneath OpMIS (default AlgoMatch4).
	Algorithm Algorithm
	// I is Match4's adjustable parameter (default 3).
	I int
	// UseTable selects the Lemma 5 table-based partition in Match4.
	UseTable bool
	// CRCW selects the O(1) CRCW table build in Match3 (as in [7]).
	CRCW bool
	// Variant selects the matching partition function's bit choice
	// (default partition.MSB).
	Variant partition.Variant
	// Seed feeds the randomized algorithms.
	Seed int64

	// Iters is OpPartition's application count i (must be ≥ 1).
	Iters int
	// Rank selects the OpRank scheme (default RankContraction).
	Rank RankScheme
	// Values are OpPrefix's addends (length must equal the list's).
	Values []int
	// Labels and K are OpSchedule's externally supplied matching
	// partition: labels in [0, K), consecutive pointers distinct, and
	// 1 ≤ K ≤ max(n, 6).
	Labels []int
	K      int

	// Faults installs a deterministic fault-injection plan for this
	// request only. Fault coordinates are request-relative: the pool's
	// round counter rewinds to zero at every request, so the same plan
	// hits the same rounds no matter how many requests ran before.
	Faults *pram.FaultPlan

	// Deadline bounds the request's total latency: admission, queueing
	// and service together (0 = unbounded). A request that exceeds it
	// fails with ErrDeadlineExceeded — resolved without touching an
	// engine when the budget dies in the queue, aborted between
	// simulated rounds when it dies mid-service. A context deadline is
	// honoured the same way; the earlier of the two wins.
	Deadline time.Duration

	// Trace is the request's distributed-tracing context (zero value =
	// untraced). It is observation-only: the computation, its Result
	// and its simulated Stats are bit-identical with or without it, and
	// the pool emits span events for a Submit only when Trace.Sampled
	// and it has an observer (a SubmitBatch item is traced by its
	// submitter). The serving daemon propagates it from the wire
	// (X-Parlist-Trace / the binary frame's trace block); in-process
	// callers mint one from an obs.TraceSource.
	Trace obs.TraceContext

	// deadlineAt is the absolute deadline the pool derives from
	// Deadline at admission, so queue time spends the same budget as
	// service time. Zero for direct engine calls.
	deadlineAt time.Time
}

// Result is one request's output. All slices are owned by the Result
// (copied out of the engine's workspace) and remain valid indefinitely.
// A Result may be reused across RunInto calls to avoid reallocation.
type Result struct {
	Op        Op
	Algorithm string
	// In is the matching / independent-set membership (OpMatching,
	// OpMIS, OpSchedule).
	In []bool
	// Labels are partition labels or colours (OpPartition, OpThreeColor).
	Labels []int
	// Ranks are ranks or prefix sums (OpRank, OpPrefix).
	Ranks []int
	// Size is the number of matched pointers (OpMatching, OpSchedule).
	Size int
	// Sets, Rounds and TableSize carry the algorithm-specific detail.
	Sets      int
	Rounds    int
	TableSize int
	// Stats is the simulated PRAM accounting for this request alone.
	// For a sharded request it aggregates the plan's steps: Time is the
	// sum over stages of the stage's slowest step, Work the sum over
	// all steps.
	Stats pram.Stats
	// Sharding carries the sharded-execution accounting (fan-out,
	// reduced-list size, exchange volume, per-shard balance) when the
	// result came from EnginePool.ShardedDo; nil otherwise.
	Sharding *ShardStats
}

// Stats are an engine's cumulative counters since construction.
type Stats struct {
	// Requests is the number of requests served (including failures).
	Requests int64
	// Steps is the number of sharded plan steps served (sub-request
	// work co-scheduled by ShardedDo; not included in Requests).
	Steps int64
	// Failures counts requests that returned an error (validation
	// failures and recovered machine faults alike).
	Failures int64
	// Rebuilds counts machine replacements after the first build: each
	// is a fault recovery, since only a fault degrades the machine. A
	// request's processor count never rebuilds it.
	Rebuilds int64
	// SimTime and SimWork accumulate the simulated PRAM step and
	// operation counts over all successful requests.
	SimTime int64
	SimWork int64
	// Arena is the workspace allocator's counters: steady state shows
	// Hits ≈ Gets and a flat BytesAllocated.
	Arena ws.Stats
}

type evalKey struct {
	v partition.Variant
	w int
}

// Engine owns one machine + workspace pair and serializes requests onto
// it. Safe for concurrent use.
type Engine struct {
	cfg Config

	// sem is a one-slot semaphore: the holder owns the machine, the
	// workspace and every non-atomic field below.
	sem chan struct{}

	closed      bool
	m           *pram.Machine
	wsp         *ws.Workspace
	runner      *matching.Runner
	runnerIters int
	native      *matching.NativeRunner // Exec == pram.Native fast path
	nativeIters int
	nativePart  *partition.NativeRunner // native partition kernel
	nativeWalk  *rank.NativeWalker      // native rank/prefix kernel
	evals       map[evalKey]*partition.Evaluator
	mres        matching.Result // runner output scratch

	statsCh chan Stats // 1-slot mailbox holding the cumulative counters
}

// New returns an idle engine; the machine is built on first use.
func New(cfg Config) *Engine {
	if cfg.Processors < 1 {
		cfg.Processors = 1
	}
	e := &Engine{
		cfg:     cfg,
		sem:     make(chan struct{}, 1),
		wsp:     ws.New(),
		evals:   make(map[evalKey]*partition.Evaluator),
		statsCh: make(chan Stats, 1),
	}
	e.statsCh <- Stats{}
	return e
}

// Stats returns the cumulative counters.
func (e *Engine) Stats() Stats {
	st := <-e.statsCh
	e.statsCh <- st
	return st
}

// Close shuts the engine down: the worker pool is released and further
// requests fail with ErrClosed. Close is idempotent.
func (e *Engine) Close() error {
	e.sem <- struct{}{}
	defer func() { <-e.sem }()
	if e.closed {
		return nil
	}
	e.closed = true
	if e.m != nil {
		e.m.Close()
	}
	return nil
}

// Run serves one request, allocating a fresh Result.
func (e *Engine) Run(ctx context.Context, req Request) (*Result, error) {
	res := new(Result)
	if err := e.RunInto(ctx, req, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto serves one request into a caller-owned Result, reusing its
// slice capacity — the zero-allocation path for repeated requests.
// Blocks until the machine is free or ctx is done.
func (e *Engine) RunInto(ctx context.Context, req Request, res *Result) error {
	if res == nil {
		return errors.New("engine: RunInto with nil result")
	}
	// A done context always wins, even when the machine is free (select
	// picks randomly among ready cases).
	if err := ctx.Err(); err != nil {
		return err
	}
	at := effectiveDeadline(ctx, &req)
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-e.sem }()
	return e.serveOne(req, res, at)
}

// effectiveDeadline derives the request's absolute deadline: the
// earliest of the context deadline, the pool-derived admission deadline,
// and the request-relative budget measured from now — computed before
// the semaphore wait so time spent queued behind the machine spends the
// same budget as service. Requests without any deadline skip the clock
// reads entirely.
func effectiveDeadline(ctx context.Context, req *Request) time.Time {
	var at time.Time
	if d, ok := ctx.Deadline(); ok {
		at = d
	}
	if !req.deadlineAt.IsZero() && (at.IsZero() || req.deadlineAt.Before(at)) {
		at = req.deadlineAt
	}
	if req.Deadline > 0 {
		if t := time.Now().Add(req.Deadline); at.IsZero() || t.Before(at) {
			at = t
		}
	}
	return at
}

// serveOne serves one request under an already-held semaphore, wrapping
// serve with the observer hook and the cumulative-stats update. Both
// RunInto and RunBatch funnel through here, so a batched item takes
// exactly the code path a solo request takes — the foundation of the
// batch bit-identity contract.
func (e *Engine) serveOne(req Request, res *Result, at time.Time) error {
	var t0 time.Time
	var arena0 uint64
	if e.cfg.Observer != nil {
		t0 = time.Now()
		arena0 = e.wsp.Stats().BytesAllocated
	}

	err := e.serve(req, res, at)

	if o := e.cfg.Observer; o != nil {
		o.Observe(obs.Event{Kind: obs.KindRequest, Name: req.Op.String(), Dur: time.Since(t0),
			Failed: err != nil, Bytes: int64(e.wsp.Stats().BytesAllocated - arena0)})
		if e.m != nil {
			// Close the request's trailing phase span so idle time
			// between requests is not charged to it.
			e.m.FlushSpans()
		}
	}

	st := <-e.statsCh
	st.Requests++
	if err != nil {
		st.Failures++
	} else {
		st.SimTime += res.Stats.Time
		st.SimWork += res.Stats.Work
	}
	st.Arena = e.wsp.Stats()
	e.statsCh <- st
	return err
}

// procs resolves a request's processor count (0 = the engine's
// default) and refuses one outside [1, MaxProcessors].
func (e *Engine) procs(p int) (int, error) {
	if p == 0 {
		p = e.cfg.Processors
	}
	if p < 1 || p > MaxProcessors {
		return 0, fmt.Errorf("engine: %d %w", p, ErrBadProcessors)
	}
	return p, nil
}

// serve runs one request under the semaphore. at is the absolute
// deadline (zero = none).
func (e *Engine) serve(req Request, res *Result, at time.Time) error {
	if e.closed {
		return fmt.Errorf("engine: %w", ErrClosed)
	}
	if req.List == nil {
		return fmt.Errorf("engine: %w", ErrNilList)
	}
	p, err := e.procs(req.Processors)
	if err != nil {
		return err
	}
	if e.cfg.Exec == pram.Native && req.Faults != nil {
		return fmt.Errorf("engine: fault plans: %w", ErrNativeUnsupported)
	}
	// A budget that died while the request waited (in the pool queue or
	// behind this machine's semaphore) fails before any machine work.
	if !at.IsZero() {
		if now := time.Now(); now.After(at) {
			return fmt.Errorf("engine: deadline passed %v before dispatch: %w", now.Sub(at), ErrDeadlineExceeded)
		}
	}
	e.prologue(p, req.Faults, at)

	// When the native rank walker serves the request it certifies
	// reachability itself (walk), so only the degree pass runs here.
	hasPred := e.wsp.Words(list.DegreeWords(req.List.Len()))
	if e.nativeWalks(&req) {
		err = req.List.ValidateDegrees(hasPred)
	} else {
		err = req.List.ValidateInto(hasPred)
	}
	if err != nil {
		return err
	}

	res.Op = req.Op
	res.Algorithm = ""
	res.In = res.In[:0]
	res.Labels = res.Labels[:0]
	res.Ranks = res.Ranks[:0]
	res.Size, res.Sets, res.Rounds, res.TableSize = 0, 0, 0, 0

	return e.dispatch(req, res)
}

// nativeWalks reports whether the native rank walker serves req:
// OpRank under a scheme it is output-identical to, or OpPrefix with one
// value per node. serve and dispatch both decide by it, so a request
// skips the reachability half of validation exactly when walk runs.
// Every other request keeps serve's full validation, so a malformed
// list that also carries an unknown scheme or bad values fails on the
// list, as it always has.
func (e *Engine) nativeWalks(req *Request) bool {
	if e.cfg.Exec != pram.Native {
		return false
	}
	switch req.Op {
	case OpRank:
		return req.Rank == "" || req.Rank == RankContraction || req.Rank == RankWyllie
	case OpPrefix:
		return len(req.Values) == req.List.Len()
	}
	return false
}

// walk serves a nativeWalks request (vals nil = rank) on the cached
// rank walker. The walk's reached count stands in for the
// reachability half of validation that serve skipped.
func (e *Engine) walk(l *list.List, vals []int) ([]int, error) {
	if e.nativeWalk == nil {
		e.nativeWalk = rank.NewNativeWalker(e.m)
	}
	out, reached := e.nativeWalk.Walk(l, vals)
	if reached != l.Len() {
		return nil, list.UnreachableError(reached, l.Len())
	}
	return out, nil
}

// prologue readies the machine for one request or step: it (re)builds
// a missing or degraded machine (only a fault degrades one), recycles
// the scratch, rewinds the accounting, sets the processor count — it
// scales only the accounting, so one warm machine and its kernels serve
// every count — and reinstalls the fault plan, whose round counter
// rewinds with it, and the deadline, so no stale one leaks.
func (e *Engine) prologue(p int, faults *pram.FaultPlan, at time.Time) {
	if e.m == nil || e.m.Degraded() {
		e.rebuild()
	}
	e.wsp.Reset()
	e.m.Reset()
	e.m.SetProcessors(p)
	e.m.SetFaults(faults)
	e.m.SetDeadline(at)
}

// rebuild replaces the machine (first build included), keeping the
// workspace and its warm free lists.
func (e *Engine) rebuild() {
	if e.m != nil {
		e.m.Close()
		st := <-e.statsCh
		st.Rebuilds++
		e.statsCh <- st
	}
	opts := []pram.Option{pram.WithExec(e.cfg.Exec), pram.WithWorkspace(e.wsp)}
	if e.cfg.Workers > 0 {
		opts = append(opts, pram.WithWorkers(e.cfg.Workers))
	}
	if e.cfg.Watchdog > 0 {
		opts = append(opts, pram.WithWatchdog(e.cfg.Watchdog))
	}
	if e.cfg.Observer != nil {
		opts = append(opts, pram.WithObserver(e.cfg.Observer))
	}
	e.m = pram.New(e.cfg.Processors, opts...)
	e.runner = nil // bound to the old machine
	e.native = nil
	e.nativePart = nil
	e.nativeWalk = nil
}

// eval returns the cached evaluator for (variant, list size).
func (e *Engine) eval(v partition.Variant, n int) *partition.Evaluator {
	w := 1
	for x := 2; x < n; x *= 2 {
		w++
	}
	if w < 2 {
		w = 2
	}
	k := evalKey{v, w}
	ev := e.evals[k]
	if ev == nil {
		ev = partition.NewEvaluator(v, w)
		e.evals[k] = ev
	}
	return ev
}

// dispatch executes the request body on the prepared machine,
// translating recovered executor failures (an injected worker panic, a
// stalled barrier abandoned by the watchdog) into errors. The machine is
// left degraded by such failures; the next request rebuilds it.
func (e *Engine) dispatch(req Request, res *Result) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(r)
		}
	}()

	m, l := e.m, req.List
	n := l.Len()
	native := e.cfg.Exec == pram.Native
	switch req.Op {
	case OpMatching:
		return e.runMatching(req, res)
	case OpPartition:
		if req.Iters < 1 || req.Iters > MaxIterations {
			return fmt.Errorf("engine: iters=%d: %w", req.Iters, ErrBadIterations)
		}
		if n < 2 {
			return fmt.Errorf("engine: partition of %d node: %w", n, ErrListTooShort)
		}
		var lab []int
		var rng int
		if native {
			lab = e.partRunner().Iterate(l, e.eval(req.Variant, n), req.Iters)
			rng = partition.RangeAfter(n, req.Iters)
		} else {
			lab, rng = matching.PartitionIterated(m, l, e.eval(req.Variant, n), req.Iters)
		}
		res.Labels = append(res.Labels, lab...)
		res.Sets = rng
		res.Rounds = req.Iters
	case OpThreeColor:
		var lab []int
		if native {
			lab = e.partRunner().Iterate(l, e.eval(req.Variant, n), color.CoinTossingRounds(n))
			lab = color.NativeReduceToThree(m, l, lab)
		} else {
			lab = color.ThreeColor(m, l, e.eval(req.Variant, n))
		}
		res.Labels = append(res.Labels, lab...)
	case OpMIS:
		i, err := match4I(req.I)
		if err != nil {
			return err
		}
		var in []bool
		if native && !req.UseTable {
			nr, err := e.matchRunner(i)
			if err != nil {
				return err
			}
			if err := nr.Run(l, &e.mres); err != nil {
				return err
			}
			in = color.NativeMISFromMatching(m, l, e.mres.In, nr.Used())
		} else {
			in, err = color.MISViaMatching(m, l, matching.Match4Config{I: i, UseTable: req.UseTable})
			if err != nil {
				return err
			}
		}
		res.In = append(res.In, in...)
	case OpRank:
		scheme := req.Rank
		if scheme == "" {
			scheme = RankContraction
		}
		var rk []int
		var err error
		switch scheme {
		case RankContraction, RankWyllie:
			// Ranks are unique, so the native rank walker is
			// output-identical to either simulated scheme.
			if e.nativeWalks(&req) {
				rk, err = e.walk(l, nil)
				break
			}
			if scheme == RankContraction {
				rk, _, err = rank.Rank(m, l, nil)
			} else {
				rk = rank.WyllieRank(m, l)
			}
		case RankLoadBalanced:
			rk, _, err = rank.LoadBalancedRank(m, l)
		case RankRandomMate:
			rk, _ = rank.RandomMateRank(m, l, req.Seed)
		default:
			return fmt.Errorf("engine: %q: %w", scheme, ErrUnknownRankScheme)
		}
		if err != nil {
			return err
		}
		res.Ranks = append(res.Ranks, rk...)
	case OpPrefix:
		if len(req.Values) != n {
			return fmt.Errorf("engine: %d values for %d nodes: %w", len(req.Values), n, ErrBadValues)
		}
		var out []int
		var err error
		if e.nativeWalks(&req) {
			out, err = e.walk(l, req.Values)
		} else {
			out, _, err = rank.Prefix(m, l, req.Values, nil)
		}
		if err != nil {
			return err
		}
		res.Ranks = append(res.Ranks, out...)
	case OpSchedule:
		var r *matching.Result
		if native {
			// Schedule applies f zero times, so any cached runner serves.
			i := e.nativeIters
			if e.native == nil {
				i = 3
			}
			nr, err := e.matchRunner(i)
			if err != nil {
				return err
			}
			if err := nr.Schedule(l, req.Labels, req.K, &e.mres); err != nil {
				return err
			}
			r = &e.mres
		} else {
			var err error
			if r, err = matching.ScheduleMatching(m, l, req.Labels, req.K); err != nil {
				return err
			}
		}
		e.copyMatching(r, res)
	default:
		return fmt.Errorf("engine: %v: %w", req.Op, ErrUnknownOp)
	}
	m.SnapshotInto(&res.Stats)
	return nil
}

// runMatching serves OpMatching. The default configuration (Match4,
// iterated partition, MSB variant) runs on the engine's cached Runner —
// the code matching.Match4 runs, with its round bodies bound once — or
// on a native engine the NativeRunner kernel; every other selection
// runs the one-shot implementations on the same machine.
func (e *Engine) runMatching(req Request, res *Result) error {
	m, l := e.m, req.List
	n := l.Len()
	algo := req.Algorithm
	if algo == "" {
		algo = AlgoMatch4
	}
	i, err := match4I(req.I)
	if err != nil {
		return err
	}
	var r *matching.Result
	switch algo {
	case AlgoMatch4:
		if !req.UseTable && req.Variant == partition.MSB {
			if e.cfg.Exec == pram.Native {
				nr, err := e.matchRunner(i)
				if err != nil {
					return err
				}
				if err := nr.Run(l, &e.mres); err != nil {
					return err
				}
				r = &e.mres
				e.copyMatching(r, res)
				e.m.SnapshotInto(&res.Stats)
				return nil
			}
			if e.runner == nil || e.runnerIters != i {
				e.runner, err = matching.NewRunner(m, i)
				if err != nil {
					return err
				}
				e.runnerIters = i
			}
			if err := e.runner.Run(l, &e.mres); err != nil {
				return err
			}
			r = &e.mres
		} else {
			r, err = matching.Match4(m, l, e.eval(req.Variant, n), matching.Match4Config{I: i, UseTable: req.UseTable})
		}
	case AlgoMatch1:
		r = matching.Match1(m, l, e.eval(req.Variant, n))
	case AlgoMatch2:
		r = matching.Match2(m, l, e.eval(req.Variant, n))
	case AlgoMatch3:
		if n < 2 {
			return fmt.Errorf("engine: match3 of %d node: %w", n, ErrListTooShort)
		}
		r, err = matching.Match3(m, l, e.eval(req.Variant, n), matching.Match3Config{CRCWBuild: req.CRCW})
	case AlgoSequential:
		in := matching.Sequential(l)
		m.Charge(int64(n), int64(n))
		r = &matching.Result{Algorithm: "sequential", In: in, Size: matching.Count(in)}
	case AlgoRandomized:
		in, rounds := matching.Randomized(m, l, req.Seed)
		r = &matching.Result{Algorithm: "randomized", In: in, Size: matching.Count(in), Rounds: rounds}
	default:
		return fmt.Errorf("engine: %q: %w", algo, ErrUnknownAlgorithm)
	}
	if err != nil {
		return err
	}
	e.copyMatching(r, res)
	e.m.SnapshotInto(&res.Stats)
	return nil
}

// match4I resolves Match4's parameter I: below 1 selects the default 3,
// above MaxIterations is refused.
func match4I(i int) (int, error) {
	switch {
	case i > MaxIterations:
		return 0, fmt.Errorf("engine: i=%d: %w", i, ErrBadIterations)
	case i < 1:
		return 3, nil
	}
	return i, nil
}

// matchRunner returns the cached native Match4 kernel for parameter i,
// rebuilding it when i changes.
func (e *Engine) matchRunner(i int) (*matching.NativeRunner, error) {
	if e.native == nil || e.nativeIters != i {
		nr, err := matching.NewNativeRunner(e.m, i)
		if err != nil {
			return nil, err
		}
		e.native, e.nativeIters = nr, i
	}
	return e.native, nil
}

// partRunner returns the cached native partition kernel.
func (e *Engine) partRunner() *partition.NativeRunner {
	if e.nativePart == nil {
		e.nativePart = partition.NewNativeRunner(e.m)
	}
	return e.nativePart
}

// copyMatching moves a matching result into the caller-owned Result
// (res.In reuses capacity; r.In may alias the workspace).
func (e *Engine) copyMatching(r *matching.Result, res *Result) {
	res.Algorithm = r.Algorithm
	res.In = append(res.In, r.In...)
	res.Size = r.Size
	res.Sets = r.Sets
	res.Rounds = r.Rounds
	res.TableSize = r.TableSize
}
