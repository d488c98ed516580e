// Package parlist is a Go reproduction of Yijie Han's "Matching
// Partition a Linked List and Its Optimization" (SPAA 1989): parallel
// symmetry breaking on linked lists via matching partition functions
// (deterministic coin tossing), four maximal-matching algorithms
// (Match1–Match4), the WalkDown processor-scheduling optimization, and
// the applications the paper names — 3-colouring, maximal independent
// sets, and list ranking / data-dependent prefix — all on a simulated
// PRAM that counts synchronous steps so measured costs can be compared
// against the paper's bounds.
//
// The root package is the public API; the implementation lives under
// internal/ (see DESIGN.md for the full inventory):
//
//	res, err := parlist.MaximalMatching(parlist.RandomList(1<<20, 1),
//	    parlist.Options{Processors: 4096})
//
// runs the paper's optimal algorithm (Match4, Theorem 1) and reports the
// matching together with simulated PRAM time and work.
//
// Every package-level function picks a lazily created process-wide
// engine (one per executor) and calls the same-named Engine method, so
// repeated calls reuse a warm machine and workspace; callers that want
// explicit control over that lifetime — or a private machine — use
// NewEngine directly.
package parlist

import (
	"context"
	"fmt"
	"sync"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/matching"
	"parlist/internal/partition"
	"parlist/internal/pram"
)

// Re-exported types.
type (
	// Algorithm names one of the paper's algorithms.
	Algorithm = engine.Algorithm
	// List is an array-stored linked list (X[0..n-1] with NEXT pointers).
	List = list.List
	// Stats is a simulated-PRAM accounting snapshot.
	Stats = pram.Stats
	// Exec selects the simulator executor for Options.Exec.
	Exec = pram.Exec
	// Variant selects the matching partition function's bit choice for
	// Options.Variant.
	Variant = partition.Variant
	// Tracer records a round-level execution log for Options.Tracer.
	Tracer = pram.Tracer
	// PhaseStat is one named accounting phase inside Stats.
	PhaseStat = pram.PhaseStat
)

// Executor selectors. ExecNative is the fast-path mode: every
// operation's default configuration runs as a direct work-parallel
// kernel with no simulated step charging (Stats report zero Time/Work
// for it); every other configuration falls back to the pooled machine
// and keeps its exact simulated accounting.
const (
	ExecSequential = pram.Sequential
	ExecPooled     = pram.Pooled
	ExecNative     = pram.Native
)

// Matching-partition-function variants.
const (
	VariantMSB = partition.MSB
	VariantLSB = partition.LSB
)

// Algorithm selectors.
const (
	Match1     = engine.AlgoMatch1     // iterated coin tossing, O(nG(n)/p + G(n))
	Match2     = engine.AlgoMatch2     // sort-based optimal EREW, O(n/p + log n)
	Match3     = engine.AlgoMatch3     // table lookup, O(n·logG(n)/p + logG(n))
	Match4     = engine.AlgoMatch4     // §3 scheduling, O(n·log i/p + log^(i) n + log i)
	Sequential = engine.AlgoSequential // greedy walk baseline, O(n)
	Randomized = engine.AlgoRandomized // random coin tossing baseline
)

// RankScheme selects a list-ranking algorithm for Options.Rank.
type RankScheme = engine.RankScheme

// Ranking scheme selectors.
const (
	// RankContraction splices via per-round maximal matchings (default).
	RankContraction = engine.RankContraction
	// RankWyllie is pointer jumping, Θ(n log n) work.
	RankWyllie = engine.RankWyllie
	// RankLoadBalanced is the Anderson–Miller-style queue scheme.
	RankLoadBalanced = engine.RankLoadBalanced
	// RankRandomMate is randomized contraction.
	RankRandomMate = engine.RankRandomMate
)

// Typed validation errors, tested with errors.Is. Returned (wrapped)
// instead of panics for malformed Options and inputs.
var (
	// ErrNilList reports a nil input list.
	ErrNilList = engine.ErrNilList
	// ErrBadProcessors reports an Options.Processors that is negative
	// or above 2^20.
	ErrBadProcessors = engine.ErrBadProcessors
	// ErrUnknownAlgorithm reports an Options.Algorithm outside the set.
	ErrUnknownAlgorithm = engine.ErrUnknownAlgorithm
	// ErrUnknownRankScheme reports an Options.Rank outside the set.
	ErrUnknownRankScheme = engine.ErrUnknownRankScheme
)

// Options configures a run.
type Options struct {
	// Algorithm defaults to Match4.
	Algorithm Algorithm
	// Processors is the simulated PRAM processor count (default 1;
	// negative values and values above 2^20 are rejected with
	// ErrBadProcessors).
	Processors int
	// I is Match4's adjustable parameter (default 3).
	I int
	// UseTable selects the Lemma 5 table-based partition in Match4.
	UseTable bool
	// Variant selects the matching partition function's bit choice
	// (default VariantMSB).
	Variant Variant
	// Exec selects the simulator executor (default ExecSequential).
	Exec Exec
	// Seed feeds the randomized baseline.
	Seed int64
	// Tracer, when non-nil, records a round-level execution log
	// renderable with Tracer.Summary and Tracer.Gantt. Traced runs get
	// a private engine with the Tracer as its Observer, so traces never
	// interleave across callers.
	Tracer *Tracer
	// Rank selects the list-ranking scheme (default RankContraction).
	Rank RankScheme
}

// request translates the per-call options into an engine request.
func (o Options) request(op engine.Op, l *List) engine.Request {
	return engine.Request{
		Op:         op,
		List:       l,
		Processors: o.Processors,
		Algorithm:  o.Algorithm,
		I:          o.I,
		UseTable:   o.UseTable,
		Variant:    o.Variant,
		Seed:       o.Seed,
		Rank:       o.Rank,
	}
}

// The process-wide default engines, one per executor, created lazily.
// All package-level calls share them (requests serialize per engine);
// the simulated processor count still varies freely per call.
var (
	defaultMu      sync.Mutex
	defaultEngines = map[Exec]*Engine{}
)

// engineFor returns the engine serving o plus a release func. Traced
// runs get a private one-shot engine; everything else shares the
// per-executor default.
func (o Options) engineFor() (*Engine, func()) {
	if o.Tracer != nil {
		e := NewEngine(EngineConfig{Exec: o.Exec, Observer: o.Tracer})
		return e, func() { e.Close() }
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	e := defaultEngines[o.Exec]
	if e == nil {
		e = NewEngine(EngineConfig{Exec: o.Exec})
		defaultEngines[o.Exec] = e
	}
	return e, func() {}
}

// Result is a computed maximal matching plus accounting.
type Result struct {
	// In[v] reports whether pointer ⟨v, suc(v)⟩ is matched.
	In []bool
	// Size is the number of matched pointers.
	Size int
	// Stats is the simulated PRAM accounting.
	Stats Stats
	// Detail carries the algorithm-specific fields (set counts, table
	// sizes, iteration counts).
	Detail *matching.Result
}

// matchResult rebuilds the public result (Detail included) from an
// engine result.
func matchResult(r *engine.Result) *Result {
	return &Result{
		In:    r.In,
		Size:  r.Size,
		Stats: r.Stats,
		Detail: &matching.Result{
			Algorithm: r.Algorithm,
			In:        r.In,
			Size:      r.Size,
			Sets:      r.Sets,
			Rounds:    r.Rounds,
			TableSize: r.TableSize,
			Stats:     r.Stats,
		},
	}
}

// MaximalMatching computes a maximal matching of the list's pointers.
func MaximalMatching(l *List, o Options) (*Result, error) {
	e, release := o.engineFor()
	defer release()
	return e.MaximalMatching(l, o)
}

// Partition computes an O(log^(i) n)-set matching partition of the
// pointers via i applications of the matching partition function,
// returning labels and the label-range size.
func Partition(l *List, i int, o Options) ([]int, int, error) {
	e, release := o.engineFor()
	defer release()
	return e.Partition(l, i, o)
}

// ThreeColor computes a proper 3-colouring of the list's nodes.
func ThreeColor(l *List, o Options) ([]int, Stats, error) {
	e, release := o.engineFor()
	defer release()
	return e.ThreeColor(l, o)
}

// MIS computes a maximal independent set of the list's nodes via
// maximal matching.
func MIS(l *List, o Options) ([]bool, Stats, error) {
	e, release := o.engineFor()
	defer release()
	return e.MIS(l, o)
}

// Rank computes each node's distance from the head with the scheme
// selected by o.Rank (default: matching contraction).
func Rank(l *List, o Options) ([]int, Stats, error) {
	e, release := o.engineFor()
	defer release()
	return e.Rank(l, o)
}

// Prefix computes data-dependent prefix sums over the list.
func Prefix(l *List, vals []int, o Options) ([]int, Stats, error) {
	e, release := o.engineFor()
	defer release()
	return e.Prefix(l, vals, o)
}

// ScheduleMatching converts any matching partition (labels in [0, K),
// consecutive pointers labelled differently, 1 ≤ K ≤ max(n, 6)) into a
// maximal matching with the paper's §4 processor-scheduling technique:
// O(n/p + K) time.
func ScheduleMatching(l *List, lab []int, K int, o Options) (*Result, error) {
	e, release := o.engineFor()
	defer release()
	return e.ScheduleMatching(l, lab, K, o)
}

// Verify checks that in is a maximal matching of l.
func Verify(l *List, in []bool) error { return matching.Verify(l, in) }

// Engine is a reusable session: one warm simulated machine (with its
// persistent worker pool) plus a scratch arena recycled across
// requests, so repeated calls at a fixed size run without heap
// allocation. Safe for concurrent use — requests serialize onto the
// machine. Construct with NewEngine, release with Close:
//
//	eng := parlist.NewEngine(parlist.EngineConfig{Processors: 1024})
//	defer eng.Close()
//	for _, l := range lists {
//	    res, err := eng.MaximalMatching(l, parlist.Options{})
//	    ...
//	}
//
// The per-call Options select algorithm, processor count and parameters
// as usual; the executor and observer are fixed by the EngineConfig at
// construction and the corresponding Options fields (Exec, Tracer) are
// ignored.
type Engine struct {
	e *engine.Engine
}

// EngineConfig shapes a dedicated engine (default processor count,
// executor, real worker cap, watchdog, observer). Its Observer receives
// the engine's event stream; a *Tracer is one, so
// EngineConfig{Observer: tr} logs every request's rounds into tr.
type EngineConfig = engine.Config

// EngineStats are an engine's cumulative counters: requests served,
// failures, machine rebuilds, simulated time/work, arena hit rates.
type EngineStats = engine.Stats

// NewEngine returns a dedicated engine with a warm machine + workspace.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{e: engine.New(cfg)}
}

// Close releases the engine's machine. Further calls fail.
func (e *Engine) Close() error { return e.e.Close() }

// Stats returns cumulative request counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Run serves a raw engine request — the full-control entry point
// (context cancellation, per-request fault plans).
func (e *Engine) Run(ctx context.Context, req EngineRequest) (*EngineResult, error) {
	return e.e.Run(ctx, req)
}

func (e *Engine) run(req engine.Request) (*engine.Result, error) {
	res, err := e.e.Run(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("parlist: %w", err)
	}
	return res, nil
}

// MaximalMatching computes a maximal matching on this engine.
func (e *Engine) MaximalMatching(l *List, o Options) (*Result, error) {
	r, err := e.run(o.request(engine.OpMatching, l))
	if err != nil {
		return nil, err
	}
	return matchResult(r), nil
}

// Partition computes a matching partition on this engine.
func (e *Engine) Partition(l *List, i int, o Options) ([]int, int, error) {
	req := o.request(engine.OpPartition, l)
	req.Iters = i
	r, err := e.run(req)
	if err != nil {
		return nil, 0, err
	}
	return r.Labels, r.Sets, nil
}

// ThreeColor computes a proper 3-colouring on this engine.
func (e *Engine) ThreeColor(l *List, o Options) ([]int, Stats, error) {
	r, err := e.run(o.request(engine.OpThreeColor, l))
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Labels, r.Stats, nil
}

// MIS computes a maximal independent set on this engine.
func (e *Engine) MIS(l *List, o Options) ([]bool, Stats, error) {
	r, err := e.run(o.request(engine.OpMIS, l))
	if err != nil {
		return nil, Stats{}, err
	}
	return r.In, r.Stats, nil
}

// Rank computes rank-from-head on this engine.
func (e *Engine) Rank(l *List, o Options) ([]int, Stats, error) {
	r, err := e.run(o.request(engine.OpRank, l))
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Ranks, r.Stats, nil
}

// Prefix computes data-dependent prefix sums on this engine.
func (e *Engine) Prefix(l *List, vals []int, o Options) ([]int, Stats, error) {
	req := o.request(engine.OpPrefix, l)
	req.Values = vals
	r, err := e.run(req)
	if err != nil {
		return nil, Stats{}, err
	}
	return r.Ranks, r.Stats, nil
}

// ScheduleMatching runs §4's scheduling technique on this engine.
func (e *Engine) ScheduleMatching(l *List, lab []int, K int, o Options) (*Result, error) {
	req := o.request(engine.OpSchedule, l)
	req.Labels = lab
	req.K = K
	r, err := e.run(req)
	if err != nil {
		return nil, err
	}
	return matchResult(r), nil
}

// EnginePool is a sharded pool of warm engines fronted by bounded
// admission queues: Submit returns a Future immediately (or ErrQueueFull
// under overload), Do blocks with backoff, and same-size requests stick
// to the same engine so each arena stays hot. A Submit is served as a
// batch of one, through the same path as SubmitBatch. Construct with
// NewEnginePool, release with Close:
//
//	p := parlist.NewEnginePool(parlist.PoolConfig{Engines: 4})
//	defer p.Close()
//	res, err := p.Do(ctx, parlist.EngineRequest{List: l})
type EnginePool = engine.EnginePool

// PoolConfig shapes an engine pool: engine count (default GOMAXPROCS),
// per-engine queue depth, the shared per-engine EngineConfig, and an
// observer. Unless EngineConfig.Workers is set, the engines split
// GOMAXPROCS between them: each gets max(1, GOMAXPROCS/Engines) real
// workers.
type PoolConfig = engine.PoolConfig

// PoolStats is a pool-wide counter snapshot: totals, rejections,
// cancellations, deadlines, cumulative queue-wait/service time, and
// per-engine load.
type PoolStats = engine.PoolStats

// Future is the handle for a pending pool request: Wait for the result,
// Done to select on completion, Metrics for per-request timings.
type Future = engine.Future

// EngineRequest is the raw typed request served by Engine.Run and
// EnginePool.Submit/Do — the full-control entry point (op selection,
// per-request fault plans).
type EngineRequest = engine.Request

// EngineResult is the raw typed result for an EngineRequest.
type EngineResult = engine.Result

// Op selects what an EngineRequest computes.
type Op = engine.Op

// The raw request operations (EngineRequest.Op).
const (
	OpMatching   = engine.OpMatching
	OpPartition  = engine.OpPartition
	OpThreeColor = engine.OpThreeColor
	OpMIS        = engine.OpMIS
	OpRank       = engine.OpRank
	OpPrefix     = engine.OpPrefix
	OpSchedule   = engine.OpSchedule
)

// ShardStats is one sharded request's execution accounting — fan-out,
// reduced-list segments, PEM-style exchange volume, per-shard contract
// wall times and their imbalance — attached to
// EngineResult.Sharding by EnginePool.ShardedDo:
//
//	res, err := p.ShardedDo(ctx, parlist.EngineRequest{Op: parlist.OpRank, List: l}, 4)
//	fmt.Println(res.Sharding.ExchangeBytes)
type ShardStats = engine.ShardStats

// Pool overload sentinels (test with errors.Is).
var (
	// ErrQueueFull reports that Submit found the admission queue at
	// capacity; back off or use Do.
	ErrQueueFull = engine.ErrQueueFull
	// ErrPoolClosed reports a Submit or Do after Close.
	ErrPoolClosed = engine.ErrPoolClosed
	// ErrDeadlineExceeded reports a request that blew its
	// EngineRequest.Deadline budget — while queued or mid-service.
	// Distinct from sheds and cancellations.
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
	// ErrBadShards reports a ShardedDo fan-out below 1.
	ErrBadShards = engine.ErrBadShards
	// ErrShardUnsupported reports an op ShardedDo cannot decompose
	// into shard-local segments (only rank and prefix are shardable).
	ErrShardUnsupported = engine.ErrShardUnsupported
)

// NewEnginePool returns a pool of cfg.Engines warm engines sharing one
// configuration, for concurrent serving. See engine.NewPool for
// defaulting and the sharding / backpressure policy.
func NewEnginePool(cfg PoolConfig) *EnginePool { return engine.NewPool(cfg) }

// List generators.

// RandomList returns a list visiting a random permutation of addresses.
func RandomList(n int, seed int64) *List { return list.RandomList(n, seed) }

// SequentialList returns the list 0 → 1 → … → n-1.
func SequentialList(n int) *List { return list.SequentialList(n) }

// ReversedList returns the list n-1 → … → 0.
func ReversedList(n int) *List { return list.ReversedList(n) }

// ZigZagList returns the alternating extremes order 0, n-1, 1, n-2, ….
func ZigZagList(n int) *List { return list.ZigZagList(n) }

// BlockedList returns a list with block-local address locality.
func BlockedList(n, blockSize int, seed int64) *List {
	return list.BlockedList(n, blockSize, seed)
}

// FromOrder builds a list visiting the given address permutation.
func FromOrder(order []int) *List { return list.FromOrder(order) }
