// Package core is the public façade of parlist: one-call access to the
// paper's maximal-matching algorithms and the applications built on
// them, with sensible defaults and a single options struct.
//
// Quick use:
//
//	l := list.RandomList(1<<20, 1)
//	res, err := core.MaximalMatching(l, core.Options{Processors: 1024})
//
// selects Match4 (the paper's optimal algorithm) with i = 3 and reports
// the matching plus the simulated PRAM accounting.
//
// Every package-level function is a thin wrapper over a lazily created
// process-wide engine (one per executor), so repeated calls reuse a
// warm machine and workspace; callers that want explicit control over
// that lifetime — or a private machine — use NewEngine directly.
package core

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

// Algorithm names a maximal-matching algorithm.
type Algorithm = engine.Algorithm

// The available algorithms.
const (
	AlgoMatch1     = engine.AlgoMatch1     // iterated coin tossing, O(nG(n)/p + G(n))
	AlgoMatch2     = engine.AlgoMatch2     // sort-based optimal EREW, O(n/p + log n)
	AlgoMatch3     = engine.AlgoMatch3     // table lookup, O(n·logG(n)/p + logG(n))
	AlgoMatch4     = engine.AlgoMatch4     // §3 scheduling, O(n·log i/p + log^(i) n + log i)
	AlgoSequential = engine.AlgoSequential // greedy walk baseline, O(n)
	AlgoRandomized = engine.AlgoRandomized // random coin tossing baseline
)

// RankScheme names a list-ranking algorithm.
type RankScheme = engine.RankScheme

// The available ranking schemes.
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
	// ErrBadProcessors reports a negative Options.Processors.
	ErrBadProcessors = engine.ErrBadProcessors
	// ErrUnknownAlgorithm reports an Options.Algorithm outside the set.
	ErrUnknownAlgorithm = engine.ErrUnknownAlgorithm
	// ErrUnknownRankScheme reports an Options.Rank outside the set.
	ErrUnknownRankScheme = engine.ErrUnknownRankScheme
)

// Options configures a run.
type Options struct {
	// Algorithm defaults to AlgoMatch4.
	Algorithm Algorithm
	// Processors is the simulated PRAM processor count (default 1;
	// negative values are rejected with ErrBadProcessors).
	Processors int
	// I is Match4's adjustable parameter (default 3).
	I int
	// UseTable selects the Lemma 5 table-based partition in Match4.
	UseTable bool
	// Variant selects the matching partition function's bit choice
	// (default partition.MSB).
	Variant partition.Variant
	// Exec selects the simulator executor (default pram.Sequential).
	Exec pram.Exec
	// Seed feeds the randomized baseline.
	Seed int64
	// Tracer, when non-nil, records a round-level execution log
	// renderable with Tracer.Summary and Tracer.Gantt. Traced runs get
	// a dedicated machine (traces never interleave across callers).
	Tracer *pram.Tracer
	// Rank selects the list-ranking scheme (default RankContraction).
	Rank RankScheme
}

// request translates the per-call options into an engine request.
func (o Options) request(op engine.Op, l *list.List) engine.Request {
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
	defaultEngines = map[pram.Exec]*engine.Engine{}
)

// engineFor returns the engine serving o plus a release func. Traced
// runs get a private one-shot engine; everything else shares the
// per-executor default.
func (o Options) engineFor() (*engine.Engine, func()) {
	if o.Tracer != nil {
		e := engine.New(engine.Config{Exec: o.Exec, Tracer: o.Tracer})
		return e, func() { e.Close() }
	}
	defaultMu.Lock()
	defer defaultMu.Unlock()
	e := defaultEngines[o.Exec]
	if e == nil {
		e = engine.New(engine.Config{Exec: o.Exec})
		defaultEngines[o.Exec] = e
	}
	return e, func() {}
}

func (o Options) run(req engine.Request) (*engine.Result, error) {
	eng, release := o.engineFor()
	defer release()
	res, err := eng.Run(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return res, nil
}

// Result is a computed maximal matching plus accounting.
type Result struct {
	// In[v] reports whether pointer ⟨v, suc(v)⟩ is matched.
	In []bool
	// Size is the number of matched pointers.
	Size int
	// Stats is the simulated PRAM accounting.
	Stats pram.Stats
	// Detail carries the algorithm-specific fields (set counts, table
	// sizes, iteration counts).
	Detail *matching.Result
}

// matchResult rebuilds the façade result (Detail included) from an
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

// MaximalMatching computes a maximal matching of l's pointers.
func MaximalMatching(l *list.List, o Options) (*Result, error) {
	r, err := o.run(o.request(engine.OpMatching, l))
	if err != nil {
		return nil, err
	}
	return matchResult(r), nil
}

// Partition computes a matching partition of the pointers into
// O(log^(i) n) sets via i applications of the matching partition
// function, returning labels and the label-range size.
func Partition(l *list.List, i int, o Options) ([]int, int, error) {
	req := o.request(engine.OpPartition, l)
	req.Iters = i
	r, err := o.run(req)
	if err != nil {
		return nil, 0, err
	}
	return r.Labels, r.Sets, nil
}

// ThreeColor computes a proper 3-colouring of the list's nodes.
func ThreeColor(l *list.List, o Options) ([]int, pram.Stats, error) {
	r, err := o.run(o.request(engine.OpThreeColor, l))
	if err != nil {
		return nil, pram.Stats{}, err
	}
	return r.Labels, r.Stats, nil
}

// MIS computes a maximal independent set of the list's nodes via
// maximal matching.
func MIS(l *list.List, o Options) ([]bool, pram.Stats, error) {
	r, err := o.run(o.request(engine.OpMIS, l))
	if err != nil {
		return nil, pram.Stats{}, err
	}
	return r.In, r.Stats, nil
}

// Rank computes rank-from-head for every node with the scheme selected
// by o.Rank (default: matching contraction).
func Rank(l *list.List, o Options) ([]int, pram.Stats, error) {
	r, err := o.run(o.request(engine.OpRank, l))
	if err != nil {
		return nil, pram.Stats{}, err
	}
	return r.Ranks, r.Stats, nil
}

// Prefix computes data-dependent prefix sums over the list.
func Prefix(l *list.List, vals []int, o Options) ([]int, pram.Stats, error) {
	req := o.request(engine.OpPrefix, l)
	req.Values = vals
	r, err := o.run(req)
	if err != nil {
		return nil, pram.Stats{}, err
	}
	return r.Ranks, r.Stats, nil
}

// ScheduleMatching converts any externally supplied matching partition
// (labels in [0, K), consecutive pointers labelled differently,
// 1 ≤ K ≤ max(n, 6)) into a maximal matching with §4's
// processor-scheduling technique, in O(n/p + K) simulated time.
func ScheduleMatching(l *list.List, lab []int, K int, o Options) (*Result, error) {
	req := o.request(engine.OpSchedule, l)
	req.Labels = lab
	req.K = K
	r, err := o.run(req)
	if err != nil {
		return nil, err
	}
	return matchResult(r), nil
}

// Verify re-checks that in is a maximal matching of l.
func Verify(l *list.List, in []bool) error { return matching.Verify(l, in) }

// EngineConfig shapes a dedicated engine; see engine.Config.
type EngineConfig = engine.Config

// EngineStats are an engine's cumulative counters; see engine.Stats.
type EngineStats = engine.Stats

// Engine is a session handle owning one warm machine + workspace pair:
// construct once, serve many requests (concurrently if desired), Close
// when done. The per-call Options select algorithm, processor count and
// parameters as usual; the executor and tracer are fixed by the
// EngineConfig at construction and the corresponding Options fields are
// ignored on a dedicated engine.
type Engine struct {
	e *engine.Engine
}

// NewEngine returns a dedicated engine.
func NewEngine(cfg EngineConfig) *Engine {
	return &Engine{e: engine.New(cfg)}
}

// Close releases the engine's machine. Further calls fail.
func (e *Engine) Close() error { return e.e.Close() }

// Stats returns cumulative request counters.
func (e *Engine) Stats() EngineStats { return e.e.Stats() }

// Run serves a raw engine request — the full-control entry point
// (context cancellation, per-request fault plans, result reuse via the
// engine package).
func (e *Engine) Run(ctx context.Context, req engine.Request) (*engine.Result, error) {
	return e.e.Run(ctx, req)
}

func (e *Engine) run(req engine.Request) (*engine.Result, error) {
	res, err := e.e.Run(context.Background(), req)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return res, nil
}

// MaximalMatching computes a maximal matching on this engine.
func (e *Engine) MaximalMatching(l *list.List, o Options) (*Result, error) {
	r, err := e.run(o.request(engine.OpMatching, l))
	if err != nil {
		return nil, err
	}
	return matchResult(r), nil
}

// Partition computes a matching partition on this engine.
func (e *Engine) Partition(l *list.List, i int, o Options) ([]int, int, error) {
	req := o.request(engine.OpPartition, l)
	req.Iters = i
	r, err := e.run(req)
	if err != nil {
		return nil, 0, err
	}
	return r.Labels, r.Sets, nil
}

// ThreeColor computes a proper 3-colouring on this engine.
func (e *Engine) ThreeColor(l *list.List, o Options) ([]int, pram.Stats, error) {
	r, err := e.run(o.request(engine.OpThreeColor, l))
	if err != nil {
		return nil, pram.Stats{}, err
	}
	return r.Labels, r.Stats, nil
}

// MIS computes a maximal independent set on this engine.
func (e *Engine) MIS(l *list.List, o Options) ([]bool, pram.Stats, error) {
	r, err := e.run(o.request(engine.OpMIS, l))
	if err != nil {
		return nil, pram.Stats{}, err
	}
	return r.In, r.Stats, nil
}

// Rank computes rank-from-head on this engine.
func (e *Engine) Rank(l *list.List, o Options) ([]int, pram.Stats, error) {
	r, err := e.run(o.request(engine.OpRank, l))
	if err != nil {
		return nil, pram.Stats{}, err
	}
	return r.Ranks, r.Stats, nil
}

// Prefix computes data-dependent prefix sums on this engine.
func (e *Engine) Prefix(l *list.List, vals []int, o Options) ([]int, pram.Stats, error) {
	req := o.request(engine.OpPrefix, l)
	req.Values = vals
	r, err := e.run(req)
	if err != nil {
		return nil, pram.Stats{}, err
	}
	return r.Ranks, r.Stats, nil
}

// ScheduleMatching runs §4's scheduling technique on this engine.
func (e *Engine) ScheduleMatching(l *list.List, lab []int, K int, o Options) (*Result, error) {
	req := o.request(engine.OpSchedule, l)
	req.Labels = lab
	req.K = K
	r, err := e.run(req)
	if err != nil {
		return nil, err
	}
	return matchResult(r), nil
}

// PoolConfig shapes an engine pool; see engine.PoolConfig.
type PoolConfig = engine.PoolConfig

// PoolStats is a pool-wide counter snapshot; see engine.PoolStats.
type PoolStats = engine.PoolStats

// EnginePool is a sharded pool of warm engines fronted by bounded
// admission queues; see engine.EnginePool. Unlike the single Engine
// above it is exported as an alias rather than wrapped: its request
// surface (Submit/Do with engine.Request) is already the full-control
// API, so there is nothing for core to translate.
type EnginePool = engine.EnginePool

// Future is a pending pool request's handle; see engine.Future.
type Future = engine.Future

// RetryPolicy bounds automatic retry of transient faults; see
// engine.RetryPolicy.
type RetryPolicy = engine.RetryPolicy

// BreakerPolicy configures the per-engine circuit breaker; see
// engine.BreakerPolicy.
type BreakerPolicy = engine.BreakerPolicy

// BreakerState is a shard breaker's health state; see
// engine.BreakerState.
type BreakerState = engine.BreakerState

// Breaker states, reported per engine in PoolStats.
const (
	BreakerClosed   = engine.BreakerClosed
	BreakerOpen     = engine.BreakerOpen
	BreakerHalfOpen = engine.BreakerHalfOpen
)

// ShardStats is one sharded request's execution accounting (fan-out,
// reduced-list segments, exchange volume, contract-stage balance),
// attached to its Result by EnginePool.ShardedDo; see
// engine.ShardStats.
type ShardStats = engine.ShardStats

// Re-exported pool sentinels, matchable with errors.Is.
var (
	// ErrQueueFull reports that Submit found the target engine's
	// admission queue at capacity.
	ErrQueueFull = engine.ErrQueueFull
	// ErrPoolClosed reports a Submit or Do after Close.
	ErrPoolClosed = engine.ErrPoolClosed
	// ErrDeadlineExceeded reports a request that blew its
	// Request.Deadline budget — queued or mid-service. Distinct from
	// sheds (ErrQueueFull) and never retried.
	ErrDeadlineExceeded = engine.ErrDeadlineExceeded
	// ErrBadShards reports a ShardedDo fan-out below 1.
	ErrBadShards = engine.ErrBadShards
	// ErrShardUnsupported reports an op or scheme ShardedDo cannot
	// decompose into shard-local segments (only rank and prefix are
	// shardable).
	ErrShardUnsupported = engine.ErrShardUnsupported
)

// NewEnginePool returns a pool of cfg.Engines warm engines sharing one
// configuration. See engine.NewPool for defaulting and the sharding /
// backpressure policy.
func NewEnginePool(cfg PoolConfig) *EnginePool { return engine.NewPool(cfg) }
