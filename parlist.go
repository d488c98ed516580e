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
// The root package re-exports the public façade; the implementation
// lives under internal/ (see DESIGN.md for the full inventory):
//
//	res, err := parlist.MaximalMatching(parlist.RandomList(1<<20, 1),
//	    parlist.Options{Processors: 4096})
//
// runs the paper's optimal algorithm (Match4, Theorem 1) and reports the
// matching together with simulated PRAM time and work.
package parlist

import (
	"parlist/internal/core"
	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/partition"
	"parlist/internal/pram"
)

// Re-exported option and result types.
type (
	// Options configures an algorithm run; see core.Options.
	Options = core.Options
	// Result is a computed maximal matching plus PRAM accounting.
	Result = core.Result
	// Algorithm names one of the paper's algorithms.
	Algorithm = core.Algorithm
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

// Executor selectors. ExecNative is the fast-path mode: the hot
// operations (Match4 matching, partition, list ranks, prefix) run as
// direct work-parallel kernels with no simulated step charging
// (Stats report zero Time/Work for them); every other operation falls
// back to the pooled machine and keeps its exact simulated accounting.
const (
	ExecSequential = pram.Sequential
	ExecGoroutines = pram.Goroutines
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
	Match1     = core.AlgoMatch1
	Match2     = core.AlgoMatch2
	Match3     = core.AlgoMatch3
	Match4     = core.AlgoMatch4
	Sequential = core.AlgoSequential
	Randomized = core.AlgoRandomized
)

// Typed validation errors (test with errors.Is).
var (
	ErrNilList           = core.ErrNilList
	ErrBadProcessors     = core.ErrBadProcessors
	ErrUnknownAlgorithm  = core.ErrUnknownAlgorithm
	ErrUnknownRankScheme = core.ErrUnknownRankScheme
)

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
type Engine = core.Engine

// EngineConfig shapes a dedicated engine (default processor count,
// executor, real worker cap, watchdog, tracer).
type EngineConfig = core.EngineConfig

// EngineStats are an engine's cumulative counters: requests served,
// failures, machine rebuilds, simulated time/work, arena hit rates.
type EngineStats = core.EngineStats

// NewEngine returns a dedicated engine with a warm machine + workspace.
func NewEngine(cfg EngineConfig) *Engine { return core.NewEngine(cfg) }

// EnginePool is a sharded pool of warm engines fronted by bounded
// admission queues: Submit returns a Future immediately (or ErrQueueFull
// under overload), Do blocks with backoff, same-size requests stick to
// the same engine so each arena stays hot, and an optional result cache
// replays idempotent traffic without touching an engine. Construct with
// NewEnginePool, release with Close:
//
//	p := parlist.NewEnginePool(parlist.PoolConfig{Engines: 4})
//	defer p.Close()
//	res, err := p.Do(ctx, parlist.EngineRequest{List: l})
type EnginePool = core.EnginePool

// PoolConfig shapes an engine pool: engine count (default GOMAXPROCS),
// per-engine queue depth, result-cache capacity, the shared per-engine
// EngineConfig, and the resilience knobs (Retry, Breaker). Unless
// EngineConfig.Workers is set, the engines split GOMAXPROCS between
// them: each gets max(1, GOMAXPROCS/Engines) real workers.
type PoolConfig = core.PoolConfig

// PoolStats is a pool-wide counter snapshot: totals, rejections,
// cancellations, cache hits, cumulative queue-wait/service time, and
// per-engine load.
type PoolStats = core.PoolStats

// Future is the handle for a pending pool request: Wait for the result,
// Done to select on completion, Metrics for per-request timings.
type Future = core.Future

// RetryPolicy (PoolConfig.Retry) bounds automatic retry of transient
// faults — worker panics and barrier stalls — on a different engine
// with capped jittered backoff. Deadline, overload, and validation
// failures are never retried. Retried results are bit-identical to
// fault-free runs.
type RetryPolicy = core.RetryPolicy

// BreakerPolicy (PoolConfig.Breaker) configures the per-engine circuit
// breaker: Threshold consecutive transient faults quarantine the
// engine, which is rebuilt off the hot path and readmitted only after
// verifier-checked canary probes pass.
type BreakerPolicy = core.BreakerPolicy

// BreakerState is an engine breaker's health state (closed / open /
// half-open), reported per engine in PoolStats.
type BreakerState = core.BreakerState

// Breaker states, reported per engine in PoolStats.
const (
	BreakerClosed   = core.BreakerClosed
	BreakerOpen     = core.BreakerOpen
	BreakerHalfOpen = core.BreakerHalfOpen
)

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
// wall times and their imbalance, step retries — attached to
// EngineResult.Sharding by EnginePool.ShardedDo:
//
//	res, err := p.ShardedDo(ctx, parlist.EngineRequest{Op: parlist.OpRank, List: l}, 4)
//	fmt.Println(res.Sharding.ExchangeBytes)
type ShardStats = core.ShardStats

// Pool overload sentinels (test with errors.Is).
var (
	// ErrQueueFull reports that Submit found the admission queue at
	// capacity; back off or use Do.
	ErrQueueFull = core.ErrQueueFull
	// ErrPoolClosed reports a Submit or Do after Close.
	ErrPoolClosed = core.ErrPoolClosed
	// ErrDeadlineExceeded reports a request that blew its
	// EngineRequest.Deadline budget — while queued or mid-service.
	// Distinct from sheds and cancellations; never retried.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrBadShards reports a ShardedDo fan-out below 1.
	ErrBadShards = core.ErrBadShards
	// ErrShardUnsupported reports an op ShardedDo cannot decompose
	// into shard-local segments (only rank and prefix are shardable).
	ErrShardUnsupported = core.ErrShardUnsupported
)

// NewEnginePool returns a pool of warm engines for concurrent serving.
func NewEnginePool(cfg PoolConfig) *EnginePool { return core.NewEnginePool(cfg) }

// RankScheme selects a list-ranking algorithm for Options.Rank.
type RankScheme = core.RankScheme

// Ranking scheme selectors.
const (
	RankContraction  = core.RankContraction
	RankWyllie       = core.RankWyllie
	RankLoadBalanced = core.RankLoadBalanced
	RankRandomMate   = core.RankRandomMate
)

// MaximalMatching computes a maximal matching of the list's pointers.
func MaximalMatching(l *List, o Options) (*Result, error) {
	return core.MaximalMatching(l, o)
}

// Verify checks that in is a maximal matching of l.
func Verify(l *List, in []bool) error { return core.Verify(l, in) }

// ScheduleMatching converts any matching partition (labels in [0, K),
// consecutive pointers labelled differently, 1 ≤ K ≤ max(n, 6)) into a
// maximal matching with the paper's §4 processor-scheduling technique:
// O(n/p + K) time.
func ScheduleMatching(l *List, lab []int, K int, o Options) (*Result, error) {
	return core.ScheduleMatching(l, lab, K, o)
}

// Partition computes an O(log^(i) n)-set matching partition of the
// pointers, returning labels and the label-range size.
func Partition(l *List, i int, o Options) ([]int, int, error) {
	return core.Partition(l, i, o)
}

// ThreeColor computes a proper 3-colouring of the list's nodes.
func ThreeColor(l *List, o Options) ([]int, Stats, error) {
	return core.ThreeColor(l, o)
}

// MIS computes a maximal independent set of the list's nodes.
func MIS(l *List, o Options) ([]bool, Stats, error) {
	return core.MIS(l, o)
}

// Rank computes each node's distance from the head.
func Rank(l *List, o Options) ([]int, Stats, error) {
	return core.Rank(l, o)
}

// Prefix computes data-dependent prefix sums over the list.
func Prefix(l *List, vals []int, o Options) ([]int, Stats, error) {
	return core.Prefix(l, vals, o)
}

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
