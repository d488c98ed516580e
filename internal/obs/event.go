package obs

import "time"

// Observer receives the event stream: every observation the simulator,
// the engines and the pool make reaches its sink as one Event. Observe
// is called concurrently — from machine coordinators, pool workers at
// their barriers, dispatchers, and retry and quarantine goroutines — so
// implementations must be safe for that, and should return at once on
// the kinds they do not consume.
//
// Observation is a side channel: a producer with no observer checks one
// nil interface per hook site and does nothing else, and an attached
// observer changes no result and no simulated Stats. Events are passed
// by value, so attaching one allocates nothing.
type Observer interface {
	Observe(Event)
}

// Kind says what an Event observed, and so which of its fields are set.
type Kind uint8

// Event kinds, by producing layer.
const (
	// KindParFor is one ParFor or ParForCost round of a pram.Machine:
	// Name is the current phase, N the item count, Time and Work the
	// simulated steps and work charged, Dur the wall time.
	KindParFor Kind = iota
	// KindProc is one ProcFor or ProcRun round, with KindParFor's
	// fields; N is the processor count.
	KindProc
	// KindCharge is one analytic Machine.Charge: Name is the phase,
	// Time and Work the charge.
	KindCharge
	// KindBarrierWait is one participant's wait at an executor barrier:
	// Index is the participant (0 = the coordinator), Dur the wait.
	KindBarrierWait
	// KindPhase is one completed accounting phase: Name ran from Start
	// for Dur.
	KindPhase

	// KindRequest is one request, or one sharded plan step, served by
	// an engine: Name is the op (or step label), Dur the engine-side
	// wall time, Failed its outcome, Bytes the fresh arena bytes.
	KindRequest

	// KindEnqueue is one pool admission: N is the chosen queue's depth
	// after it.
	KindEnqueue
	// KindDequeue is one request leaving its queue: Dur is its wait, N
	// the queue's remaining depth.
	KindDequeue
	// KindShed is one admission refused with a full queue.
	KindShed
	// KindRetry is one retry scheduled after a transient failure on
	// engine Index.
	KindRetry
	// KindDeadline is one request failed past its deadline budget.
	KindDeadline
	// KindBreaker is engine Index's breaker entering state N (0 closed,
	// 1 open, 2 half-open).
	KindBreaker
	// KindQuarantine is engine Index readmitted Dur after its breaker
	// opened.
	KindQuarantine
	// KindShardedRequest is one completed sharded request: Index is its
	// fan-out, N the reduced list's segments, Bytes the exchange
	// volume, Permille the contract-stage imbalance (slowest shard over
	// the mean, ×1000).
	KindShardedRequest
	// KindShardStep is one plan step served on shard Index: Name is the
	// step label, Dur its service time, Wait its wait for the slowest
	// step of its stage.
	KindShardStep
	// KindSpan is one completed span of a sampled trace, in Span.
	KindSpan
)

// Event is one observation. Kind documents which fields it sets; the
// others are zero.
type Event struct {
	Kind   Kind
	Failed bool
	Name   string
	Index  int
	N      int
	Time   int64
	Work   int64
	Bytes  int64
	// Permille is a sharded request's imbalance.
	Permille int64
	Start    time.Time
	Dur      time.Duration
	Wait     time.Duration
	Span     Span
}
