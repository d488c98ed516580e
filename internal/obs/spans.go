package obs

// Span recording with tail-based sampling. Producers emit completed
// spans (they never hold one open across a call boundary); the recorder
// assembles them into per-trace buffers and decides at root-span
// completion whether the whole trace is worth keeping:
//
//   - traces that failed (error, deadline, shed) are always kept,
//   - traces slower than the rolling p99 of root latency are always
//     kept (and until the latency histogram has seen enough roots to
//     estimate a p99, everything is kept — the cold-start rule),
//   - the rest are kept with probability KeepRate, decided by a
//     deterministic hash of the trace id so a fixed-seed test run
//     samples the same traces every time.
//
// The recorder is striped ("per-P" in spirit): a span takes one short
// critical section on the stripe its trace id hashes to, so concurrent
// requests rarely contend, and trace buffers are pooled so the sampled
// path allocates only when a trace outgrows its recycled buffer.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed wall-clock span of a sampled trace.
type Span struct {
	// TraceHi and TraceLo are the owning trace's 128-bit id.
	TraceHi, TraceLo uint64
	// SpanID is this span's id (0 on Record = mint one); ParentID is
	// the parent span (0 = root).
	SpanID, ParentID uint64
	// Link groups sibling spans across traces: the fused-batch spans of
	// one flush all carry the batch's minted id (0 = no link).
	Link uint64
	// Name is the span's stage label ("request", "inbox", "batch",
	// "queue", "engine", "exchange", "step-contract", ...).
	Name string
	// Shard is the engine/shard index that did the work (-1 = none).
	Shard int
	// Start and Dur bound the span.
	Start time.Time
	Dur   time.Duration
	// Status classifies the outcome: "" is success, anything else is
	// the failure class ("error", "deadline", "shed", ...). A non-empty
	// root status forces the trace to be kept.
	Status string
}

// spanRecorderStripes is the stripe fan-out: enough that concurrent
// requests on a many-core host rarely share a stripe lock.
const spanRecorderStripes = 16

// Per-stripe capacity defaults; SpanRecorder documents the totals.
const (
	// stripeRingCap bounds kept traces per stripe (FIFO eviction).
	stripeRingCap = 32
	// stripePendingCap bounds in-flight trace buffers per stripe; when
	// an orphaned trace (root never recorded) would push a stripe past
	// it, the oldest pending buffer is dropped.
	stripePendingCap = 128
	// coldStartRoots is how many root spans the recorder keeps
	// unconditionally before trusting its p99 estimate.
	coldStartRoots = 64
	// slowRecompute is how often (in roots) the p99 threshold refreshes.
	slowRecompute = 64
)

// traceBuf accumulates one trace's spans until its root completes.
type traceBuf struct {
	key   uint64
	seq   uint64 // arrival order, for orphan eviction
	spans []Span
	done  bool // root recorded; buffer lives in the kept ring
}

// stripe is one lock domain of the recorder.
type stripe struct {
	mu      sync.Mutex
	pending map[uint64]*traceBuf
	ring    []*traceBuf // kept traces, oldest first
	_       [32]byte    // keep adjacent stripe locks off one line
}

// SpanRecorderStats is a point-in-time summary of a recorder.
type SpanRecorderStats struct {
	// Roots counts completed traces seen (root spans recorded).
	Roots int64
	// Kept counts traces retained by tail sampling (≤ Roots; old kept
	// traces may since have been evicted from the ring).
	Kept int64
	// Spans counts spans currently held in the kept rings.
	Spans int
	// Pending counts traces still waiting for their root span.
	Pending int
	// SlowNs is the current keep-everything-slower-than threshold
	// (0 until the cold start ends).
	SlowNs int64
}

// SpanRecorder records sampled spans with tail-based sampling. Safe
// for concurrent use; a nil *SpanRecorder is a valid no-op sink.
// Capacity is fixed: 16 stripes × 32 kept traces, pending assembly
// bounded per stripe, buffers pooled.
type SpanRecorder struct {
	src      *TraceSource
	keepRate float64

	lat     Histogram // root-span latencies; feeds the p99 threshold
	roots   atomic.Int64
	kept    atomic.Int64
	slowNs  atomic.Int64
	seq     atomic.Uint64
	stripes [spanRecorderStripes]stripe

	pool sync.Pool // *traceBuf
}

// NewSpanRecorder returns a recorder minting ids from src. keepRate in
// [0, 1] is the probabilistic keep rate for unremarkable traces
// (errors, deadline/shed failures and slow traces are always kept).
func NewSpanRecorder(src *TraceSource, keepRate float64) *SpanRecorder {
	if src == nil {
		src = NewTraceSource(1)
	}
	if keepRate < 0 {
		keepRate = 0
	}
	if keepRate > 1 {
		keepRate = 1
	}
	r := &SpanRecorder{src: src, keepRate: keepRate}
	r.pool.New = func() any { return &traceBuf{} }
	for i := range r.stripes {
		r.stripes[i].pending = make(map[uint64]*traceBuf)
	}
	return r
}

// Source returns the id source the recorder mints from — the same
// source servers use to create contexts, so one seed fixes every id.
func (r *SpanRecorder) Source() *TraceSource {
	if r == nil {
		return nil
	}
	return r.src
}

// Record lands one completed span. A span with SpanID 0 gets a minted
// id; a span with ParentID 0 is the trace's root and triggers the tail
// keep/drop decision for everything recorded under its trace id. Spans
// of a trace whose root has already finalized extend the kept trace if
// it is still in the ring, and are dropped otherwise. A nil recorder
// drops everything.
func (r *SpanRecorder) Record(s Span) {
	if r == nil || s.TraceHi|s.TraceLo == 0 {
		return
	}
	if s.SpanID == 0 {
		s.SpanID = r.src.next()
	}
	key := s.TraceHi ^ s.TraceLo
	st := &r.stripes[key%spanRecorderStripes]
	st.mu.Lock()
	b := st.pending[key]
	if b == nil {
		// A late span for an already-kept trace lands in its ring slot.
		if s.ParentID != 0 {
			for _, kb := range st.ring {
				if kb.key == key {
					kb.spans = append(kb.spans, s)
					st.mu.Unlock()
					return
				}
			}
		}
		b = r.pool.Get().(*traceBuf)
		b.key = key
		b.seq = r.seq.Add(1)
		b.spans = b.spans[:0]
		b.done = false
		if len(st.pending) >= stripePendingCap {
			r.evictOldestLocked(st)
		}
		st.pending[key] = b
	}
	b.spans = append(b.spans, s)
	if s.ParentID != 0 {
		st.mu.Unlock()
		return
	}

	// Root span: finalize the trace.
	delete(st.pending, key)
	keep := r.keepDecision(&s)
	if !keep {
		st.mu.Unlock()
		r.recycle(b)
		return
	}
	b.done = true
	if len(st.ring) >= stripeRingCap {
		old := st.ring[0]
		copy(st.ring, st.ring[1:])
		st.ring[len(st.ring)-1] = b
		st.mu.Unlock()
		r.recycle(old)
	} else {
		st.ring = append(st.ring, b)
		st.mu.Unlock()
	}
	r.kept.Add(1)
}

// keepDecision applies the tail-sampling policy to a root span.
func (r *SpanRecorder) keepDecision(root *Span) bool {
	d := root.Dur.Nanoseconds()
	r.lat.Observe(d)
	n := r.roots.Add(1)
	if n%slowRecompute == 0 {
		var snap HistSnapshot
		r.lat.Snapshot(&snap)
		r.slowNs.Store(snap.Quantile(0.99))
	}
	if root.Status != "" {
		return true
	}
	if n <= coldStartRoots {
		return true // cold start: no p99 estimate worth trusting yet
	}
	if slow := r.slowNs.Load(); slow > 0 && d >= slow {
		return true
	}
	// Deterministic coin: a splitmix64 round over the trace id, so a
	// fixed-seed run keeps the same traces every time.
	h := root.TraceHi ^ root.TraceLo
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11)/float64(1<<53) < r.keepRate
}

// evictOldestLocked drops the stripe's oldest pending (orphaned) trace.
func (r *SpanRecorder) evictOldestLocked(st *stripe) {
	var oldest *traceBuf
	for _, b := range st.pending {
		if oldest == nil || b.seq < oldest.seq {
			oldest = b
		}
	}
	if oldest != nil {
		delete(st.pending, oldest.key)
		r.recycle(oldest)
	}
}

// recycle returns a trace buffer to the pool.
func (r *SpanRecorder) recycle(b *traceBuf) {
	if cap(b.spans) > 256 {
		b.spans = nil // don't pin one huge trace's backing array forever
	}
	r.pool.Put(b)
}

// Stats summarizes the recorder.
func (r *SpanRecorder) Stats() SpanRecorderStats {
	if r == nil {
		return SpanRecorderStats{}
	}
	st := SpanRecorderStats{
		Roots:  r.roots.Load(),
		Kept:   r.kept.Load(),
		SlowNs: r.slowNs.Load(),
	}
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		st.Pending += len(s.pending)
		for _, b := range s.ring {
			st.Spans += len(b.spans)
		}
		s.mu.Unlock()
	}
	return st
}

// Spans copies every span currently held in the kept rings, grouped by
// trace (each trace's spans contiguous, recording order preserved).
func (r *SpanRecorder) Spans() []Span {
	if r == nil {
		return nil
	}
	var out []Span
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for _, b := range s.ring {
			out = append(out, b.spans...)
		}
		s.mu.Unlock()
	}
	return out
}

// TraceSummary is one kept trace's root-level digest, for /statusz.
type TraceSummary struct {
	// TraceID is the 32-hex trace id.
	TraceID string
	// Dur and Start are the root span's bounds; Status its outcome.
	Dur    time.Duration
	Start  time.Time
	Status string
	// Spans is the number of spans kept under the trace.
	Spans int
}

// Slowest returns up to n kept-trace summaries, slowest root first.
func (r *SpanRecorder) Slowest(n int) []TraceSummary {
	if r == nil || n <= 0 {
		return nil
	}
	var all []TraceSummary
	for i := range r.stripes {
		s := &r.stripes[i]
		s.mu.Lock()
		for _, b := range s.ring {
			for j := range b.spans {
				sp := &b.spans[j]
				if sp.ParentID != 0 {
					continue
				}
				all = append(all, TraceSummary{
					TraceID: TraceContext{TraceHi: sp.TraceHi, TraceLo: sp.TraceLo}.TraceID(),
					Dur:     sp.Dur,
					Start:   sp.Start,
					Status:  sp.Status,
					Spans:   len(b.spans),
				})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Dur > all[j].Dur })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// spanJSON is one /debug/traces JSONL record.
type spanJSON struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Link    string `json:"link,omitempty"`
	Name    string `json:"name"`
	Shard   int    `json:"shard,omitempty"`
	StartNS int64  `json:"start_unix_ns"`
	DurNS   int64  `json:"dur_ns"`
	Status  string `json:"status,omitempty"`
}

// WriteJSONL writes every kept span as one JSON object per line —
// the span sink format of /debug/traces.
func (r *SpanRecorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		rec := spanJSON{
			Trace:   TraceContext{TraceHi: s.TraceHi, TraceLo: s.TraceLo}.TraceID(),
			Span:    fmt.Sprintf("%016x", s.SpanID),
			Name:    s.Name,
			Shard:   s.Shard,
			StartNS: s.Start.UnixNano(),
			DurNS:   s.Dur.Nanoseconds(),
			Status:  s.Status,
		}
		if s.ParentID != 0 {
			rec.Parent = fmt.Sprintf("%016x", s.ParentID)
		}
		if s.Link != 0 {
			rec.Link = fmt.Sprintf("%016x", s.Link)
		}
		if err := enc.Encode(&rec); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes the kept spans as Chrome trace-event JSON by
// pouring them through a Trace — the format chrome://tracing and
// Perfetto open directly. Spans land on the lane of their shard
// (lane 0 = coordinator/no shard).
func (r *SpanRecorder) WriteChrome(w io.Writer) error {
	t := NewTrace()
	for _, s := range r.Spans() {
		name := s.Name
		if s.Status != "" {
			name = s.Name + "!" + s.Status
		}
		tid := s.Shard + 1
		if tid < 0 {
			tid = 0
		}
		t.Span(name, "trace:"+TraceContext{TraceHi: s.TraceHi, TraceLo: s.TraceLo}.TraceID(),
			tid, s.Start, s.Dur)
	}
	return t.WriteJSON(w)
}

// TracesHandler serves a recorder at /debug/traces: JSONL spans by
// default, Chrome trace JSON with ?format=chrome. A nil recorder
// serves an empty body, so the endpoint can be mounted unconditionally.
func TracesHandler(r *SpanRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			if r != nil {
				r.WriteChrome(w)
			} else {
				io.WriteString(w, `{"traceEvents":[]}`+"\n")
			}
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if r != nil {
			r.WriteJSONL(w)
		}
	})
}
