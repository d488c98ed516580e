package obs

import (
	"math"
	stdbits "math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear (HDR-style): each power-of-two octave of
// the value range is subdivided into histSubBuckets equal-width linear
// buckets, so the relative quantization error is bounded by
// 1/histSubBuckets (6.25%) at every scale, from single nanoseconds to
// decades of seconds. Values below histSubBuckets get one exact bucket
// each, which keeps the small-value buckets from aliasing.
const (
	histSubBits    = 4
	histSubBuckets = 1 << histSubBits // linear buckets per octave
	// Values are non-negative int64, so the leading bit is at most 62:
	// octaves cover msb ∈ [histSubBits, 62] and the top bucket's bound
	// clamps to MaxInt64.
	histOctaves = 63 - histSubBits // octaves above the exact range
	// HistBuckets is the fixed bucket count of every Histogram.
	HistBuckets = histSubBuckets * (histOctaves + 1)
)

// bucketIdx maps a non-negative value to its bucket.
func bucketIdx(v uint64) int {
	if v < histSubBuckets {
		return int(v)
	}
	msb := stdbits.Len64(v) - 1 // ≥ histSubBits
	// Top histSubBits mantissa bits below the leading bit select the
	// linear sub-bucket within the octave.
	sub := int(v>>(msb-histSubBits)) - histSubBuckets
	return histSubBuckets + (msb-histSubBits)*histSubBuckets + sub
}

// BucketBounds returns bucket i's half-open value range [lo, hi).
func BucketBounds(i int) (lo, hi int64) {
	if i < histSubBuckets {
		return int64(i), int64(i) + 1
	}
	octave := (i - histSubBuckets) / histSubBuckets
	sub := (i - histSubBuckets) % histSubBuckets
	msb := octave + histSubBits
	width := uint64(1) << (msb - histSubBits)
	l := uint64(1)<<msb + uint64(sub)*width
	h := l + width
	if h > math.MaxInt64 {
		h = math.MaxInt64
	}
	return int64(l), int64(h)
}

// Histogram is a fixed-shape log-linear histogram of non-negative
// int64 values (durations in nanoseconds throughout this repository).
// Observe is lock-free and allocation-free — per-bucket atomic adds
// plus a CAS loop for the exact maximum — so it is safe (and cheap) to
// call from every pool worker concurrently. Read it through Snapshot.
type Histogram struct {
	counts [HistBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Int64
	// exemplars holds one trace-id exemplar per octave (not per bucket
	// — 60 slots instead of 960), written only by ObserveExemplar, so
	// plain Observe stays allocation-free.
	exemplars [histOctaves + 2]atomic.Pointer[Exemplar]
}

// Exemplar links one observed value to the trace that produced it —
// the metrics→traces bridge: a latency histogram bucket that looks bad
// on /statusz carries the 128-bit trace id of a request that landed in
// it, ready to look up in /debug/traces.
type Exemplar struct {
	// Value is the observed value (nanoseconds for latency families).
	Value int64
	// TraceHi and TraceLo are the trace id halves; TraceID renders them.
	TraceHi, TraceLo uint64
	// Unix is the observation time in Unix nanoseconds.
	Unix int64
}

// TraceID renders the exemplar's 32-hex trace id.
func (e *Exemplar) TraceID() string {
	return TraceContext{TraceHi: e.TraceHi, TraceLo: e.TraceLo}.TraceID()
}

// exemplarSlot maps a value to its per-octave exemplar slot.
func exemplarSlot(v int64) int {
	return bucketIdx(uint64(v)) >> histSubBits
}

// Observe records one value. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketIdx(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveExemplar records one value like Observe and attaches the
// producing trace id as the exemplar of the value's octave. It
// allocates one Exemplar record, so callers gate it on the request
// being sampled; unsampled traffic uses plain Observe.
func (h *Histogram) ObserveExemplar(v int64, traceHi, traceLo uint64) {
	if v < 0 {
		v = 0
	}
	h.Observe(v)
	if traceHi|traceLo == 0 {
		return
	}
	h.exemplars[exemplarSlot(v)].Store(&Exemplar{
		Value: v, TraceHi: traceHi, TraceLo: traceLo, Unix: time.Now().UnixNano(),
	})
}

// Exemplars returns the histogram's current exemplars, ascending by
// value octave. Empty when no sampled observation has landed.
func (h *Histogram) Exemplars() []Exemplar {
	var out []Exemplar
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// Snapshot copies the histogram into s. The copy is not atomic with
// respect to concurrent Observes (a snapshot taken under load may be
// mid-update by ±1 in the aggregate counters), which is the standard
// scrape-time contract for lock-free metrics.
func (h *Histogram) Snapshot(s *HistSnapshot) {
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
}

// HistSnapshot is a point-in-time copy of a Histogram, suitable for
// merging across sources and extracting quantiles.
type HistSnapshot struct {
	Counts [HistBuckets]uint64
	Count  uint64
	Sum    uint64
	Max    int64
}

// Merge folds o into s. Merging is associative and commutative (it is
// element-wise addition plus max), so snapshots from many histograms —
// per-worker, per-engine, per-shard — combine in any grouping to the
// same result.
func (s *HistSnapshot) Merge(o *HistSnapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Quantile returns the smallest recorded upper bound v such that at
// least q of the observations are ≤ v, clamped to the exact maximum.
// q outside [0, 1] is clamped; an empty snapshot returns 0. The result
// is exact up to the bucket resolution (≤ 1/16 relative error) and is
// monotonically non-decreasing in q.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the order statistic we want.
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range s.Counts {
		cum += s.Counts[i]
		if cum >= rank {
			_, hi := BucketBounds(i)
			v := hi - 1
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}
