package obs

// Tests for the span recorder's tail-sampling policy and bounded
// storage: cold-start keep-all, error/slow keeps, the deterministic
// keep coin, ring eviction, late-child extension, orphan bounding, and
// nil-recorder safety.

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// rootFor builds a finished root span for a synthetic trace id.
func rootFor(hi uint64, dur time.Duration, status string) Span {
	return Span{TraceHi: hi, TraceLo: 1, SpanID: hi + 1,
		Name: "request", Shard: -1, Start: time.Unix(0, 0), Dur: dur, Status: status}
}

// TestSpanRecorderColdStartKeepsAll: before the latency histogram has
// seen coldStartRoots roots, every trace is kept regardless of keep
// rate — a short smoke run must always leave retrievable traces.
func TestSpanRecorderColdStartKeepsAll(t *testing.T) {
	rec := NewSpanRecorder(NewTraceSource(1), 0) // keep rate zero
	for i := uint64(0); i < 32; i++ {
		rec.Record(rootFor(i+1, time.Millisecond, ""))
	}
	st := rec.Stats()
	if st.Roots != 32 || st.Kept != 32 {
		t.Errorf("cold start: roots=%d kept=%d, want 32/32", st.Roots, st.Kept)
	}
}

// TestSpanRecorderTailPolicy: past the cold start with keep rate 0,
// fast clean traces are dropped while error-status and slower-than-p99
// traces are kept.
func TestSpanRecorderTailPolicy(t *testing.T) {
	rec := NewSpanRecorder(NewTraceSource(1), 0)
	// Burn the cold start and train the p99 on 1ms roots. Two full
	// slowRecompute batches guarantee the threshold is computed.
	for i := uint64(0); i < 128; i++ {
		rec.Record(rootFor(0x1000+i, time.Millisecond, ""))
	}
	if rec.Stats().SlowNs == 0 {
		t.Fatal("p99 threshold not trained after 128 roots")
	}
	base := rec.Stats().Kept

	// Probes sit well under the trained p99 so only the policy — not
	// the slow rule — decides them.
	rec.Record(rootFor(0xA000, 50*time.Microsecond, "")) // fast, clean: dropped
	if got := rec.Stats().Kept; got != base {
		t.Errorf("fast clean trace kept (kept %d -> %d)", base, got)
	}
	rec.Record(rootFor(0xB000, 50*time.Microsecond, "deadline")) // failed: kept
	if got := rec.Stats().Kept; got != base+1 {
		t.Errorf("failed trace not kept (kept %d -> %d)", base, got)
	}
	rec.Record(rootFor(0xC000, time.Second, "")) // way over p99: kept
	if got := rec.Stats().Kept; got != base+2 {
		t.Errorf("slow trace not kept (kept %d -> %d)", base, got)
	}
}

// TestSpanRecorderKeepRateDeterministic: the probabilistic coin is a
// hash of the trace id, so the same ids produce the same keep set on
// every run — and keep rate 1 keeps everything.
func TestSpanRecorderKeepRateDeterministic(t *testing.T) {
	kept := func(rate float64) []uint64 {
		rec := NewSpanRecorder(NewTraceSource(1), rate)
		for i := uint64(0); i < 128; i++ { // burn cold start + train p99
			rec.Record(rootFor(0x1000+i, time.Millisecond, ""))
		}
		var ids []uint64
		for i := uint64(0); i < 64; i++ {
			id := 0x9000 + i*7
			before := rec.Stats().Kept
			rec.Record(rootFor(id, 50*time.Microsecond, ""))
			if rec.Stats().Kept > before {
				ids = append(ids, id)
			}
		}
		return ids
	}
	a, b := kept(0.5), kept(0.5)
	if len(a) == 0 || len(a) == 64 {
		t.Fatalf("keep rate 0.5 kept %d of 64 — coin looks stuck", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("keep set not deterministic: run1 %v, run2 %v", a, b)
		}
	}
	if all := kept(1); len(all) != 64 {
		t.Errorf("keep rate 1 kept %d of 64", len(all))
	}
}

// TestSpanRecorderChildrenAndLateSpans: children recorded before the
// root ride the trace's keep decision, and a child landing after the
// root finalized extends the kept trace.
func TestSpanRecorderChildrenAndLateSpans(t *testing.T) {
	rec := NewSpanRecorder(NewTraceSource(1), 1)
	const hi = 0x42
	root := rootFor(hi, time.Millisecond, "")
	child := Span{TraceHi: hi, TraceLo: 1, ParentID: root.SpanID,
		Name: "queue", Start: time.Unix(0, 0), Dur: time.Microsecond}
	rec.Record(child)
	rec.Record(root)
	if n := len(spansOfTrace(rec, hi)); n != 2 {
		t.Fatalf("kept trace has %d spans, want 2", n)
	}
	late := child
	late.Name = "engine"
	rec.Record(late)
	if n := len(spansOfTrace(rec, hi)); n != 3 {
		t.Errorf("late child did not extend the kept trace: %d spans", n)
	}
	// A child with SpanID 0 gets a minted id.
	for _, s := range spansOfTrace(rec, hi) {
		if s.SpanID == 0 {
			t.Errorf("span %q kept without an id", s.Name)
		}
	}
}

// TestSpanRecorderRingEviction: a stripe's kept ring is bounded; old
// traces fall off FIFO instead of growing without bound.
func TestSpanRecorderRingEviction(t *testing.T) {
	rec := NewSpanRecorder(NewTraceSource(1), 1)
	// Same stripe: key = hi^lo must agree mod spanRecorderStripes, so
	// step hi by the stripe count.
	const n = stripeRingCap + 8
	for i := uint64(0); i < n; i++ {
		hi := (i + 1) * spanRecorderStripes
		rec.Record(Span{TraceHi: hi, TraceLo: 0, SpanID: 1, Name: "request",
			Start: time.Unix(0, 0), Dur: time.Millisecond, Status: "error"})
	}
	st := rec.Stats()
	if st.Kept != n {
		t.Errorf("kept counter = %d, want %d", st.Kept, n)
	}
	if st.Spans != stripeRingCap {
		t.Errorf("ring holds %d spans, want the cap %d", st.Spans, stripeRingCap)
	}
}

// TestSpanRecorderOrphanBound: traces whose root never lands cannot
// grow the pending table past its per-stripe cap.
func TestSpanRecorderOrphanBound(t *testing.T) {
	rec := NewSpanRecorder(NewTraceSource(1), 1)
	for i := uint64(0); i < 3*stripePendingCap; i++ {
		hi := (i + 1) * spanRecorderStripes // all on one stripe
		rec.Record(Span{TraceHi: hi, TraceLo: 0, SpanID: 1, ParentID: 2,
			Name: "queue", Start: time.Unix(0, 0)})
	}
	if p := rec.Stats().Pending; p > stripePendingCap {
		t.Errorf("pending = %d, want <= %d", p, stripePendingCap)
	}
}

// TestSpanRecorderNilSafe: a nil recorder is a valid no-op sink and
// TracesHandler(nil) serves an empty body.
func TestSpanRecorderNilSafe(t *testing.T) {
	var rec *SpanRecorder
	rec.Record(rootFor(1, time.Millisecond, ""))
	if st := rec.Stats(); st != (SpanRecorderStats{}) {
		t.Errorf("nil recorder stats = %+v", st)
	}
	if rec.Spans() != nil || rec.Slowest(5) != nil || rec.Source() != nil {
		t.Error("nil recorder leaked state")
	}
	w := httptest.NewRecorder()
	TracesHandler(nil).ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	if w.Body.Len() != 0 {
		t.Errorf("nil handler body = %q", w.Body.String())
	}
}

// TestTracesHandlerJSONL: the default export is one JSON object per
// span with the ids in hex and parent omitted on roots.
func TestTracesHandlerJSONL(t *testing.T) {
	rec := NewSpanRecorder(NewTraceSource(1), 1)
	const hi = 0x7
	root := rootFor(hi, 2*time.Millisecond, "")
	rec.Record(Span{TraceHi: hi, TraceLo: 1, ParentID: root.SpanID, Name: "queue",
		Shard: 3, Start: time.Unix(0, 0), Dur: time.Microsecond, Status: "transient"})
	rec.Record(root)

	w := httptest.NewRecorder()
	TracesHandler(rec).ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces", nil))
	var roots, children int
	sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
	for sc.Scan() {
		var rec struct {
			Trace, Span, Parent, Name, Status string
			Shard                             int
			DurNS                             int64 `json:"dur_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if rec.Trace == "" || rec.Span == "" || rec.Name == "" {
			t.Errorf("line missing ids: %q", sc.Text())
		}
		if rec.Parent == "" {
			roots++
		} else {
			children++
			if rec.Shard != 3 || rec.Status != "transient" {
				t.Errorf("child lost tags: %q", sc.Text())
			}
		}
	}
	if roots != 1 || children != 1 {
		t.Errorf("exported %d roots, %d children; want 1 and 1", roots, children)
	}

	// The Chrome export is a well-formed trace-event JSON.
	w = httptest.NewRecorder()
	TracesHandler(rec).ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces?format=chrome", nil))
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Errorf("chrome export has %d events, want 2", len(doc.TraceEvents))
	}
}

// spansOfTrace filters the kept spans to one synthetic trace id.
func spansOfTrace(rec *SpanRecorder, hi uint64) []Span {
	var out []Span
	for _, s := range rec.Spans() {
		if s.TraceHi == hi {
			out = append(out, s)
		}
	}
	return out
}
