package server

// Tests for trace-context wire propagation: the HTTP header codec and
// the binary frame trace block must both be encode∘decode identities,
// and garbage must degrade to "no context" (never an error).

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"parlist/internal/engine"
	"parlist/internal/list"
	"parlist/internal/obs"
)

// TestTraceContextWireRoundTrip pins both propagation surfaces. The
// HTTP header form round-trips through Header/ParseTraceHeader; the
// binary framing round-trips the trace block through both the request
// and response codecs; and a version-1 request frame (no trace block)
// is refused as an unsupported version.
func TestTraceContextWireRoundTrip(t *testing.T) {
	l := &list.List{Next: []int{1, 2, -1}, Head: 0}
	contexts := []obs.TraceContext{
		{TraceHi: 0xdead, TraceLo: 0xbeef, SpanID: 0x1234, Sampled: true},
		{TraceHi: ^uint64(0), TraceLo: 1, SpanID: ^uint64(0), Sampled: false},
		{}, // untraced
	}

	for _, tc := range contexts {
		// HTTP header identity (the zero context has no header form).
		if tc.Valid() {
			got, ok := obs.ParseTraceHeader(tc.Header())
			if !ok || got != tc {
				t.Errorf("header round trip: %+v -> %q -> %+v (ok=%v)", tc, tc.Header(), got, ok)
			}
		}

		// Binary request frame identity.
		req := engine.Request{Op: engine.OpRank, List: l, Trace: tc}
		frame, err := appendRequestFrame(nil, 42, "tenant", &req)
		if err != nil {
			t.Fatal(err)
		}
		_, _, req2, err := decodeRequestFrame(frame[4:])
		if err != nil {
			t.Fatal(err)
		}
		if req2.Trace != tc {
			t.Errorf("request frame round trip: %+v -> %+v", tc, req2.Trace)
		}

		// Binary response frame identity (the response block carries the
		// id halves and root span; the sampled flag is request-side only).
		resp := appendResponseFrame(nil, &item{id: 42, status: StatusInternal, err: errors.New("boom"),
			bi: engine.BatchItem{Req: engine.Request{Op: engine.OpRank, Trace: tc}}})
		r, err := decodeResponseFrame(resp[4:])
		if err != nil {
			t.Fatal(err)
		}
		want := obs.TraceContext{TraceHi: tc.TraceHi, TraceLo: tc.TraceLo, SpanID: tc.SpanID}
		if r.Trace != want {
			t.Errorf("response frame round trip: %+v -> %+v", want, r.Trace)
		}
	}

	// A v1 frame is the v2 frame with the 32-byte trace block spliced
	// out and the version byte dropped to 1: it is refused.
	req := engine.Request{Op: engine.OpRank, List: l,
		Trace: obs.TraceContext{TraceHi: 9, TraceLo: 9, SpanID: 9, Sampled: true}}
	frame, err := appendRequestFrame(nil, 7, "tenant", &req)
	if err != nil {
		t.Fatal(err)
	}
	v2 := frame[4:]
	v1 := append(append([]byte{}, v2[:64]...), v2[96:]...)
	v1[1] = 1
	if _, _, _, err := decodeRequestFrame(v1); !errors.Is(err, errBadVersion) {
		t.Errorf("v1 frame: err = %v, want %v", err, errBadVersion)
	}
}

// TestParseTraceHeaderGarbage: hostile header values yield (zero,
// false), never a panic or a partial context.
func TestParseTraceHeaderGarbage(t *testing.T) {
	for _, h := range []string{
		"",
		"xyz",
		strings.Repeat("0", 52),
		"0123456789abcdef0123456789abcdef-0123456789abcdef-zz",
		"0123456789abcdef0123456789abcdef+0123456789abcdef-01",
		"00000000000000000000000000000000-0000000000000000-00", // zero id = invalid
		strings.Repeat("f", 64),
	} {
		if tc, ok := obs.ParseTraceHeader(h); ok || tc != (obs.TraceContext{}) {
			t.Errorf("ParseTraceHeader(%q) = %+v, %v; want zero, false", h, tc, ok)
		}
	}
}

// TestHTTPTracePropagation drives the JSON framing end to end: a
// request carrying X-Parlist-Trace is served under that exact trace id
// (echoed in the response header and body, recorded in the span ring),
// and a request without one gets a server-minted id back.
func TestHTTPTracePropagation(t *testing.T) {
	pool := engine.NewPool(engine.PoolConfig{Engines: 1, Engine: engine.Config{Processors: 4}})
	rec := obs.NewSpanRecorder(obs.NewTraceSource(11), 1)
	s, err := New(Config{Pool: pool, BatchSize: 1, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	h := s.Handler()

	tc := rec.Source().NewContext(true)
	req := httptest.NewRequest("POST", "/v1/rank", strings.NewReader(`{"next":[1,2,-1]}`))
	req.Header.Set(TraceHeader, tc.Header())
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get(TraceHeader); got != tc.Header() {
		t.Errorf("echoed trace header = %q, want %q", got, tc.Header())
	}
	if !strings.Contains(w.Body.String(), tc.TraceID()) {
		t.Errorf("response body does not carry trace id %s: %s", tc.TraceID(), w.Body.String())
	}
	found := false
	for _, sp := range rec.Spans() {
		if sp.TraceHi == tc.TraceHi && sp.TraceLo == tc.TraceLo && sp.ParentID == 0 {
			found = true
			if sp.SpanID != tc.SpanID {
				t.Errorf("root span id %x, want the propagated %x", sp.SpanID, tc.SpanID)
			}
		}
	}
	if !found {
		t.Errorf("no root span recorded under the propagated trace id")
	}

	// No inbound context: the server mints one and reports it.
	req = httptest.NewRequest("POST", "/v1/rank", strings.NewReader(`{"next":[1,2,-1]}`))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	minted, ok := obs.ParseTraceHeader(w.Header().Get(TraceHeader))
	if !ok {
		t.Fatalf("no minted trace header on untraced request (got %q)", w.Header().Get(TraceHeader))
	}
	if minted.TraceID() == tc.TraceID() {
		t.Errorf("minted trace id collides with the propagated one")
	}
}

// TestBinaryFrameTraceOversize: the oversize-frame refusal path writes
// a response with the zero context — it never invents a trace id.
func TestBinaryFrameTraceOversize(t *testing.T) {
	resp := appendResponseFrame(nil, &item{status: StatusInvalid, err: errors.New("too big")})
	r, err := decodeResponseFrame(resp[4:])
	if err != nil {
		t.Fatal(err)
	}
	if r.Trace != (obs.TraceContext{}) {
		t.Errorf("refusal response carries a trace: %+v", r.Trace)
	}
}
